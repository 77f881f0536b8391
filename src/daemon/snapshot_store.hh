/**
 * @file
 * Persistent, fingerprint-addressed store of grid and analysis
 * snapshots.
 *
 * A fleet-scale daemon must not recharacterize the world on every
 * restart: a MeasuredGrid is the expensive artifact (hundreds of
 * samples through the cache/DRAM simulator) and the §V/§VI analysis
 * chain is the second-most expensive, yet both are pure functions of
 * content-fingerprinted inputs (svc/fingerprint.hh).  SnapshotStore
 * persists both as checksummed binary files addressed by their cache
 * keys, so a restarting daemon reloads them into GridCache /
 * AnalysisCache and serves its first requests hot.
 *
 * Layout: one file per snapshot inside one directory —
 *
 *   grid-<16-hex-digit key digest>.snap
 *   analysis-<16-hex-digit key digest>.snap
 *
 * Each file is one container (version 3): magic, version, kind, the
 * full cache key, the payload length and one checksum64
 * (common/hash.hh) over the key bytes and then the payload, followed
 * by the payload.  A grid payload is its body format word and the
 * sim/grid_io binary grid body; an analysis payload is a
 * common/binio.hh serialization of svc::AnalysisResult.  Both round
 * trip bit for bit.
 *
 * I/O: a store serializes the container once into one buffer and
 * writes it with one write; a load reads the file with one sized read
 * and parses the payload in place.  Durability: the write goes to a
 * temporary name in the same directory, unique across processes and
 * store instances (the writer's pid and a process-wide sequence
 * number), which is atomically renamed into place, so a crash
 * (kill -9) mid-write leaves either the old file or no file — never a
 * torn one — and two stores writing one key never take each other's
 * temporary file.  Writes are best-effort: a failed one (directory
 * gone, disk full) removes its temporary file and is counted and
 * warned about, and the caller carries on.  Loads verify magic,
 * version, kind, key, length, checksum and the payload's bounds;
 * anything that fails verification is counted, warned about, and
 * skipped (a corrupt snapshot, or one in an older container version,
 * degrades to a cache miss, never to UB).
 *
 * Warm restart: list() walks the directory once into (path, kind,
 * size, mtime) records, newest first, and opens no file; newest()
 * selects the first records of each kind, up to a count per kind (a
 * daemon passes its cache capacities, so what a restart reads is
 * bounded by what its caches can hold, not by the store's history);
 * load() reads, verifies and parses the selection, fanned over a
 * thread pool when given one.  Each file fills the slot of its index
 * in the selection, so the result is in selection order whatever the
 * schedule.  A selected file that fails verification still used up
 * its place: it is one counted load error, and no older file is read
 * instead.  A file removed between list() and load() is skipped
 * uncounted, like any absent snapshot.  loadAllGrids() and
 * loadAllAnalyses() are the serial load of every listed file of one
 * kind.  Loads, stores and listings may run concurrently on one store;
 * its counters are atomic, and load warnings reach the log sink from
 * whichever thread loaded the file.
 */

#ifndef MCDVFS_DAEMON_SNAPSHOT_STORE_HH
#define MCDVFS_DAEMON_SNAPSHOT_STORE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/binio.hh"
#include "obs/metrics.hh"
#include "svc/analysis_cache.hh"
#include "svc/grid_cache.hh"

namespace mcdvfs
{
namespace exec
{
class ThreadPool;
} // namespace exec

namespace daemon
{

/** Directory-backed snapshot store (thread-safe; see file comment). */
class SnapshotStore
{
  public:
    /** Magic leading every snapshot container. */
    static constexpr char kMagic[8] = {'m', 'c', 'd', 'v',
                                       'f', 's', 'S', 'S'};

    /**
     * Current container version.  v2 added the GPU frequency to every
     * serialized FrequencySetting (optimal choices and stable-region
     * chosen settings).  v3 embeds the grid body directly instead of a
     * nested sim/grid_io snapshot, and replaces byte-wise FNV-1a with
     * checksum64.  Older containers are rejected as a counted miss and
     * simply recomputed.
     */
    static constexpr std::uint32_t kVersion = 3;

    /**
     * Monotonic per-store I/O counters: each field is this store's own
     * count of the daemon.snapshot.* series of the same name.
     */
    struct Stats
    {
        std::uint64_t gridStores = 0;
        std::uint64_t gridLoads = 0;
        std::uint64_t analysisStores = 0;
        std::uint64_t analysisLoads = 0;
        /** Files rejected as truncated / corrupt / mismatched. */
        std::uint64_t loadErrors = 0;
        /** Writes that failed (nothing stored; the caller carries on). */
        std::uint64_t storeErrors = 0;
    };

    /** What a snapshot file holds (the container's kind word). */
    enum class Kind : std::uint32_t
    {
        Grid = 1,
        Analysis = 2,
    };

    /** One snapshot file as list() found it: nothing of it was read. */
    struct File
    {
        std::string path;
        Kind kind = Kind::Grid;
        std::uint64_t size = 0;
        /** Last modification, nanoseconds since the epoch. */
        std::int64_t mtimeNs = 0;
    };

    /** One reloaded grid snapshot with its cache key. */
    struct GridEntry
    {
        svc::GridKey key;
        std::shared_ptr<const MeasuredGrid> grid;
    };

    /** One reloaded analysis snapshot with its cache key. */
    struct AnalysisEntry
    {
        svc::AnalysisKey key;
        std::shared_ptr<const svc::AnalysisResult> result;
    };

    /** The snapshots load() verified, each kind in its files' order. */
    struct Loaded
    {
        std::vector<GridEntry> grids;
        std::vector<AnalysisEntry> analyses;
    };

    /**
     * Open (creating if needed) the store directory.
     * @throws FatalError when the directory cannot be created.
     */
    explicit SnapshotStore(std::string directory);

    const std::string &directory() const { return directory_; }

    /**
     * Persist a grid under its cache key (write-to-temp + rename).
     * @return false when the write failed (counted in
     *         stats().storeErrors and warned about; never throws
     *         FatalError)
     */
    bool storeGrid(const svc::GridKey &key, const MeasuredGrid &grid);

    /**
     * Load the grid stored under @c key; nullptr when absent or when
     * the file fails verification (counted in stats().loadErrors).
     */
    std::shared_ptr<const MeasuredGrid> loadGrid(const svc::GridKey &key);

    /** Persist an analysis under its cache key (false as storeGrid). */
    bool storeAnalysis(const svc::AnalysisKey &key,
                       const svc::AnalysisResult &result);

    /** Load the analysis stored under @c key (nullptr as loadGrid). */
    std::shared_ptr<const svc::AnalysisResult> loadAnalysis(
        const svc::AnalysisKey &key);

    /**
     * The directory's grid-*.snap and analysis-*.snap files, newest
     * first; equal modification times order by name.  One directory
     * walk and one stat() per file, and no file is opened.  A file
     * that vanishes during the walk is left out; a directory that
     * cannot be walked lists nothing, with a warning; no
     * std::filesystem_error escapes.
     */
    std::vector<File> list() const;

    /**
     * The first @c grids grid files and the first @c analyses
     * analysis files of @c listing, in its order: over list(), the
     * newest files of each kind.
     */
    static std::vector<File> newest(std::span<const File> listing,
                                    std::size_t grids,
                                    std::size_t analyses);

    /**
     * Read, verify and parse @c files: spread over @c pool (the
     * calling thread takes part) or, without one, one after another.
     * The result keeps the order of @c files.  A file that fails
     * verification is one counted load error and a file that is gone
     * is skipped; neither leaves an entry (see the file comment).
     */
    Loaded load(std::span<const File> files,
                exec::ThreadPool *pool = nullptr);

    /**
     * Load every verifiable grid snapshot in the directory, newest
     * first: the serial load() of every listed grid file.  Corrupt or
     * foreign files are skipped with a warning.
     */
    std::vector<GridEntry> loadAllGrids();

    /** Load every verifiable analysis snapshot, as loadAllGrids(). */
    std::vector<AnalysisEntry> loadAllAnalyses();

    Stats stats() const;

  private:
    /** Serializes a payload into the container buffer. */
    using PayloadWriter = std::function<void(ByteWriter &)>;

    /** Parses a verified snapshot's key bytes and payload, in place. */
    using SnapshotParser =
        std::function<void(std::string_view key, std::string_view payload)>;

    std::string gridPath(const svc::GridKey &key) const;
    std::string analysisPath(const svc::AnalysisKey &key) const;

    /**
     * Serialize the container (@c payload appends the payload), write
     * it to a temp file and rename that into place; false after
     * counting and warning when any step fails.
     */
    bool writeSnapshot(const std::string &path, Kind kind,
                       const std::string &keyBytes,
                       const PayloadWriter &payload);

    /**
     * Read and verify one container and hand it to @c parse.  Returns
     * false for an absent file (a miss, not an error) and, after
     * counting and warning, for one that fails verification or
     * parsing.
     */
    bool readSnapshot(const std::string &path, Kind kind,
                      const SnapshotParser &parse);

    std::string directory_;
    obs::OwnedCounter gridStores_{"daemon.snapshot.grid_stores"};
    obs::OwnedCounter gridLoads_{"daemon.snapshot.grid_loads"};
    obs::OwnedCounter analysisStores_{"daemon.snapshot.analysis_stores"};
    obs::OwnedCounter analysisLoads_{"daemon.snapshot.analysis_loads"};
    obs::OwnedCounter loadErrors_{"daemon.snapshot.load_errors"};
    obs::OwnedCounter storeErrors_{"daemon.snapshot.store_errors"};
};

} // namespace daemon
} // namespace mcdvfs

#endif // MCDVFS_DAEMON_SNAPSHOT_STORE_HH
