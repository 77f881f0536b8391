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
 * unique temporary name in the same directory, which is atomically
 * renamed into place, so a crash (kill -9) mid-write leaves either the
 * old file or no file — never a torn one.  Writes are best-effort: a
 * failed one (directory gone, disk full) removes its temporary file
 * and is counted and warned about, and the caller carries on.  Loads
 * verify magic, version, kind, key, length and checksum; anything that
 * fails verification is counted, warned about, and skipped (a corrupt
 * snapshot, or one in an older container version, degrades to a cache
 * miss, never to UB).
 */

#ifndef MCDVFS_DAEMON_SNAPSHOT_STORE_HH
#define MCDVFS_DAEMON_SNAPSHOT_STORE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/binio.hh"
#include "obs/metrics.hh"
#include "svc/analysis_cache.hh"
#include "svc/grid_cache.hh"

namespace mcdvfs
{
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
     * Load every verifiable grid snapshot in the directory (warm
     * restart).  Corrupt or foreign files are skipped with a warning.
     */
    std::vector<GridEntry> loadAllGrids();

    /** Load every verifiable analysis snapshot in the directory. */
    std::vector<AnalysisEntry> loadAllAnalyses();

    Stats stats() const;

  private:
    enum class Kind : std::uint32_t
    {
        Grid = 1,
        Analysis = 2,
    };

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
    /** Suffix of this store's temporary file names. */
    std::atomic<std::uint64_t> tempSeq_{0};
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
