#include "daemon/snapshot_store.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/hash.hh"
#include "common/logging.hh"
#include "exec/thread_pool.hh"
#include "obs/metrics.hh"
#include "sim/grid_io.hh"

namespace mcdvfs
{
namespace daemon
{

namespace
{

namespace fs = std::filesystem;

/**
 * Process-wide snapshot-store latency histograms (all stores share
 * them; the counters are each store's own OwnedCounters).
 */
struct StoreMetrics
{
    obs::Histogram storeNs;
    obs::Histogram loadNs;

    StoreMetrics()
    {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
        const auto latency = obs::MetricsRegistry::latencyBucketsNs();
        storeNs = reg.histogram("daemon.snapshot.store_ns", latency);
        loadNs = reg.histogram("daemon.snapshot.load_ns", latency);
    }
};

StoreMetrics &
storeMetrics()
{
    static StoreMetrics metrics;
    return metrics;
}

/** Snapshot files cannot plausibly exceed this (see grid_io). */
constexpr std::uint64_t kMaxSnapshotBytes = 1ull << 31;

std::string
hexDigest(std::uint64_t digest)
{
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(digest));
    return std::string(buffer, 16);
}

std::string
gridKeyBytes(const svc::GridKey &key)
{
    ByteWriter w;
    w.u64(key.workload);
    w.u64(key.space);
    w.u64(key.config);
    return w.take();
}

svc::GridKey
parseGridKey(std::string_view bytes)
{
    ByteReader r(bytes, "grid snapshot key");
    svc::GridKey key;
    key.workload = r.u64();
    key.space = r.u64();
    key.config = r.u64();
    r.expectEnd();
    return key;
}

std::string
analysisKeyBytes(const svc::AnalysisKey &key)
{
    ByteWriter w;
    w.u64(key.grid);
    w.f64(key.budget);
    w.f64(key.threshold);
    return w.take();
}

svc::AnalysisKey
parseAnalysisKey(std::string_view bytes)
{
    ByteReader r(bytes, "analysis snapshot key");
    svc::AnalysisKey key;
    key.grid = r.u64();
    key.budget = r.f64();
    key.threshold = r.f64();
    r.expectEnd();
    return key;
}

void
writeChoice(ByteWriter &w, const OptimalChoice &choice)
{
    w.u64(choice.settingIndex);
    w.f64(choice.setting.cpu);
    w.f64(choice.setting.mem);
    w.f64(choice.setting.gpu);
    w.f64(choice.speedup);
    w.f64(choice.inefficiency);
}

OptimalChoice
readChoice(ByteReader &r)
{
    OptimalChoice choice;
    choice.settingIndex = r.u64();
    choice.setting.cpu = r.f64();
    choice.setting.mem = r.f64();
    choice.setting.gpu = r.f64();
    choice.speedup = r.f64();
    choice.inefficiency = r.f64();
    return choice;
}

/**
 * Read an element count whose elements take at least @c min_bytes
 * each: a count the bytes left cannot hold is corrupt, and is rejected
 * before anything is reserved for it.
 */
std::uint32_t
checkedCount(ByteReader &r, std::size_t min_bytes, const char *what)
{
    const std::uint32_t count = r.u32();
    if (count > r.remaining() / min_bytes)
        fatal("analysis snapshot: ", what, " count ", count,
              " needs more than the ", r.remaining(), " bytes left");
    return count;
}

/** A u32 count, then that many u64 setting indices. */
void
writeIndices(ByteWriter &w, const std::vector<std::size_t> &indices)
{
    w.u32(static_cast<std::uint32_t>(indices.size()));
    char *words = w.extend(indices.size() * 8);
    for (std::size_t i = 0; i < indices.size(); ++i)
        storeLittleEndian<std::uint64_t>(words + 8 * i, indices[i]);
}

/** The inverse of writeIndices: one bounds check for the run. */
std::vector<std::size_t>
readIndices(ByteReader &r, const char *what)
{
    const std::uint32_t count = checkedCount(r, 8, what);
    const char *words = r.bytes(std::size_t{count} * 8, what).data();
    std::vector<std::size_t> indices(count);
    for (std::uint32_t i = 0; i < count; ++i)
        indices[i] = loadLittleEndian<std::uint64_t>(words + 8 * i);
    return indices;
}

void
writeAnalysisPayload(ByteWriter &w, const svc::AnalysisResult &result)
{
    w.u32(static_cast<std::uint32_t>(result.optimal.size()));
    for (const OptimalChoice &choice : result.optimal)
        writeChoice(w, choice);

    w.u32(static_cast<std::uint32_t>(result.clusters.size()));
    for (const PerformanceCluster &cluster : result.clusters) {
        writeChoice(w, cluster.optimal);
        writeIndices(w, cluster.settings);
    }

    w.u32(static_cast<std::uint32_t>(result.regions.size()));
    for (const StableRegion &region : result.regions) {
        w.u64(region.first);
        w.u64(region.last);
        writeIndices(w, region.availableSettings);
        w.u64(region.chosenSettingIndex);
        w.f64(region.chosenSetting.cpu);
        w.f64(region.chosenSetting.mem);
        w.f64(region.chosenSetting.gpu);
    }
}

svc::AnalysisResult
parseAnalysisPayload(std::string_view payload)
{
    ByteReader r(payload, "analysis snapshot");
    svc::AnalysisResult result;

    // Minimum encoded sizes: a choice is one u64 and five f64 (48 B);
    // a cluster is a choice and an index count (52 B); a region is
    // three u64, an index count and three f64 (52 B).
    const std::uint32_t optima = checkedCount(r, 48, "optimal");
    result.optimal.reserve(optima);
    for (std::uint32_t i = 0; i < optima; ++i)
        result.optimal.push_back(readChoice(r));

    const std::uint32_t clusters = checkedCount(r, 52, "cluster");
    result.clusters.reserve(clusters);
    for (std::uint32_t i = 0; i < clusters; ++i) {
        PerformanceCluster cluster;
        cluster.optimal = readChoice(r);
        cluster.settings = readIndices(r, "cluster member");
        result.clusters.push_back(std::move(cluster));
    }

    const std::uint32_t regions = checkedCount(r, 52, "region");
    result.regions.reserve(regions);
    for (std::uint32_t i = 0; i < regions; ++i) {
        StableRegion region;
        region.first = r.u64();
        region.last = r.u64();
        region.availableSettings = readIndices(r, "region setting");
        region.chosenSettingIndex = r.u64();
        region.chosenSetting.cpu = r.f64();
        region.chosenSetting.mem = r.f64();
        region.chosenSetting.gpu = r.f64();
        result.regions.push_back(std::move(region));
    }
    r.expectEnd();
    return result;
}

/** A grid payload: the body format word, then the grid_io body. */
MeasuredGrid
parseGridPayload(std::string_view payload)
{
    ByteReader r(payload, "grid snapshot");
    const std::uint32_t format = r.u32();
    return readGridBody(r, format);
}

/** A file descriptor closed when it goes out of scope. */
class FileDescriptor
{
  public:
    explicit FileDescriptor(int fd) : fd_(fd) {}
    ~FileDescriptor()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    FileDescriptor(const FileDescriptor &) = delete;
    FileDescriptor &operator=(const FileDescriptor &) = delete;

    int get() const { return fd_; }

    /** Close now, reporting a failed close (a lost write) as fatal(). */
    void
    close()
    {
        const int fd = fd_;
        fd_ = -1;
        if (::close(fd) != 0)
            fatal("close failed: ", std::strerror(errno));
    }

  private:
    int fd_;
};

/** Write all of @c bytes to a new file at @c path. */
void
writeWholeFile(const std::string &path, std::string_view bytes)
{
    FileDescriptor file(
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
    if (file.get() < 0)
        fatal("cannot open '", path, "' for writing: ",
              std::strerror(errno));
    while (!bytes.empty()) {
        const ssize_t written =
            ::write(file.get(), bytes.data(), bytes.size());
        if (written < 0 && errno == EINTR)
            continue;
        if (written <= 0)
            fatal("write failed for '", path, "': ", std::strerror(errno));
        bytes.remove_prefix(static_cast<std::size_t>(written));
    }
    file.close();
}

/** Read all @c size bytes of an open file into @c buffer. */
void
readWholeFile(int fd, char *buffer, std::size_t size)
{
    while (size > 0) {
        const ssize_t got = ::read(fd, buffer, size);
        if (got < 0 && errno == EINTR)
            continue;
        if (got < 0)
            fatal("read failed: ", std::strerror(errno));
        if (got == 0)
            fatal("file shrank while being read");
        buffer += got;
        size -= static_cast<std::size_t>(got);
    }
}

/**
 * A temporary file name next to @c path that no other writer uses:
 * the pid tells processes apart, a process-wide sequence number the
 * writes of one process (whichever store instance makes them).
 */
std::string
tempPath(const std::string &path)
{
    static std::atomic<std::uint64_t> sequence{0};
    return path + ".tmp" + std::to_string(::getpid()) + "." +
           std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
}

} // namespace

SnapshotStore::SnapshotStore(std::string directory)
    : directory_(std::move(directory))
{
    if (directory_.empty())
        fatal("snapshot store: empty directory path");
    std::error_code ec;
    fs::create_directories(directory_, ec);
    if (ec || !fs::is_directory(directory_)) {
        fatal("snapshot store: cannot create directory '", directory_,
              "': ", ec.message());
    }
}

std::string
SnapshotStore::gridPath(const svc::GridKey &key) const
{
    return directory_ + "/grid-" + hexDigest(key.combined()) + ".snap";
}

std::string
SnapshotStore::analysisPath(const svc::AnalysisKey &key) const
{
    return directory_ + "/analysis-" + hexDigest(key.combined()) +
           ".snap";
}

bool
SnapshotStore::writeSnapshot(const std::string &path, Kind kind,
                             const std::string &keyBytes,
                             const PayloadWriter &payload)
{
    obs::ScopedTimer store_timer(storeMetrics().storeNs);
    // Unique temp name per write, atomically renamed into place:
    // a crash mid-write leaves the old snapshot (or none), never a
    // torn file under the final name.
    const std::string temp = tempPath(path);
    try {
        ByteWriter file;
        for (const char c : kMagic)
            file.u8(static_cast<std::uint8_t>(c));
        file.u32(kVersion);
        file.u32(static_cast<std::uint32_t>(kind));
        file.str(keyBytes);
        const std::size_t size_at = file.size();
        file.u64(0);  // payload size and checksum, filled in below
        file.u64(0);
        payload(file);
        const std::string_view body =
            std::string_view(file.bytes()).substr(size_at + 16);
        // The checksum covers the key bytes too: a flipped bit in the
        // key region must read as corruption, not as a different
        // snapshot.
        const std::uint64_t checksum =
            checksum64(body, checksum64(keyBytes));
        file.patchU64(size_at, body.size());
        file.patchU64(size_at + 8, checksum);

        writeWholeFile(temp, file.bytes());
        std::error_code ec;
        fs::rename(temp, path, ec);
        if (ec)
            fatal("cannot rename '", temp, "' into place: ", ec.message());
    } catch (const FatalError &err) {
        std::error_code ec;
        fs::remove(temp, ec);
        storeErrors_.add();
        warn("snapshot store: cannot store '", path, "': ", err.what());
        return false;
    }
    (kind == Kind::Grid ? gridStores_ : analysisStores_).add();
    return true;
}

bool
SnapshotStore::readSnapshot(const std::string &path, Kind kind,
                            const SnapshotParser &parse)
{
    FileDescriptor file(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
    if (file.get() < 0 && errno == ENOENT)
        return false;

    obs::ScopedTimer load_timer(storeMetrics().loadNs);
    try {
        if (file.get() < 0)
            fatal("cannot open: ", std::strerror(errno));
        struct stat info = {};
        if (::fstat(file.get(), &info) != 0)
            fatal("cannot stat: ", std::strerror(errno));
        const auto size = static_cast<std::uint64_t>(info.st_size);
        if (size > kMaxSnapshotBytes)
            fatal("implausible file size ", size);
        const auto bytes = std::make_unique_for_overwrite<char[]>(size);
        readWholeFile(file.get(), bytes.get(), size);

        ByteReader r(std::string_view(bytes.get(), size),
                     "snapshot container");
        if (r.bytes(sizeof(kMagic), "magic") !=
            std::string_view(kMagic, sizeof(kMagic)))
            fatal("snapshot container: bad magic");
        const std::uint32_t version = r.u32();
        if (version != kVersion)
            fatal("snapshot container: unsupported version ", version,
                  " (expected ", kVersion, ")");
        const std::uint32_t file_kind = r.u32();
        if (file_kind != static_cast<std::uint32_t>(kind))
            fatal("snapshot container: kind ", file_kind,
                  " does not match the expected kind ",
                  static_cast<std::uint32_t>(kind));
        const std::string_view key = r.bytes(r.u32(), "key");
        const std::uint64_t payload_size = r.u64();
        const std::uint64_t checksum = r.u64();
        if (payload_size != r.remaining())
            fatal("snapshot container: truncated payload (header claims ",
                  payload_size, " bytes, file has ", r.remaining(), ")");
        const std::string_view payload = r.bytes(payload_size, "payload");
        if (checksum64(payload, checksum64(key)) != checksum)
            fatal("snapshot container: checksum mismatch (corrupt "
                  "snapshot)");
        parse(key, payload);
    } catch (const FatalError &err) {
        loadErrors_.add();
        warn("snapshot store: rejecting '", path, "': ", err.what());
        return false;
    }
    (kind == Kind::Grid ? gridLoads_ : analysisLoads_).add();
    return true;
}

bool
SnapshotStore::storeGrid(const svc::GridKey &key, const MeasuredGrid &grid)
{
    return writeSnapshot(gridPath(key), Kind::Grid, gridKeyBytes(key),
                         [&grid](ByteWriter &w) {
                             w.u32(gridBodyFormat(grid));
                             writeGridBody(w, grid);
                         });
}

std::shared_ptr<const MeasuredGrid>
SnapshotStore::loadGrid(const svc::GridKey &key)
{
    std::shared_ptr<const MeasuredGrid> grid;
    readSnapshot(gridPath(key), Kind::Grid,
                 [&](std::string_view key_bytes, std::string_view payload) {
                     if (!(parseGridKey(key_bytes) == key))
                         fatal("stored key does not match the requested "
                               "key");
                     grid = std::make_shared<const MeasuredGrid>(
                         parseGridPayload(payload));
                 });
    return grid;
}

bool
SnapshotStore::storeAnalysis(const svc::AnalysisKey &key,
                             const svc::AnalysisResult &result)
{
    return writeSnapshot(analysisPath(key), Kind::Analysis,
                         analysisKeyBytes(key), [&result](ByteWriter &w) {
                             writeAnalysisPayload(w, result);
                         });
}

std::shared_ptr<const svc::AnalysisResult>
SnapshotStore::loadAnalysis(const svc::AnalysisKey &key)
{
    std::shared_ptr<const svc::AnalysisResult> result;
    readSnapshot(analysisPath(key), Kind::Analysis,
                 [&](std::string_view key_bytes, std::string_view payload) {
                     if (!(parseAnalysisKey(key_bytes) == key))
                         fatal("stored key does not match the requested "
                               "key");
                     result = std::make_shared<const svc::AnalysisResult>(
                         parseAnalysisPayload(payload));
                 });
    return result;
}

std::vector<SnapshotStore::File>
SnapshotStore::list() const
{
    std::vector<File> files;
    std::error_code ec;
    for (fs::directory_iterator it(directory_, ec), end; !ec && it != end;
         it.increment(ec)) {
        const std::string name = it->path().filename().string();
        if (!name.ends_with(".snap"))
            continue;
        File file;
        if (name.starts_with("grid-"))
            file.kind = Kind::Grid;
        else if (name.starts_with("analysis-"))
            file.kind = Kind::Analysis;
        else
            continue;
        file.path = it->path().string();
        struct stat info = {};
        if (::stat(file.path.c_str(), &info) != 0)
            continue;  // removed since the walk saw it
        file.size = static_cast<std::uint64_t>(info.st_size);
        file.mtimeNs =
            static_cast<std::int64_t>(info.st_mtim.tv_sec) * 1'000'000'000 +
            info.st_mtim.tv_nsec;
        files.push_back(std::move(file));
    }
    if (ec)
        warn("snapshot store: cannot list '", directory_, "': ",
             ec.message());
    std::sort(files.begin(), files.end(), [](const File &a, const File &b) {
        return a.mtimeNs != b.mtimeNs ? a.mtimeNs > b.mtimeNs
                                      : a.path < b.path;
    });
    return files;
}

std::vector<SnapshotStore::File>
SnapshotStore::newest(std::span<const File> listing, std::size_t grids,
                      std::size_t analyses)
{
    std::vector<File> selected;
    for (const File &file : listing) {
        std::size_t &left = file.kind == Kind::Grid ? grids : analyses;
        if (left > 0) {
            --left;
            selected.push_back(file);
        }
    }
    return selected;
}

SnapshotStore::Loaded
SnapshotStore::load(std::span<const File> files, exec::ThreadPool *pool)
{
    // One slot per file, written only by whichever thread loads it.
    struct Slot
    {
        GridEntry grid;
        AnalysisEntry analysis;
    };
    std::vector<Slot> slots(files.size());
    const auto loadOne = [&](std::size_t i) {
        const File &file = files[i];
        Slot &slot = slots[i];
        readSnapshot(file.path, file.kind,
                     [&](std::string_view key, std::string_view payload) {
                         if (file.kind == Kind::Grid) {
                             slot.grid = GridEntry{
                                 parseGridKey(key),
                                 std::make_shared<const MeasuredGrid>(
                                     parseGridPayload(payload))};
                         } else {
                             slot.analysis = AnalysisEntry{
                                 parseAnalysisKey(key),
                                 std::make_shared<const svc::AnalysisResult>(
                                     parseAnalysisPayload(payload))};
                         }
                     });
    };
    if (pool != nullptr) {
        pool->parallelFor(0, files.size(), loadOne);
    } else {
        for (std::size_t i = 0; i < files.size(); ++i)
            loadOne(i);
    }

    Loaded loaded;
    for (Slot &slot : slots) {
        if (slot.grid.grid != nullptr)
            loaded.grids.push_back(std::move(slot.grid));
        else if (slot.analysis.result != nullptr)
            loaded.analyses.push_back(std::move(slot.analysis));
    }
    return loaded;
}

std::vector<SnapshotStore::GridEntry>
SnapshotStore::loadAllGrids()
{
    return load(newest(list(), SIZE_MAX, 0)).grids;
}

std::vector<SnapshotStore::AnalysisEntry>
SnapshotStore::loadAllAnalyses()
{
    return load(newest(list(), 0, SIZE_MAX)).analyses;
}

SnapshotStore::Stats
SnapshotStore::stats() const
{
    Stats stats;
    stats.gridStores = gridStores_.value();
    stats.gridLoads = gridLoads_.value();
    stats.analysisStores = analysisStores_.value();
    stats.analysisLoads = analysisLoads_.value();
    stats.loadErrors = loadErrors_.value();
    stats.storeErrors = storeErrors_.value();
    return stats;
}

} // namespace daemon
} // namespace mcdvfs
