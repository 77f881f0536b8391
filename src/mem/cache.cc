#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace mcdvfs
{

std::uint64_t
CacheConfig::numSets() const
{
    const std::uint64_t line_capacity = sizeBytes / lineBytes;
    return associativity ? line_capacity / associativity : 0;
}

void
CacheConfig::validate() const
{
    if (lineBytes < 2 || !std::has_single_bit(lineBytes)) {
        fatal("cache '", name,
              "': line size must be a power of two of at least 2 bytes");
    }
    if (associativity == 0)
        fatal("cache '", name, "': associativity must be positive");
    if (sizeBytes % (static_cast<std::uint64_t>(lineBytes) *
                     associativity) != 0) {
        fatal("cache '", name,
              "': size must be a multiple of line size * associativity");
    }
    const std::uint64_t sets = numSets();
    if (sets == 0 || !std::has_single_bit(sets))
        fatal("cache '", name, "': set count must be a power of two");
}

double
CacheStats::missRatio() const
{
    const Count total = accesses();
    return total ? static_cast<double>(misses()) /
                   static_cast<double>(total)
                 : 0.0;
}

Cache::Cache(const CacheConfig &config)
    : config_(config)
{
    config_.validate();
    const std::uint64_t sets = config_.numSets();
    ways_ = config_.associativity;
    lineShift_ = std::countr_zero(config_.lineBytes);
    setShift_ = std::countr_zero(sets);
    setMask_ = sets - 1;
    tags_.assign(sets * ways_, kInvalidTag);
    lastUse_.assign(sets * ways_, 0);
    dirty_.assign(sets * ways_, 0);
    filled_.assign(sets, 0);
}

void
Cache::reset()
{
    // Only the tags and fill counts: the LRU time and dirty bit of an
    // invalid way are never read, and insert() writes both.
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(filled_.begin(), filled_.end(), 0);
    useClock_ = 0;
    stats_ = CacheStats{};
}

CacheAccessResult
Cache::evict(const Location &loc, bool dirty)
{
    // Every way is valid, with a distinct time: the minimum is the
    // least recently used way.
    const std::uint64_t *last_use = lastUse_.data() + loc.base;
    std::uint32_t victim = 0;
    std::uint64_t oldest = last_use[0];
    for (std::uint32_t w = 1; w < ways_; ++w) {
        const bool older = last_use[w] < oldest;
        oldest = older ? last_use[w] : oldest;
        victim = older ? w : victim;
    }

    CacheAccessResult result;
    const std::uint64_t slot = loc.base + victim;
    if (dirty_[slot]) {
        result.writeback = true;
        result.writebackAddr = ((tags_[slot] << setShift_) | loc.set)
                               << lineShift_;
        ++stats_.writebacks;
    }
    tags_[slot] = loc.tag;
    dirty_[slot] = dirty;
    lastUse_[slot] = ++useClock_;
    return result;
}

} // namespace mcdvfs
