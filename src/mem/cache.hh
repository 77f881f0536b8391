/**
 * @file
 * Set-associative write-back, write-allocate cache model.
 *
 * This is a functional (hit/miss) model: it tracks tags, LRU state and
 * dirty bits, and reports for each access whether it hit and whether a
 * dirty victim was evicted.  Timing is applied later by the timing
 * model; keeping the functional model frequency-free is what allows
 * the characterize-once design (DESIGN.md §5.1).
 */

#ifndef MCDVFS_MEM_CACHE_HH
#define MCDVFS_MEM_CACHE_HH

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"

namespace mcdvfs
{

/** Static geometry of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 64 * kKiB;
    std::uint32_t associativity = 4;
    std::uint32_t lineBytes = 64;
    /** Access latency in cycles of the cache's clock domain. */
    std::uint32_t latencyCycles = 2;

    /** Number of sets implied by the geometry. */
    std::uint64_t numSets() const;

    /**
     * Validate the geometry (power-of-two line size of at least 2
     * bytes, power-of-two set count).
     * @throws FatalError on inconsistent geometry.
     */
    void validate() const;
};

/** Result of one cache access. */
struct CacheAccessResult
{
    bool hit = false;
    /** A dirty line was evicted and must be written back. */
    bool writeback = false;
    /** Line address (block-aligned) of the evicted dirty line. */
    std::uint64_t writebackAddr = 0;
};

/** Hit/miss counters for one cache level. */
struct CacheStats
{
    Count reads = 0;
    Count writes = 0;
    Count readMisses = 0;
    Count writeMisses = 0;
    Count writebacks = 0;

    Count accesses() const { return reads + writes; }
    Count misses() const { return readMisses + writeMisses; }

    /** Miss ratio in [0,1]; 0 when no accesses. */
    double missRatio() const;
};

/**
 * One level of set-associative cache with true-LRU replacement.
 *
 * Ways are stored structure-of-arrays (tags, LRU timestamps, dirty
 * bits), so one set's tags are contiguous, and on the paper's 4- and
 * 16-way levels a lookup compares them all without a data-dependent
 * branch.  A set's valid ways are always a prefix of it: a miss fills
 * the first invalid way, and only reset() invalidates.  So a per-set
 * fill count names the victim while the set has room, with no scan,
 * and only a full set looks for its least recently used way.  The
 * access path runs once or twice per simulated memory reference and
 * is defined in this header.
 */
class Cache
{
  public:
    /** @throws FatalError on invalid geometry. */
    explicit Cache(const CacheConfig &config);

    /**
     * Perform one access.
     *
     * @param addr byte address
     * @param is_write store (marks the line dirty)
     * @return hit/miss and any writeback generated
     */
    CacheAccessResult
    access(std::uint64_t addr, bool is_write)
    {
        const Location loc = locate(addr);
        stats_.writes += is_write;
        stats_.reads += !is_write;
        if (const std::uint32_t way = findWay(loc.base, loc.tag))
            return recordHit(loc.base + way - 1, is_write);
        stats_.writeMisses += is_write;
        stats_.readMisses += !is_write;
        // Write-allocate: fetch the line, mark dirty on stores.
        return insert(loc, is_write);
    }

    /**
     * Install a line without an allocate-triggering access (used for
     * writeback-allocation into the next level).
     */
    CacheAccessResult
    fill(std::uint64_t addr, bool dirty)
    {
        const Location loc = locate(addr);
        if (const std::uint32_t way = findWay(loc.base, loc.tag))
            return recordHit(loc.base + way - 1, dirty);
        return insert(loc, dirty);
    }

    /** Check for a line without touching LRU state or counters. */
    bool
    probe(std::uint64_t addr) const
    {
        const Location loc = locate(addr);
        return findWay(loc.base, loc.tag) != 0;
    }

    /** Reset contents and statistics. */
    void reset();

    /** Accumulated counters. */
    const CacheStats &stats() const { return stats_; }

    /** Zero the counters but keep cache contents (sample boundary). */
    void clearStats() { stats_ = CacheStats{}; }

    /** Geometry. */
    const CacheConfig &config() const { return config_; }

  private:
    /** Where a line lives: its set, the set's first way, its tag. */
    struct Location
    {
        std::uint64_t set;
        std::uint64_t base;
        std::uint64_t tag;
    };

    Location
    locate(std::uint64_t addr) const
    {
        const std::uint64_t line = addr >> lineShift_;
        const std::uint64_t set = line & setMask_;
        return {set, set * ways_, line >> setShift_};
    }

    /** Make the valid way @c slot most recently used, dirty if @c dirty. */
    CacheAccessResult
    recordHit(std::uint64_t slot, bool dirty)
    {
        lastUse_[slot] = ++useClock_;
        dirty_[slot] |= dirty;
        CacheAccessResult result;
        result.hit = true;
        return result;
    }

    /**
     * Tag of an invalid way.  Lines are at least 2 bytes, so a real tag
     * is at most 63 bits wide and never equals it.
     */
    static constexpr std::uint64_t kInvalidTag = ~0ull;

    /**
     * 1 + the way of the set starting at @c base that holds @c tag, or
     * 0 on a miss.  With the way count known only at run time, GCC
     * compiles the loop to a compare and branch per way below 16 ways
     * and to a vector loop plus a horizontal reduction at 16, so the
     * paper's 4-way L1 and 16-way L2 get matchWay(), a straight-line
     * compare of every way (docs/PERF.md "What each technique is
     * worth" has the A/B).
     */
    std::uint32_t
    findWay(std::uint64_t base, std::uint64_t tag) const
    {
        const std::uint64_t *tags = tags_.data() + base;
        switch (ways_) {
          case 4:
            return matchWay<4>(tags, tag);
          case 16:
            return matchWay<16>(tags, tag);
          default:
            break;
        }
        std::uint32_t way = 0;
        for (std::uint32_t w = 0; w < ways_; ++w)
            way |= tags[w] == tag ? w + 1 : 0;
        return way;
    }

    /**
     * findWay() over @c Ways ways: a tag is in a set at most once, so
     * the match mask has at most one bit, and its width is 1 + the way.
     */
    template <std::uint32_t Ways>
    static std::uint32_t
    matchWay(const std::uint64_t *tags, std::uint64_t tag)
    {
        std::uint64_t mask = 0;
        for (std::uint32_t w = 0; w < Ways; ++w)
            mask |= static_cast<std::uint64_t>(tags[w] == tag) << w;
        return static_cast<std::uint32_t>(std::bit_width(mask));
    }

    /**
     * Insert the line at @c loc into the set's next invalid way, or
     * else in place of its least recently used way; returns any dirty
     * eviction.
     */
    CacheAccessResult
    insert(const Location &loc, bool dirty)
    {
        std::uint32_t &filled = filled_[loc.set];
        if (filled == ways_)
            return evict(loc, dirty);
        const std::uint64_t slot = loc.base + filled++;
        tags_[slot] = loc.tag;
        dirty_[slot] = dirty;
        lastUse_[slot] = ++useClock_;
        return {};
    }

    /** insert() into a full set: replace its least recently used way. */
    CacheAccessResult evict(const Location &loc, bool dirty);

    CacheConfig config_;
    std::uint32_t ways_;
    std::uint32_t lineShift_;
    std::uint32_t setShift_;
    std::uint64_t setMask_;
    /** @name Per way, numSets * associativity, set-major. */
    ///@{
    std::vector<std::uint64_t> tags_;     ///< kInvalidTag when empty
    std::vector<std::uint64_t> lastUse_;  ///< LRU timestamp if valid
    std::vector<std::uint8_t> dirty_;     ///< meaningful if valid
    ///@}
    /** Per set: its valid ways, which are ways [0, filled). */
    std::vector<std::uint32_t> filled_;
    std::uint64_t useClock_ = 0;
    CacheStats stats_;
};

} // namespace mcdvfs

#endif // MCDVFS_MEM_CACHE_HH
