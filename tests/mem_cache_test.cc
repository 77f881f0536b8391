/**
 * @file
 * Unit and property tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "mem/cache.hh"

namespace mcdvfs
{
namespace
{

CacheConfig
smallConfig()
{
    CacheConfig config;
    config.name = "test";
    config.sizeBytes = 1024;
    config.associativity = 2;
    config.lineBytes = 64;
    return config;
}

TEST(CacheConfig, GeometryValidation)
{
    CacheConfig config = smallConfig();
    EXPECT_NO_THROW(config.validate());

    config.lineBytes = 48;  // not a power of two
    EXPECT_THROW(config.validate(), FatalError);

    config = smallConfig();
    config.associativity = 0;
    EXPECT_THROW(config.validate(), FatalError);

    config = smallConfig();
    config.sizeBytes = 1000;  // not divisible
    EXPECT_THROW(config.validate(), FatalError);

    config = smallConfig();
    config.associativity = 3;  // 1024/64/3 not a power of two
    EXPECT_THROW(config.validate(), FatalError);

    config = smallConfig();
    config.lineBytes = 1;  // a 64-bit tag would need all 64 bits
    config.sizeBytes = 2;
    EXPECT_THROW(config.validate(), FatalError);
    config.lineBytes = 2;
    config.sizeBytes = 4;
    EXPECT_NO_THROW(config.validate());
}

TEST(CacheConfig, NumSets)
{
    EXPECT_EQ(smallConfig().numSets(), 8u);
    CacheConfig paper;
    paper.sizeBytes = 64 * kKiB;
    paper.associativity = 4;
    paper.lineBytes = 64;
    EXPECT_EQ(paper.numSets(), 256u);
}

TEST(Cache, MissThenHit)
{
    Cache cache(smallConfig());
    EXPECT_FALSE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1000, false).hit);
    // Same line, different offset also hits.
    EXPECT_TRUE(cache.access(0x1038, false).hit);
}

TEST(Cache, DistinctSetsDoNotConflict)
{
    Cache cache(smallConfig());
    cache.access(0x0, false);
    cache.access(0x40, false);  // next set
    EXPECT_TRUE(cache.access(0x0, false).hit);
    EXPECT_TRUE(cache.access(0x40, false).hit);
}

TEST(Cache, LruEviction)
{
    // 2-way set: three conflicting lines evict the least recent.
    Cache cache(smallConfig());
    const std::uint64_t set_stride = 8 * 64;  // 8 sets * 64B lines
    cache.access(0 * set_stride, false);      // A
    cache.access(1 * set_stride, false);      // B
    cache.access(0 * set_stride, false);      // touch A
    cache.access(2 * set_stride, false);      // C evicts B
    EXPECT_TRUE(cache.access(0 * set_stride, false).hit);
    EXPECT_FALSE(cache.access(1 * set_stride, false).hit);
}

TEST(Cache, DirtyEvictionGeneratesWriteback)
{
    Cache cache(smallConfig());
    const std::uint64_t set_stride = 8 * 64;
    cache.access(0, true);  // dirty line A
    cache.access(1 * set_stride, false);
    const CacheAccessResult result = cache.access(2 * set_stride, false);
    EXPECT_TRUE(result.writeback);
    EXPECT_EQ(result.writebackAddr, 0u);
    EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionHasNoWriteback)
{
    Cache cache(smallConfig());
    const std::uint64_t set_stride = 8 * 64;
    cache.access(0, false);
    cache.access(1 * set_stride, false);
    EXPECT_FALSE(cache.access(2 * set_stride, false).writeback);
}

TEST(Cache, WriteHitMarksLineDirty)
{
    Cache cache(smallConfig());
    const std::uint64_t set_stride = 8 * 64;
    cache.access(0, false);  // clean fill
    cache.access(0, true);   // write hit dirties it
    cache.access(1 * set_stride, false);
    const CacheAccessResult result = cache.access(2 * set_stride, false);
    EXPECT_TRUE(result.writeback);
}

TEST(Cache, FillInstallsWithoutAccessCounters)
{
    Cache cache(smallConfig());
    cache.fill(0x2000, /*dirty=*/true);
    EXPECT_EQ(cache.stats().accesses(), 0u);
    EXPECT_TRUE(cache.access(0x2000, false).hit);
}

TEST(Cache, StatsCounters)
{
    Cache cache(smallConfig());
    cache.access(0x0, false);   // read miss
    cache.access(0x0, false);   // read hit
    cache.access(0x40, true);   // write miss
    cache.access(0x40, true);   // write hit
    const CacheStats &stats = cache.stats();
    EXPECT_EQ(stats.reads, 2u);
    EXPECT_EQ(stats.writes, 2u);
    EXPECT_EQ(stats.readMisses, 1u);
    EXPECT_EQ(stats.writeMisses, 1u);
    EXPECT_DOUBLE_EQ(stats.missRatio(), 0.5);
}

TEST(Cache, ResetClearsContentsAndStats)
{
    Cache cache(smallConfig());
    cache.access(0x0, true);
    cache.reset();
    EXPECT_EQ(cache.stats().accesses(), 0u);
    EXPECT_FALSE(cache.access(0x0, false).hit);
}

TEST(Cache, ClearStatsKeepsContents)
{
    Cache cache(smallConfig());
    cache.access(0x0, false);
    cache.clearStats();
    EXPECT_EQ(cache.stats().accesses(), 0u);
    EXPECT_TRUE(cache.access(0x0, false).hit);
}

TEST(Cache, WorkingSetWithinCapacityAlwaysHitsAfterWarmup)
{
    Cache cache(smallConfig());  // 1 KiB
    // Touch 16 lines (exactly capacity), then re-touch: all hits.
    for (std::uint64_t line = 0; line < 16; ++line)
        cache.access(line * 64, false);
    for (std::uint64_t line = 0; line < 16; ++line)
        EXPECT_TRUE(cache.access(line * 64, false).hit);
}

/**
 * Reference model: per set, a list of (tag, dirty) lines with the most
 * recently used at the back, and the counters the cache keeps.
 */
class ReferenceLru
{
  public:
    ReferenceLru(std::uint64_t sets, std::uint32_t ways)
        : sets_(sets), ways_(ways)
    {}

    CacheAccessResult
    access(std::uint64_t line, bool is_write)
    {
        ++(is_write ? stats_.writes : stats_.reads);
        const CacheAccessResult result = touch(line, is_write);
        if (!result.hit)
            ++(is_write ? stats_.writeMisses : stats_.readMisses);
        return result;
    }

    CacheAccessResult fill(std::uint64_t line, bool dirty)
    {
        return touch(line, dirty);
    }

    bool
    probe(std::uint64_t line) const
    {
        const auto it = sets_map_.find(line % sets_);
        if (it == sets_map_.end())
            return false;
        return std::any_of(it->second.begin(), it->second.end(),
                           [&](const Line &l) {
                               return l.tag == line / sets_;
                           });
    }

    void
    reset()
    {
        sets_map_.clear();
        stats_ = CacheStats{};
    }

    void clearStats() { stats_ = CacheStats{}; }
    const CacheStats &stats() const { return stats_; }

  private:
    struct Line
    {
        std::uint64_t tag;
        bool dirty;
    };

    CacheAccessResult
    touch(std::uint64_t line, bool dirty)
    {
        const std::uint64_t set = line % sets_;
        const std::uint64_t tag = line / sets_;
        auto &lines = sets_map_[set];
        CacheAccessResult result;
        const auto it =
            std::find_if(lines.begin(), lines.end(),
                         [&](const Line &l) { return l.tag == tag; });
        if (it != lines.end()) {
            result.hit = true;
            dirty = dirty || it->dirty;
            lines.erase(it);
        } else if (lines.size() == ways_) {
            if (lines.front().dirty) {
                result.writeback = true;
                result.writebackAddr =
                    (lines.front().tag * sets_ + set) * 64;
                ++stats_.writebacks;
            }
            lines.erase(lines.begin());
        }
        lines.push_back(Line{tag, dirty});
        return result;
    }

    std::uint64_t sets_;
    std::uint32_t ways_;
    std::map<std::uint64_t, std::vector<Line>> sets_map_;
    CacheStats stats_;
};

void
expectSameStats(const CacheStats &got, const CacheStats &want)
{
    EXPECT_EQ(got.reads, want.reads);
    EXPECT_EQ(got.writes, want.writes);
    EXPECT_EQ(got.readMisses, want.readMisses);
    EXPECT_EQ(got.writeMisses, want.writeMisses);
    EXPECT_EQ(got.writebacks, want.writebacks);
}

/**
 * Property: the cache agrees with the reference model on every result
 * field and counter for random streams of reads, writes, fills and
 * probes with resets and counter clears in between, across
 * geometries.  Most references go to a few sets, so ways fill and
 * evict dirty lines; some carry tags above 2^40.  A final drain
 * evicts every resident line, which checks each one's dirty bit.
 */
struct Geometry
{
    std::uint64_t size;
    std::uint32_t assoc;
};

class CacheModelProperty : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheModelProperty, MatchesReferenceLru)
{
    CacheConfig config;
    config.sizeBytes = GetParam().size;
    config.associativity = GetParam().assoc;
    config.lineBytes = 64;
    Cache cache(config);

    const std::uint64_t sets = config.numSets();
    const std::uint32_t ways = config.associativity;
    ReferenceLru model(sets, ways);
    const std::uint64_t hot_sets = std::min<std::uint64_t>(sets, 4);

    const auto compare = [&](const CacheAccessResult &got,
                             const CacheAccessResult &want, int i) {
        ASSERT_EQ(got.hit, want.hit) << "divergence at op " << i;
        ASSERT_EQ(got.writeback, want.writeback) << "at op " << i;
        if (want.writeback) {
            ASSERT_EQ(got.writebackAddr, want.writebackAddr) << i;
        }
    };

    Rng rng(GetParam().size * 31 + GetParam().assoc);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t set =
            rng.chance(0.8) ? rng.uniformInt(hot_sets) * (sets / hot_sets)
                            : rng.uniformInt(sets);
        std::uint64_t tag = rng.uniformInt(2 * ways + 1);
        if (rng.chance(0.125))
            tag += 1ull << 40;
        const std::uint64_t line = tag * sets + set;
        const std::uint64_t addr = line * 64 + rng.uniformInt(64);

        const double op = rng.uniform();
        if (op < 0.6) {
            const bool is_write = rng.chance(0.5);
            compare(cache.access(addr, is_write),
                    model.access(line, is_write), i);
        } else if (op < 0.9) {
            const bool dirty = rng.chance(0.5);
            compare(cache.fill(addr, dirty), model.fill(line, dirty), i);
        } else {
            ASSERT_EQ(cache.probe(addr), model.probe(line)) << i;
        }
        if (i % 4999 == 4998) {
            cache.reset();
            model.reset();
        } else if (i % 3001 == 3000) {
            cache.clearStats();
            model.clearStats();
        }
        expectSameStats(cache.stats(), model.stats());
        if (HasFailure())
            return;
    }

    // Drain: reading `ways` never-used tags into every set evicts each
    // resident line, with a writeback exactly when it is dirty.
    for (std::uint64_t set = 0; set < sets; ++set) {
        for (std::uint32_t w = 0; w < ways; ++w) {
            const std::uint64_t line = ((1ull << 41) + w) * sets + set;
            compare(cache.access(line * 64, false),
                    model.access(line, false), -1);
        }
        if (HasFailure())
            return;
    }
    expectSameStats(cache.stats(), model.stats());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheModelProperty,
    ::testing::Values(Geometry{1024, 1}, Geometry{1024, 2},
                      Geometry{1536, 3}, Geometry{4096, 4},
                      Geometry{8192, 8}, Geometry{64 * 1024, 4},
                      Geometry{4096, 64}, Geometry{2 * kMiB, 16}));

} // namespace
} // namespace mcdvfs
