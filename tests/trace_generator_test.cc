/**
 * @file
 * Unit and property tests for the synthetic trace generator.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.hh"
#include "trace/trace_generator.hh"

namespace mcdvfs
{
namespace
{

PhaseSpec
testSpec()
{
    PhaseSpec spec;
    spec.loadFrac = 0.25;
    spec.storeFrac = 0.10;
    spec.branchFrac = 0.15;
    spec.fpFrac = 0.10;
    spec.mulFrac = 0.02;
    spec.hotFrac = 0.6;
    spec.warmFrac = 0.3;
    spec.coldSeqFrac = 0.5;
    return spec;
}

TEST(TraceGenerator, Deterministic)
{
    TraceGenerator a(testSpec(), 42);
    TraceGenerator b(testSpec(), 42);
    for (int i = 0; i < 10000; ++i) {
        const InstrRecord ra = a.next();
        const InstrRecord rb = b.next();
        ASSERT_EQ(ra.kind, rb.kind);
        ASSERT_EQ(ra.addr, rb.addr);
    }
}

TEST(TraceGenerator, SeedChangesStream)
{
    TraceGenerator a(testSpec(), 1);
    TraceGenerator b(testSpec(), 2);
    int same = 0;
    for (int i = 0; i < 1000; ++i) {
        const InstrRecord ra = a.next();
        const InstrRecord rb = b.next();
        same += ra.kind == rb.kind && ra.addr == rb.addr;
    }
    EXPECT_LT(same, 700);
}

TEST(TraceGenerator, MixMatchesSpec)
{
    const PhaseSpec spec = testSpec();
    TraceGenerator gen(spec, 7);
    const int n = 200000;
    int loads = 0;
    int stores = 0;
    int branches = 0;
    int fp = 0;
    for (int i = 0; i < n; ++i) {
        switch (gen.next().kind) {
          case InstrKind::Load:
            ++loads;
            break;
          case InstrKind::Store:
            ++stores;
            break;
          case InstrKind::Branch:
            ++branches;
            break;
          case InstrKind::FpOp:
            ++fp;
            break;
          default:
            break;
        }
    }
    EXPECT_NEAR(static_cast<double>(loads) / n, spec.loadFrac, 0.01);
    EXPECT_NEAR(static_cast<double>(stores) / n, spec.storeFrac, 0.01);
    EXPECT_NEAR(static_cast<double>(branches) / n, spec.branchFrac, 0.01);
    EXPECT_NEAR(static_cast<double>(fp) / n, spec.fpFrac, 0.01);
}

TEST(TraceGenerator, MemoryInstructionsCarryAddresses)
{
    TraceGenerator gen(testSpec(), 11);
    for (int i = 0; i < 10000; ++i) {
        const InstrRecord rec = gen.next();
        if (isMemory(rec.kind)) {
            ASSERT_NE(rec.addr, 0u);
        }
    }
}

TEST(TraceGenerator, AddressesStayInTierRanges)
{
    const PhaseSpec spec = testSpec();
    TraceGenerator gen(spec, 13);
    for (int i = 0; i < 50000; ++i) {
        const InstrRecord rec = gen.next();
        if (!isMemory(rec.kind))
            continue;
        const std::uint64_t addr = rec.addr;
        const bool in_hot =
            addr >= TraceGenerator::kHotBase &&
            addr < TraceGenerator::kHotBase + spec.hotBytes;
        const bool in_warm =
            addr >= TraceGenerator::kWarmBase &&
            addr < TraceGenerator::kWarmBase + spec.warmBytes;
        const bool in_cold =
            addr >= TraceGenerator::kColdBase &&
            addr < TraceGenerator::kColdBase + spec.coldBytes;
        ASSERT_TRUE(in_hot || in_warm || in_cold)
            << "address " << std::hex << addr << " outside all tiers";
    }
}

TEST(TraceGenerator, TierFrequenciesMatchSpec)
{
    const PhaseSpec spec = testSpec();
    TraceGenerator gen(spec, 17);
    int hot = 0;
    int warm = 0;
    int cold = 0;
    int mem = 0;
    for (int i = 0; i < 300000; ++i) {
        const InstrRecord rec = gen.next();
        if (!isMemory(rec.kind))
            continue;
        ++mem;
        if (rec.addr < TraceGenerator::kWarmBase)
            ++hot;
        else if (rec.addr < TraceGenerator::kColdBase)
            ++warm;
        else
            ++cold;
    }
    EXPECT_NEAR(static_cast<double>(hot) / mem, spec.hotFrac, 0.02);
    EXPECT_NEAR(static_cast<double>(warm) / mem, spec.warmFrac, 0.02);
    EXPECT_NEAR(static_cast<double>(cold) / mem, spec.coldFrac(), 0.02);
}

TEST(TraceGenerator, SequentialColdStreamAdvancesAndWraps)
{
    PhaseSpec spec = testSpec();
    spec.hotFrac = 0.0;
    spec.warmFrac = 0.0;
    spec.coldSeqFrac = 1.0;
    spec.coldBytes = 4096;  // tiny, to force wraparound
    spec.loadFrac = 1.0;
    spec.storeFrac = 0.0;
    spec.branchFrac = 0.0;
    spec.fpFrac = 0.0;
    spec.mulFrac = 0.0;

    TraceGenerator gen(spec, 19);
    std::uint64_t prev = gen.next().addr;
    int wraps = 0;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t addr = gen.next().addr;
        if (addr < prev)
            ++wraps;
        else
            ASSERT_EQ(addr, prev + 8);
        ASSERT_LT(addr, TraceGenerator::kColdBase + spec.coldBytes);
        prev = addr;
    }
    EXPECT_GT(wraps, 0);
}

TEST(TraceGenerator, InvalidSpecThrows)
{
    PhaseSpec spec = testSpec();
    spec.baseCpi = -1.0;
    EXPECT_THROW((TraceGenerator{spec, 1}), FatalError);

    // A footprint tier needs at least one 8-byte word to draw from.
    for (std::uint64_t PhaseSpec::*field :
         {&PhaseSpec::hotBytes, &PhaseSpec::warmBytes,
          &PhaseSpec::coldBytes}) {
        spec = testSpec();
        spec.*field = 7;
        EXPECT_THROW((TraceGenerator{spec, 1}), FatalError);
        spec.*field = 8;
        TraceGenerator one_word(spec, 1);
        for (int i = 0; i < 1000; ++i)
            one_word.next();
    }

    // A tier must end at or before the next tier's base, and the cold
    // tier before its addresses wrap: the largest accepted size of each
    // and the smallest rejected one.
    const struct
    {
        std::uint64_t PhaseSpec::*field;
        std::uint64_t room;
    } tiers[] = {
        {&PhaseSpec::hotBytes,
         TraceGenerator::kWarmBase - TraceGenerator::kHotBase},
        {&PhaseSpec::warmBytes,
         TraceGenerator::kColdBase - TraceGenerator::kWarmBase},
        {&PhaseSpec::coldBytes, 0 - TraceGenerator::kColdBase},
    };
    for (const auto &tier : tiers) {
        spec = testSpec();
        spec.*tier.field = tier.room;
        TraceGenerator largest(spec, 1);
        for (int i = 0; i < 1000; ++i)
            largest.next();
        spec.*tier.field = tier.room + 1;
        EXPECT_THROW((TraceGenerator{spec, 1}), FatalError) << tier.room;
    }
    EXPECT_EQ(tiers[0].room, 0x3000'0000u);
    EXPECT_EQ(tiers[1].room, 0x4000'0000u);
    EXPECT_EQ(tiers[2].room, 0xffff'ffff'8000'0000u);
}

} // namespace
} // namespace mcdvfs
