/**
 * @file
 * Unit tests for trace recording/replay.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/logging.hh"
#include "sim/sample_simulator.hh"
#include "trace/trace_generator.hh"
#include "trace/trace_io.hh"
#include "trace/workloads.hh"

namespace mcdvfs
{
namespace
{

PhaseSpec
mixedPhase()
{
    PhaseSpec spec;
    spec.hotFrac = 0.7;
    spec.warmFrac = 0.2;
    spec.coldSeqFrac = 0.5;
    return spec;
}

TEST(TraceIo, RecordReplayRoundTrip)
{
    TraceGenerator gen(mixedPhase(), 42);
    std::ostringstream os;
    recordTrace(gen, 5000, os);

    TraceGenerator reference(mixedPhase(), 42);
    TraceReplay replay = TraceReplay::fromString(os.str());
    ASSERT_EQ(replay.size(), 5000u);
    for (int i = 0; i < 5000; ++i) {
        const InstrRecord expected = reference.next();
        const InstrRecord actual = replay.next();
        ASSERT_EQ(actual.kind, expected.kind) << "instr " << i;
        if (isMemory(expected.kind)) {
            ASSERT_EQ(actual.addr, expected.addr) << "instr " << i;
        }
    }
}

TEST(TraceIo, ReplayWrapsAround)
{
    TraceReplay replay = TraceReplay::fromString("A\nB\nL 1f40\n");
    EXPECT_EQ(replay.size(), 3u);
    EXPECT_FALSE(replay.wrapped());
    EXPECT_EQ(replay.next().kind, InstrKind::IntAlu);
    EXPECT_EQ(replay.next().kind, InstrKind::Branch);
    const InstrRecord load = replay.next();
    EXPECT_EQ(load.kind, InstrKind::Load);
    EXPECT_EQ(load.addr, 0x1f40u);
    EXPECT_TRUE(replay.wrapped());
    EXPECT_EQ(replay.next().kind, InstrKind::IntAlu);
}

TEST(TraceIo, AllKindsRoundTrip)
{
    TraceReplay replay =
        TraceReplay::fromString("A\nM\nF\nB\nL a0\nS b0\nG\n");
    EXPECT_EQ(replay.next().kind, InstrKind::IntAlu);
    EXPECT_EQ(replay.next().kind, InstrKind::IntMul);
    EXPECT_EQ(replay.next().kind, InstrKind::FpOp);
    EXPECT_EQ(replay.next().kind, InstrKind::Branch);
    EXPECT_EQ(replay.next().addr, 0xa0u);
    const InstrRecord store = replay.next();
    EXPECT_EQ(store.kind, InstrKind::Store);
    EXPECT_EQ(store.addr, 0xb0u);
    EXPECT_EQ(replay.next().kind, InstrKind::GpuKick);
}

TEST(TraceIo, RejectsMalformedInput)
{
    EXPECT_THROW(TraceReplay::fromString(""), FatalError);
    // A memory line is a letter, one space and hex digits that fill the
    // line and fit 64 bits; any other line is one letter.  Each error
    // names its line.
    for (const char *line :
         {"X", "L", "L zz", "L 1ffffffffffffffff0", "L -1", "L 12zz",
          "Lx12", "S  +7", "L 0x12", "L ", "A junk"}) {
        try {
            TraceReplay::fromString(std::string("A\n\nL 1f\n") + line +
                                    "\n");
            ADD_FAILURE() << "accepted '" << line << "'";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("line 4"),
                      std::string::npos)
                << e.what();
        }
    }
    const TraceReplay widest =
        TraceReplay::fromString("S ffffffffffffffff\nL 0\n");
    EXPECT_EQ(widest.size(), 2u);
}

TEST(TraceIo, ReplayDrivesCharacterization)
{
    // Characterizing a replayed trace gives the same profile as
    // characterizing the generator it was recorded from, GPU kicks
    // included.
    const Count n = 30'000;
    for (const PhaseSpec &spec : {mixedPhase(), makeGlrender().phaseFor(0)}) {
        TraceGenerator gen(spec, 7);
        std::ostringstream os;
        recordTrace(gen, n, os);

        SampleSimulatorConfig config;
        config.simInstructionsPerSample = n;
        config.warmupInstructions = 0;

        SampleSimulator direct(config);
        const SampleProfile from_gen =
            direct.characterizeOne(spec, 7, n);

        SampleSimulator replayed(config);
        TraceReplay replay = TraceReplay::fromString(os.str());
        const SampleProfile from_replay =
            replayed.characterizeTrace(replay, n, spec);

        for (std::size_t i = 0; i < kProfileRates.size(); ++i) {
            EXPECT_DOUBLE_EQ(from_replay.*kProfileRates[i],
                             from_gen.*kProfileRates[i])
                << spec.name << " rate " << i;
        }
        if (spec.gpuKickFrac > 0.0) {
            EXPECT_GT(from_gen.gpuWorkPerInstr, 0.0) << spec.name;
        }
    }
}

} // namespace
} // namespace mcdvfs
