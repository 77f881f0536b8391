/**
 * @file
 * Unit tests for the SPEC-like workload profiles.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/logging.hh"
#include "trace/workloads.hh"

namespace mcdvfs
{
namespace
{

TEST(Workloads, SixStandardBenchmarks)
{
    const auto all = standardWorkloads();
    ASSERT_EQ(all.size(), 6u);
    EXPECT_EQ(all[0].name(), "bzip2");
    EXPECT_EQ(all[1].name(), "gcc");
    EXPECT_EQ(all[2].name(), "gobmk");
    EXPECT_EQ(all[3].name(), "lbm");
    EXPECT_EQ(all[4].name(), "libq.");
    EXPECT_EQ(all[5].name(), "milc");
}

TEST(Workloads, LookupByName)
{
    EXPECT_EQ(workloadByName("gobmk").name(), "gobmk");
    EXPECT_THROW(workloadByName("doom"), FatalError);
}

TEST(Workloads, LookupFindsEveryExtendedProfile)
{
    std::string names;
    for (const WorkloadProfile &w : extendedWorkloads()) {
        EXPECT_EQ(workloadByName(w.name()).fingerprint(), w.fingerprint())
            << w.name();
        names += (names.empty() ? "" : " ") + w.name();
    }
    try {
        workloadByName("doom");
        FAIL() << "unknown name accepted";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what())
                      .find("(expected one of: " + names + ")"),
                  std::string::npos)
            << error.what();
    }
}

TEST(Workloads, SampleCountsMatchPaperScale)
{
    // The paper's plots run gobmk ~50 samples, milc/gcc/lbm 150-200.
    EXPECT_EQ(workloadByName("gobmk").sampleCount(), 50u);
    EXPECT_GE(workloadByName("milc").sampleCount(), 150u);
    EXPECT_GE(workloadByName("gcc").sampleCount(), 150u);
    EXPECT_GE(workloadByName("lbm").sampleCount(), 150u);
}

TEST(Workloads, TenMillionInstructionSamples)
{
    const WorkloadProfile w = workloadByName("bzip2");
    EXPECT_EQ(w.modeledInstructionsPerSample(), 10'000'000u);
    EXPECT_EQ(w.totalModeledInstructions(),
              10'000'000u * w.sampleCount());
}

TEST(Workloads, PhaseForOutOfRangeThrows)
{
    const WorkloadProfile w = workloadByName("gobmk");
    EXPECT_THROW(w.phaseFor(w.sampleCount()), FatalError);
}

TEST(Workloads, EveryPhaseValidates)
{
    for (const auto &workload : standardWorkloads()) {
        for (std::size_t s = 0; s < workload.sampleCount(); ++s)
            EXPECT_NO_THROW(workload.phaseFor(s).validate());
    }
}

TEST(Workloads, PhasesAreDeterministic)
{
    const WorkloadProfile w = workloadByName("gcc");
    for (std::size_t s = 0; s < w.sampleCount(); s += 13) {
        const PhaseSpec a = w.phaseFor(s);
        const PhaseSpec b = w.phaseFor(s);
        EXPECT_DOUBLE_EQ(a.baseCpi, b.baseCpi);
        EXPECT_DOUBLE_EQ(a.hotFrac, b.hotFrac);
        EXPECT_DOUBLE_EQ(a.mlp, b.mlp);
    }
}

TEST(Workloads, TraceSeedsDistinctAcrossSamples)
{
    const WorkloadProfile w = workloadByName("lbm");
    for (std::size_t s = 1; s < w.sampleCount(); ++s)
        EXPECT_NE(w.traceSeedFor(s), w.traceSeedFor(s - 1));
}

TEST(Workloads, JitterKeepsPhasesClose)
{
    // Jitter perturbs but must not change the phase identity: the
    // same pre-jitter phase recurring later stays within a few
    // percent.
    const WorkloadProfile w = workloadByName("bzip2");
    const PhaseSpec s0 = w.phaseFor(0);
    const PhaseSpec s5 = w.phaseFor(5);  // same compress phase
    EXPECT_EQ(s0.name, s5.name);
    EXPECT_NEAR(s0.baseCpi, s5.baseCpi, s0.baseCpi * 0.1);
}

TEST(Workloads, Bzip2AlternatesPhases)
{
    const WorkloadProfile w = workloadByName("bzip2");
    EXPECT_EQ(w.phaseFor(0).name, "bzip2.compress");
    EXPECT_EQ(w.phaseFor(10).name, "bzip2.decompress");
    EXPECT_EQ(w.phaseFor(20).name, "bzip2.compress");
}

TEST(Workloads, LibquantumIsSinglePhase)
{
    const WorkloadProfile w = workloadByName("libq.");
    const std::string name = w.phaseFor(0).name;
    for (std::size_t s = 0; s < w.sampleCount(); s += 7)
        EXPECT_EQ(w.phaseFor(s).name, name);
}

TEST(Workloads, GobmkChangesPhasesRapidly)
{
    const WorkloadProfile w = workloadByName("gobmk");
    std::size_t changes = 0;
    for (std::size_t s = 1; s < w.sampleCount(); ++s)
        changes += w.phaseFor(s).name != w.phaseFor(s - 1).name;
    // The paper's gobmk changes behaviour nearly every sample.
    EXPECT_GT(changes, w.sampleCount() / 2);
}

TEST(Workloads, LbmIsMemoryIntensive)
{
    const WorkloadProfile w = workloadByName("lbm");
    const PhaseSpec spec = w.phaseFor(0);
    EXPECT_GT(spec.coldFrac(), 0.2);
    EXPECT_GT(spec.mlp, 2.5);
}

TEST(Workloads, ConstructorValidation)
{
    EXPECT_THROW(
        WorkloadProfile("empty", 0,
                        [](std::size_t) { return PhaseSpec{}; }, 1),
        FatalError);
    EXPECT_THROW(WorkloadProfile("noscript", 5, nullptr, 1),
                 FatalError);
    // Every phase is validated while the profile is built.
    EXPECT_THROW(WorkloadProfile("badphase", 5,
                                 [](std::size_t s) {
                                     PhaseSpec spec;
                                     spec.mlp = s == 3 ? 0.5 : 1.5;
                                     return spec;
                                 },
                                 1, /*jitter=*/0.0),
                 FatalError);
    // A footprint smaller than one 8-byte access leaves no word to draw
    // (uniformInt(0) would abort the first characterization): the
    // constructor rejects it, naming the field.
    for (const auto &[field, member] :
         {std::pair{"hotBytes", &PhaseSpec::hotBytes},
          std::pair{"warmBytes", &PhaseSpec::warmBytes},
          std::pair{"coldBytes", &PhaseSpec::coldBytes}}) {
        PhaseSpec spec = workloadByName("gobmk").phaseFor(0);
        spec.*member = 4;
        try {
            WorkloadProfile("subword", 2,
                            [spec](std::size_t) { return spec; }, 1,
                            /*jitter=*/0.0);
            ADD_FAILURE() << field << " of 4 bytes was accepted";
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find(field),
                      std::string::npos)
                << err.what();
        }
    }
}

} // namespace
} // namespace mcdvfs
