/**
 * @file
 * Tests of the decision journal filled by TuningLoop: per-sample
 * transition flags must agree exactly with core/TransitionAnalysis,
 * re-tune flags with the reported tuning-event counts, and attaching
 * a journal must not change any result.
 */

#include <gtest/gtest.h>

#include "core/transitions.hh"
#include "obs/journal.hh"
#include "repro/analyses.hh"
#include "runtime/tuning_loop.hh"
#include "test_grid.hh"

namespace mcdvfs
{
namespace
{

constexpr double kBudget = 1.3;
constexpr double kThreshold = 0.03;

struct JournaledLoop
{
    GridAnalyses a;
    TuningLoop loop;
    obs::DecisionJournal journal;

    explicit JournaledLoop(const MeasuredGrid &grid)
        : a(grid), loop(a.clusters, a.regions, a.costModel)
    {
        loop.setJournal(&journal);
    }
};

TEST(DecisionJournal, OracleTransitionsMatchTransitionAnalysis)
{
    JournaledLoop j(test::phasedGrid());
    const TuningLoopResult result =
        j.loop.runOracle(kBudget, kThreshold);

    // The oracle follows the stable regions, i.e. exactly the cluster
    // policy's setting sequence, so the journal must agree with
    // TransitionAnalysis both in total and sample by sample.
    const TransitionReport report =
        j.a.transitions.forClusterPolicy(kBudget, kThreshold);
    EXPECT_EQ(j.journal.transitionCount(), report.transitions);
    EXPECT_EQ(result.transitions, report.transitions);

    const std::vector<std::size_t> sequence =
        j.a.transitions.clusterSettingSequence(kBudget, kThreshold);
    const auto &records = j.journal.records();
    ASSERT_EQ(records.size(), sequence.size());
    for (std::size_t s = 0; s < sequence.size(); ++s) {
        const bool expect_transition =
            s > 0 && sequence[s] != sequence[s - 1];
        EXPECT_EQ(records[s].transition, expect_transition)
            << "sample " << s;
        EXPECT_EQ(records[s].sample, s);
        EXPECT_EQ(records[s].policy, "oracle");
    }
}

TEST(DecisionJournal, RetuneFlagsMatchReportedTuningEvents)
{
    const MeasuredGrid &grid = test::phasedGrid();
    for (int schedule = 0; schedule < 4; ++schedule) {
        JournaledLoop j(grid);
        TuningLoopResult result;
        switch (schedule) {
          case 0:
            result = j.loop.runOracle(kBudget, kThreshold);
            break;
          case 1:
            result = j.loop.runEverySample(kBudget, kThreshold);
            break;
          case 2:
            result = j.loop.runPredictive(kBudget, kThreshold);
            break;
          default:
            result = j.loop.runReactive(kBudget, kThreshold);
            break;
        }
        EXPECT_EQ(j.journal.retuneCount(), result.tuningEvents)
            << result.policy;
        EXPECT_EQ(j.journal.transitionCount(), result.transitions)
            << result.policy;
        EXPECT_EQ(j.journal.records().size(), grid.sampleCount())
            << result.policy;
    }
}

TEST(DecisionJournal, EverySampleRetunesAtEveryBoundary)
{
    JournaledLoop j(test::phasedGrid());
    j.loop.runEverySample(kBudget, kThreshold);
    EXPECT_EQ(j.journal.retuneCount(),
              test::phasedGrid().sampleCount());
    for (const obs::DecisionRecord &record : j.journal.records()) {
        EXPECT_TRUE(record.retuned);
        EXPECT_EQ(record.policy, "every-sample");
    }
}

TEST(DecisionJournal, AttachingAJournalDoesNotChangeResults)
{
    const MeasuredGrid &grid = test::phasedGrid();
    GridAnalyses a(grid);
    TuningLoop bare(a.clusters, a.regions, a.costModel);
    const TuningLoopResult without =
        bare.runPredictive(kBudget, kThreshold);

    JournaledLoop j(grid);
    const TuningLoopResult with =
        j.loop.runPredictive(kBudget, kThreshold);

    EXPECT_EQ(with.policy, without.policy);
    EXPECT_EQ(with.time, without.time);
    EXPECT_EQ(with.energy, without.energy);
    EXPECT_EQ(with.timeWithOverhead, without.timeWithOverhead);
    EXPECT_EQ(with.energyWithOverhead, without.energyWithOverhead);
    EXPECT_EQ(with.tuningEvents, without.tuningEvents);
    EXPECT_EQ(with.transitions, without.transitions);
    EXPECT_EQ(with.achievedInefficiency, without.achievedInefficiency);
    EXPECT_EQ(with.budgetViolationFrac, without.budgetViolationFrac);
}

TEST(DecisionJournal, RecordsCarryDecisionContext)
{
    JournaledLoop j(test::phasedGrid());
    j.loop.runOracle(kBudget, kThreshold);

    std::uint64_t last_overhead_ns = 0;
    for (const obs::DecisionRecord &record : j.journal.records()) {
        EXPECT_EQ(record.workload, "phased");
        EXPECT_EQ(record.budget, kBudget);
        EXPECT_GT(record.cpuMhz, 0.0);
        EXPECT_GT(record.memMhz, 0.0);
        EXPECT_GT(record.inefficiency, 0.0);
        EXPECT_GT(record.cpi, 0.0);
        // Cumulative overhead never decreases along the run.
        EXPECT_GE(record.overheadNs, last_overhead_ns);
        last_overhead_ns = record.overheadNs;
        // Oracle re-tunes exactly at stable-region starts, which by
        // construction lie inside a region.
        if (record.retuned) {
            EXPECT_GE(record.region, 0);
        }
    }
}

} // namespace
} // namespace mcdvfs
