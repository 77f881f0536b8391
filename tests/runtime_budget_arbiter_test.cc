/**
 * @file
 * BudgetArbiter tests: cap-table validation (including priority
 * inversions), floor-wise row matching, and two randomized invariants
 * — every decision respects the active caps, and with an
 * unconstrained budget the arbiter's decision stream is bit-identical
 * to the plain InefficiencyGovernor's.
 */

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "runtime/budget_arbiter.hh"
#include "runtime/inefficiency_governor.hh"
#include "test_grid.hh"

namespace mcdvfs
{
namespace
{

using runtime::BudgetArbiter;
using runtime::CapRow;
using runtime::DomainCaps;
using runtime::Priority;

struct Chain
{
    InefficiencyAnalysis analysis;
    OptimalSettingsFinder finder;
    ClusterFinder clusters;

    explicit Chain(const MeasuredGrid &grid)
        : analysis(grid), finder(analysis), clusters(finder)
    {
    }
};

/** phasedWorkload over the 560-setting CPU x mem x GPU space. */
const MeasuredGrid &
gpuGrid()
{
    static const MeasuredGrid grid = [] {
        GridRunner runner(test::fastSystemConfig());
        return runner.run(test::phasedWorkload(),
                          SettingsSpace::coarse3());
    }();
    return grid;
}

std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

void
expectSettingsBitEqual(const FrequencySetting &a,
                       const FrequencySetting &b)
{
    EXPECT_EQ(bitsOf(a.cpu), bitsOf(b.cpu));
    EXPECT_EQ(bitsOf(a.mem), bitsOf(b.mem));
    EXPECT_EQ(bitsOf(a.gpu), bitsOf(b.gpu));
}

bool
admits(const DomainCaps &caps, const FrequencySetting &setting,
       bool has_gpu)
{
    return setting.cpu <= caps.cpu && setting.mem <= caps.mem &&
           (!has_gpu || setting.gpu <= caps.gpu);
}

/** A simple legal two-row table over the coarse3 ladders. */
std::vector<CapRow>
twoRowTable()
{
    // Row 0 (tight): cpu-priority keeps the CPU at 600 MHz and caps
    // the GPU at 300; gpu-priority the reverse shape.
    CapRow tight;
    tight.budget = 2.0;
    tight.cpuPriority = {megaHertz(600), megaHertz(500), megaHertz(300)};
    tight.gpuPriority = {megaHertz(300), megaHertz(500), megaHertz(600)};
    // Row 1 (roomy): everything admitted.
    CapRow roomy;
    roomy.budget = 6.0;
    roomy.cpuPriority = {megaHertz(1000), megaHertz(800), megaHertz(900)};
    roomy.gpuPriority = {megaHertz(1000), megaHertz(800), megaHertz(900)};
    return {tight, roomy};
}

/**
 * Random cap table satisfying every constructor invariant: ascending
 * budgets, caps drawn from the ladders (so the minimum setting is
 * always admitted), monotone across rows, and no priority inversion.
 */
std::vector<CapRow>
randomTable(Rng &rng, const SettingsSpace &space, std::size_t rows)
{
    const auto ladder_caps = [&](const FrequencyLadder &ladder) {
        // Non-decreasing random ladder indices, one per row.
        std::vector<std::size_t> idx(rows);
        for (std::size_t r = 0; r < rows; ++r)
            idx[r] = rng.uniformInt(ladder.size());
        std::sort(idx.begin(), idx.end());
        std::vector<Hertz> caps(rows);
        for (std::size_t r = 0; r < rows; ++r)
            caps[r] = ladder.at(idx[r]);
        return caps;
    };

    const std::vector<Hertz> cpu_a = ladder_caps(space.cpuLadder());
    const std::vector<Hertz> cpu_b = ladder_caps(space.cpuLadder());
    const std::vector<Hertz> mem_a = ladder_caps(space.memLadder());
    const std::vector<Hertz> mem_b = ladder_caps(space.memLadder());
    const std::vector<Hertz> gpu_a = ladder_caps(space.gpuLadder());
    const std::vector<Hertz> gpu_b = ladder_caps(space.gpuLadder());

    std::vector<CapRow> table(rows);
    double budget = 0.5 + rng.uniform();
    for (std::size_t r = 0; r < rows; ++r) {
        CapRow &row = table[r];
        row.budget = budget;
        budget += 0.5 + 2.0 * rng.uniform();
        // The cpu-priority variant takes the faster CPU cap and the
        // slower GPU cap of each pair (and vice versa), which rules
        // out inversions while keeping per-domain monotonicity (max
        // and min of non-decreasing sequences are non-decreasing).
        row.cpuPriority.cpu = std::max(cpu_a[r], cpu_b[r]);
        row.gpuPriority.cpu = std::min(cpu_a[r], cpu_b[r]);
        row.cpuPriority.gpu = std::min(gpu_a[r], gpu_b[r]);
        row.gpuPriority.gpu = std::max(gpu_a[r], gpu_b[r]);
        row.cpuPriority.mem = mem_a[r];
        row.gpuPriority.mem = mem_b[r];
    }
    return table;
}

TEST(BudgetArbiter, ValidatesBudgetAndThreshold)
{
    Chain chain(gpuGrid());
    EXPECT_THROW(BudgetArbiter(chain.clusters, 0.5, 0.03, {}),
                 FatalError);
    EXPECT_THROW(BudgetArbiter(chain.clusters, 1.3, -0.01, {}),
                 FatalError);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(BudgetArbiter(chain.clusters, nan, 0.03, {}), FatalError);
    EXPECT_THROW(BudgetArbiter(chain.clusters, 1.3, nan, {}), FatalError);
}

TEST(BudgetArbiter, RejectsMalformedTables)
{
    Chain chain(gpuGrid());

    // Non-ascending budgets.
    std::vector<CapRow> unsorted = twoRowTable();
    std::swap(unsorted[0].budget, unsorted[1].budget);
    EXPECT_THROW(BudgetArbiter(chain.clusters, 1.3, 0.03, unsorted),
                 FatalError);

    // Caps below the minimum setting leave the arbiter no choice.
    std::vector<CapRow> starved = twoRowTable();
    starved[0].cpuPriority.cpu = megaHertz(50);
    EXPECT_THROW(BudgetArbiter(chain.clusters, 1.3, 0.03, starved),
                 FatalError);

    // Priority inversion: the cpu-priority variant caps the CPU below
    // its gpu-priority sibling.
    std::vector<CapRow> inverted = twoRowTable();
    std::swap(inverted[0].cpuPriority.cpu, inverted[0].gpuPriority.cpu);
    EXPECT_THROW(BudgetArbiter(chain.clusters, 1.3, 0.03, inverted),
                 FatalError);

    // Caps tightening as the budget grows.
    std::vector<CapRow> tightening = twoRowTable();
    tightening[1].cpuPriority.mem = megaHertz(200);
    EXPECT_THROW(BudgetArbiter(chain.clusters, 1.3, 0.03, tightening),
                 FatalError);

    // Non-finite row budget / NaN system budget.
    std::vector<CapRow> bad_budget = twoRowTable();
    bad_budget[0].budget = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(BudgetArbiter(chain.clusters, 1.3, 0.03, bad_budget),
                 FatalError);
    BudgetArbiter arbiter(chain.clusters, 1.3, 0.03, twoRowTable());
    EXPECT_THROW(arbiter.setSystemBudget(
                     std::numeric_limits<double>::quiet_NaN()),
                 FatalError);
}

TEST(BudgetArbiter, MatchesRowsFloorWise)
{
    Chain chain(gpuGrid());
    BudgetArbiter arbiter(chain.clusters, 1.3, 0.03, twoRowTable());

    // Default budget is unconstrained: the top row is in force.
    EXPECT_EQ(arbiter.systemBudget(), BudgetArbiter::kUnconstrainedBudget);
    EXPECT_EQ(bitsOf(arbiter.activeCaps().cpu), bitsOf(megaHertz(1000)));

    // Below the first row, the first (most restrictive) row applies.
    arbiter.setSystemBudget(0.5);
    EXPECT_EQ(bitsOf(arbiter.activeCaps().cpu), bitsOf(megaHertz(600)));

    // Between rows, the floor row applies.
    arbiter.setSystemBudget(4.0);
    EXPECT_EQ(bitsOf(arbiter.activeCaps().cpu), bitsOf(megaHertz(600)));
    arbiter.setSystemBudget(6.0);
    EXPECT_EQ(bitsOf(arbiter.activeCaps().cpu), bitsOf(megaHertz(1000)));
}

TEST(BudgetArbiter, PrioritySelectsTheCapVariant)
{
    Chain chain(gpuGrid());
    BudgetArbiter arbiter(chain.clusters, 1.3, 0.03, twoRowTable(),
                          Priority::Cpu);
    arbiter.setSystemBudget(2.0);
    EXPECT_EQ(bitsOf(arbiter.activeCaps().cpu), bitsOf(megaHertz(600)));
    EXPECT_EQ(bitsOf(arbiter.activeCaps().gpu), bitsOf(megaHertz(300)));

    arbiter.setPriority(Priority::Gpu);
    EXPECT_EQ(arbiter.priority(), Priority::Gpu);
    EXPECT_EQ(bitsOf(arbiter.activeCaps().cpu), bitsOf(megaHertz(300)));
    EXPECT_EQ(bitsOf(arbiter.activeCaps().gpu), bitsOf(megaHertz(600)));

    // The allowed mask shrank relative to the unconstrained space.
    EXPECT_LT(arbiter.allowedMask().count(), gpuGrid().settingCount());
    EXPECT_TRUE(arbiter.allowedMask().any());
}

TEST(BudgetArbiter, EveryDecisionRespectsTheActiveCaps)
{
    // Randomized invariant: over random legal tables, random budget
    // swings and priority flips, every chosen setting is admitted by
    // the caps in force at decision time.
    const MeasuredGrid &grid = gpuGrid();
    const SettingsSpace &space = grid.space();
    Chain chain(grid);

    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Rng rng(0xA4B1 + seed * 977);
        const std::vector<CapRow> table =
            randomTable(rng, space, 1 + rng.uniformInt(4));
        const double max_budget = table.back().budget;
        BudgetArbiter arbiter(chain.clusters, 1.3, 0.03, table,
                              rng.chance(0.5) ? Priority::Cpu
                                              : Priority::Gpu);

        FrequencySetting chosen = arbiter.decide(nullptr);
        EXPECT_TRUE(admits(arbiter.activeCaps(), chosen, true));

        std::size_t null_decides = 1;
        for (int step = 0; step < 60; ++step) {
            if (rng.chance(0.3)) {
                arbiter.setSystemBudget(rng.uniform() *
                                        (max_budget * 1.5));
            }
            if (rng.chance(0.15)) {
                arbiter.setPriority(rng.chance(0.5) ? Priority::Cpu
                                                    : Priority::Gpu);
            }
            SampleObservation obs;
            obs.sampleIndex = rng.uniformInt(grid.sampleCount());
            chosen = arbiter.decide(&obs);

            const DomainCaps caps = arbiter.activeCaps();
            ASSERT_TRUE(admits(caps, chosen, true))
                << "seed " << seed << " step " << step << ": chose "
                << chosen.cpu << "/" << chosen.mem << "/" << chosen.gpu
                << " under caps " << caps.cpu << "/" << caps.mem << "/"
                << caps.gpu;
            // The choice is a real member of the space.
            EXPECT_LT(space.indexOf(chosen), space.size());
        }
        EXPECT_EQ(arbiter.decisions(),
                  arbiter.keptSetting() + arbiter.retuned() +
                      arbiter.capped() + null_decides);
    }
}

TEST(BudgetArbiter, UnconstrainedMatchesInefficiencyGovernor)
{
    // The cap layer is pure filtering: with no table (or a roomy top
    // row in force) the decision stream must be bit-identical to the
    // plain governor's, kept/retuned counters included.
    for (const MeasuredGrid *grid :
         {&test::phasedGrid(), &gpuGrid()}) {
        Chain chain(*grid);
        InefficiencyGovernor governor(chain.clusters, 1.2, 0.03);
        BudgetArbiter bare(chain.clusters, 1.2, 0.03, {});
        BudgetArbiter roomy(chain.clusters, 1.2, 0.03, twoRowTable());

        expectSettingsBitEqual(governor.decide(nullptr),
                               bare.decide(nullptr));
        expectSettingsBitEqual(governor.decide(nullptr),
                               roomy.decide(nullptr));

        Rng rng(0xFEED);
        for (int step = 0; step < 50; ++step) {
            SampleObservation obs;
            obs.sampleIndex = rng.uniformInt(grid->sampleCount());
            const FrequencySetting expected = governor.decide(&obs);
            expectSettingsBitEqual(expected, bare.decide(&obs));
            expectSettingsBitEqual(expected, roomy.decide(&obs));
        }
        EXPECT_EQ(bare.keptSetting(), governor.keptSetting());
        EXPECT_EQ(bare.retuned(), governor.retuned());
        EXPECT_EQ(bare.capped(), 0u);
        EXPECT_EQ(roomy.keptSetting(), governor.keptSetting());
        EXPECT_EQ(roomy.retuned(), governor.retuned());
        EXPECT_EQ(roomy.capped(), 0u);
    }
}

TEST(BudgetArbiter, CapsVetoingTheOptimumCountAsCapped)
{
    const MeasuredGrid &grid = gpuGrid();
    Chain chain(grid);
    BudgetArbiter arbiter(chain.clusters, 1.3, 0.03, twoRowTable());
    arbiter.setSystemBudget(0.0);  // tight row in force

    arbiter.decide(nullptr);
    for (std::size_t s = 0; s < grid.sampleCount(); ++s) {
        SampleObservation obs;
        obs.sampleIndex = s;
        const FrequencySetting chosen = arbiter.decide(&obs);
        EXPECT_TRUE(admits(arbiter.activeCaps(), chosen, true));
    }
    // The tight caps exclude the unconstrained optimum (the cluster
    // policy at these budgets tunes near the top of the ladders), so
    // at least one decision had to take the capped fallback.
    EXPECT_GE(arbiter.capped(), 1u);
    EXPECT_EQ(arbiter.name(), "budget-arbiter");
}

} // namespace
} // namespace mcdvfs
