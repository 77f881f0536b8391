/**
 * @file
 * Unit tests for the policy-comparison harness.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/comparison.hh"
#include "test_grid.hh"

namespace mcdvfs
{
namespace
{

TEST(BaselineComparison, ProducesAllPolicies)
{
    BaselineComparison comparison(test::phasedGrid());
    const auto rows = comparison.compare(1.3, 0.03, 0.10);
    ASSERT_EQ(rows.size(), 6u);
    auto has = [&rows](const std::string &name) {
        return std::any_of(rows.begin(), rows.end(),
                           [&name](const PolicyComparisonRow &row) {
                               return row.policy == name;
                           });
    };
    EXPECT_TRUE(has("inefficiency-cluster"));
    EXPECT_TRUE(has("inefficiency-optimal"));
    EXPECT_TRUE(has("coscale-from-max"));
    EXPECT_TRUE(has("coscale-warm-start"));
    EXPECT_TRUE(has("rate-limiter"));
    EXPECT_TRUE(has("performance-governor"));
}

TEST(BaselineComparison, AllOutcomesPositive)
{
    BaselineComparison comparison(test::phasedGrid());
    for (const auto &row : comparison.compare(1.3, 0.03, 0.10)) {
        EXPECT_GT(row.time, 0.0) << row.policy;
        EXPECT_GT(row.energy, 0.0) << row.policy;
        EXPECT_GE(row.achievedInefficiency, 1.0) << row.policy;
        EXPECT_FALSE(row.note.empty()) << row.policy;
    }
}

TEST(BaselineComparison, InefficiencyPoliciesHonorBudget)
{
    BaselineComparison comparison(test::phasedGrid());
    const double budget = 1.3;
    for (const auto &row : comparison.compare(budget, 0.03, 0.10)) {
        if (row.policy.rfind("inefficiency", 0) == 0) {
            EXPECT_LE(row.achievedInefficiency, budget + 1e-9)
                << row.policy;
        }
    }
}

TEST(BaselineComparison, PerformanceGovernorIsFastest)
{
    BaselineComparison comparison(test::phasedGrid());
    const auto rows = comparison.compare(1.3, 0.03, 0.10);
    double perf_time = 0.0;
    for (const auto &row : rows) {
        if (row.policy == "performance-governor")
            perf_time = row.time;
    }
    for (const auto &row : rows)
        EXPECT_GE(row.time, perf_time - 1e-12) << row.policy;
}

} // namespace
} // namespace mcdvfs
