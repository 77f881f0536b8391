/**
 * @file
 * The paper's central metric: inefficiency I = E / Emin (§II).
 *
 * Emin is found by brute-force search over all settings — the first of
 * the paper's two proposed computation methods; the learning-based
 * predictor lives in src/runtime/.  Inefficiency is computed both per
 * sample (for budget-constrained tuning, §V-§VI) and for the whole run
 * at a fixed setting (Fig. 2).
 *
 * The per-sample Emin and slowest time have one copy, the grid's
 * (MeasuredGrid records them as each row is finished); this class
 * holds only the whole-run tables, built once on first use.
 */

#ifndef MCDVFS_CORE_INEFFICIENCY_HH
#define MCDVFS_CORE_INEFFICIENCY_HH

#include <limits>
#include <mutex>
#include <vector>

#include "sim/measured_grid.hh"

namespace mcdvfs
{

/** Budget value meaning "unconstrained" (the paper's infinity). */
inline constexpr double kUnboundedBudget =
    std::numeric_limits<double>::infinity();

/** Precomputed inefficiency tables over a measured grid. */
class InefficiencyAnalysis
{
  public:
    /**
     * Inefficiency and speedup over @c grid.  The per-sample Emin and
     * slowest time are the grid's own (recorded as its rows were
     * finished); the whole-run tables are built on first use.
     *
     * The grid must outlive this analysis.
     */
    explicit InefficiencyAnalysis(const MeasuredGrid &grid);

    /** A temporary grid would dangle — forbidden at compile time. */
    explicit InefficiencyAnalysis(MeasuredGrid &&) = delete;

    /** Per-sample inefficiency I_s(k) = E_s(k) / Emin_s. */
    double sampleInefficiency(std::size_t sample,
                              std::size_t setting) const;

    /**
     * Per-sample speedup: slowest execution of this sample over its
     * execution at @c setting (>= 1, paper §IV convention).
     */
    double sampleSpeedup(std::size_t sample, std::size_t setting) const;

    /** Brute-force per-sample Emin (MeasuredGrid::sampleEmin). */
    Joules
    sampleEmin(std::size_t sample) const
    {
        return grid_.sampleEmin(sample);
    }

    /** Slowest execution of a sample (MeasuredGrid::sampleSlowest). */
    Seconds
    sampleSlowest(std::size_t sample) const
    {
        return grid_.sampleSlowest(sample);
    }

    /** Whole-run inefficiency of a fixed setting (Fig. 2 y-axis). */
    double runInefficiency(std::size_t setting) const;

    /** Whole-run speedup of a fixed setting (Fig. 2 x-axis). */
    double runSpeedup(std::size_t setting) const;

    /** Whole-run brute-force Emin. */
    Joules eminTotal() const;

    /**
     * The workload's maximum achievable whole-run inefficiency Imax
     * (the paper observes 1.5-2 across its benchmarks).
     */
    double maxRunInefficiency() const;

    const MeasuredGrid &grid() const { return grid_; }

  private:
    /**
     * Build the whole-run tables on first use.  The per-setting
     * totalEnergy/totalTime sums are O(settings x samples) — an order
     * more work than everything else construction does — and only the
     * Fig. 2-style whole-run queries need them, so the per-sample
     * analysis chain (and the incremental analyzer's tail-range
     * construction) never pays for history it will not read.
     */
    void ensureRunAggregates() const;

    const MeasuredGrid &grid_;
    mutable std::once_flag runAggregatesOnce_;
    mutable std::vector<Joules> runEnergy_;
    mutable std::vector<Seconds> runTime_;
    mutable Joules eminTotal_ = 0.0;
    mutable Seconds slowestTotal_ = 0.0;
};

} // namespace mcdvfs

#endif // MCDVFS_CORE_INEFFICIENCY_HH
