/**
 * @file
 * The measured per-sample, per-setting performance/energy grid.
 *
 * A MeasuredGrid is the data product every analysis in the paper
 * consumes: for each sample s of a workload and each setting k of the
 * settings space, the sample's execution time and its CPU and memory
 * energy.  The paper's §III-C: "all our studies are performed using
 * measured performance and power data from the simulations" — the grid
 * is exactly that measured data.
 *
 * Storage is structure-of-arrays: one contiguous sample-major column
 * per measured quantity (seconds, cpuEnergy, memEnergy, busyFrac,
 * bwUtil, gpuEnergy), so the grid kernel writes and the analysis scans
 * stream sequential memory.  The const cell() accessor assembles one
 * cell's quantities as a value.
 *
 * A grid is written once.  Every writer fills each row through
 * fillRow() and finishes it with updateSampleAggregates(), which
 * records the row's Emin and slowest time; nothing changes a grid
 * after that.  Shared grids are shared_ptr<const MeasuredGrid>, and
 * every writer is non-const, so const is what keeps a shared grid
 * unchanged.  A row nobody finished reads Emin 0, which
 * InefficiencyAnalysis rejects.
 */

#ifndef MCDVFS_SIM_MEASURED_GRID_HH
#define MCDVFS_SIM_MEASURED_GRID_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/units.hh"
#include "dvfs/settings_space.hh"
#include "sim/sample_profile.hh"

namespace mcdvfs
{

/** Measured quantities of one (sample, setting) cell, as a value. */
struct GridCell
{
    Seconds seconds = 0.0;
    Joules cpuEnergy = 0.0;
    Joules memEnergy = 0.0;
    /** Fraction of the sample the core spent computing. */
    double busyFrac = 1.0;
    /** DRAM bandwidth utilization. */
    double bwUtil = 0.0;
    /** GPU-domain energy; 0 on two-domain grids. */
    Joules gpuEnergy = 0.0;

    /**
     * Total cell energy.  Association is fixed as (cpu + mem) + gpu
     * everywhere so two-domain grids (gpu == +0.0) keep their exact
     * historical bit patterns.
     */
    Joules energy() const { return (cpuEnergy + memEnergy) + gpuEnergy; }
};

/** Dense samples x settings grid with whole-run aggregates. */
class MeasuredGrid
{
  public:
    /**
     * Raw pointers into one sample's row of every column (the fill
     * API).  Rows are disjoint, so a fill kernel may write distinct
     * rows from several threads; it finishes each row with
     * updateSampleAggregates().
     */
    struct RowView
    {
        double *seconds = nullptr;
        double *cpuEnergy = nullptr;
        double *memEnergy = nullptr;
        double *busyFrac = nullptr;
        double *bwUtil = nullptr;
        double *gpuEnergy = nullptr;
    };

    /**
     * @param workload workload name
     * @param space settings space the grid covers
     * @param samples number of samples
     * @param instructions_per_sample modeled instructions per sample
     */
    MeasuredGrid(std::string workload, SettingsSpace space,
                 std::size_t samples, Count instructions_per_sample);

    const std::string &workload() const { return workload_; }
    const SettingsSpace &space() const { return space_; }
    std::size_t sampleCount() const { return samples_; }
    std::size_t settingCount() const { return settings_; }
    Count instructionsPerSample() const { return instructionsPerSample_; }
    Count totalInstructions() const;

    /** One cell's quantities as a value (bounds-checked in all builds). */
    GridCell cell(std::size_t sample, std::size_t setting) const;

    /** @name Hot-path column accessors.
     *
     * Direct reads of one SoA column.  Index arithmetic is checked
     * only in debug builds (MCDVFS_DEBUG_ASSERT) so release scans pay
     * no branch.
     */
    ///@{
    Seconds
    secondsAt(std::size_t sample, std::size_t setting) const
    {
        return seconds_[fastIndex(sample, setting)];
    }

    Joules
    cpuEnergyAt(std::size_t sample, std::size_t setting) const
    {
        return cpuEnergy_[fastIndex(sample, setting)];
    }

    Joules
    memEnergyAt(std::size_t sample, std::size_t setting) const
    {
        return memEnergy_[fastIndex(sample, setting)];
    }

    Joules
    gpuEnergyAt(std::size_t sample, std::size_t setting) const
    {
        return gpuEnergy_[fastIndex(sample, setting)];
    }

    /**
     * Total (CPU + memory + GPU) energy of one cell.  Association is
     * fixed as (cpu + mem) + gpu: the GPU column is all +0.0 on
     * two-domain grids, and x + 0.0 == x bit-for-bit for the positive
     * finite energies here, so two-domain analyses are unchanged.
     */
    Joules
    energyAt(std::size_t sample, std::size_t setting) const
    {
        const std::size_t i = fastIndex(sample, setting);
        return (cpuEnergy_[i] + memEnergy_[i]) + gpuEnergy_[i];
    }

    double
    busyFracAt(std::size_t sample, std::size_t setting) const
    {
        return busyFrac_[fastIndex(sample, setting)];
    }

    double
    bwUtilAt(std::size_t sample, std::size_t setting) const
    {
        return bwUtil_[fastIndex(sample, setting)];
    }

    /** @name Read-side row accessors.
     *
     * Pointer to one sample's contiguous settings row of a column, for
     * analysis kernels that stream a whole row (performance clusters,
     * stable regions).  Same debug-only bounds policy as the cell
     * accessors.
     */
    ///@{
    const double *
    secondsRow(std::size_t sample) const
    {
        return seconds_.data() + fastIndex(sample, 0);
    }

    const double *
    cpuEnergyRow(std::size_t sample) const
    {
        return cpuEnergy_.data() + fastIndex(sample, 0);
    }

    const double *
    memEnergyRow(std::size_t sample) const
    {
        return memEnergy_.data() + fastIndex(sample, 0);
    }

    const double *
    gpuEnergyRow(std::size_t sample) const
    {
        return gpuEnergy_.data() + fastIndex(sample, 0);
    }
    ///@}

    /** @name Fill API (the grid's one write path). */
    ///@{
    /** Pointers to one sample's contiguous row of every column. */
    RowView fillRow(std::size_t sample);

    /**
     * Finish one sample's row: record its Emin and slowest time (call
     * once the row is filled; safe to call concurrently for distinct
     * samples).
     */
    void updateSampleAggregates(std::size_t sample);
    ///@}

    /** Attach the characterization profiles (for CPI/MPKI reporting). */
    void setProfiles(std::vector<SampleProfile> profiles);

    /** Profile of one sample. */
    const SampleProfile &profile(std::size_t sample) const;

    /** True once profiles were attached. */
    bool hasProfiles() const { return !profiles_.empty(); }

    /** @name Per-sample aggregates (recorded as each row is finished). */
    ///@{
    /** Minimum energy of a sample over all settings (per-sample Emin). */
    Joules
    sampleEmin(std::size_t sample) const
    {
        MCDVFS_ASSERT(sample < samples_, "sample index out of range");
        return sampleEmin_[sample];
    }

    /** Slowest execution of a sample over all settings. */
    Seconds
    sampleSlowest(std::size_t sample) const
    {
        MCDVFS_ASSERT(sample < samples_, "sample index out of range");
        return sampleSlowest_[sample];
    }
    ///@}

    /** @name Whole-run aggregates (one fixed setting end to end). */
    ///@{
    Seconds totalTime(std::size_t setting) const;
    Joules totalEnergy(std::size_t setting) const;
    ///@}

    /**
     * Chained content digest of the first @c samples sample rows
     * (1 <= samples <= sampleCount()), over the analysis-relevant
     * columns (seconds, cpuEnergy, memEnergy, and gpuEnergy on
     * three-domain grids), seeded with SettingsSpace::fingerprint().
     * Chaining makes prefixes self-identifying: a grid whose first N
     * rows are bit-identical to another grid's first N rows yields the
     * same prefixDigest(N) regardless of either grid's total length —
     * this is the key of the incremental analysis checkpoints
     * (svc::CheckpointCache).  Digests are computed lazily once per
     * grid, under a lock (grids are shared across daemon batches).
     */
    std::uint64_t prefixDigest(std::size_t samples) const;

  private:
    std::size_t index(std::size_t sample, std::size_t setting) const;

    /** Unchecked-in-release flat index for the hot accessors. */
    std::size_t
    fastIndex(std::size_t sample, std::size_t setting) const
    {
        MCDVFS_DEBUG_ASSERT(sample < samples_, "sample index out of range");
        MCDVFS_DEBUG_ASSERT(setting < settings_,
                            "setting index out of range");
        return sample * settings_ + setting;
    }

    std::string workload_;
    SettingsSpace space_;
    std::size_t samples_;
    std::size_t settings_;
    Count instructionsPerSample_;

    /** @name SoA columns, sample-major ([sample * settings + setting]). */
    ///@{
    std::vector<double> seconds_;
    std::vector<double> cpuEnergy_;
    std::vector<double> memEnergy_;
    std::vector<double> busyFrac_;
    std::vector<double> bwUtil_;
    std::vector<double> gpuEnergy_;
    ///@}

    /** @name Per-sample aggregates (updateSampleAggregates). */
    ///@{
    std::vector<Joules> sampleEmin_;
    std::vector<Seconds> sampleSlowest_;
    ///@}

    /** @name Chained row-digest cache (prefixDigest). */
    ///@{
    /** Held behind a shared_ptr so the grid stays copyable/movable. */
    mutable std::shared_ptr<std::mutex> digestMutex_ =
        std::make_shared<std::mutex>();
    /** digests_[s] = chained digest through sample s. */
    mutable std::vector<std::uint64_t> rowDigests_;
    mutable std::size_t digestedRows_ = 0;
    ///@}

    std::vector<SampleProfile> profiles_;
};

} // namespace mcdvfs

#endif // MCDVFS_SIM_MEASURED_GRID_HH
