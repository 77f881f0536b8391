/**
 * @file
 * SPEC CPU2006-like workload profiles.
 *
 * SPEC itself is not redistributable, so each benchmark the paper
 * evaluates is modelled as a deterministic phase script whose CPI/MPKI
 * evolution matches the published characterization of that benchmark
 * (see DESIGN.md, substitutions).  A WorkloadProfile maps each
 * 10 M-instruction sample index to a PhaseSpec, with small
 * deterministic per-sample jitter layered on top.
 */

#ifndef MCDVFS_TRACE_WORKLOADS_HH
#define MCDVFS_TRACE_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hh"
#include "trace/phase.hh"

namespace mcdvfs
{

/**
 * A benchmark as a sequence of per-sample phase specifications.
 *
 * Immutable after construction: the constructor runs the phase script
 * once per sample, applies the jitter, validates every phase and
 * derives every trace seed and the content fingerprint, all into one
 * shared block.  Copies share that block (a copy is a reference-count
 * increment), and reads never re-run the script.
 */
class WorkloadProfile
{
  public:
    /** Script mapping a sample index to its (pre-jitter) phase. */
    using Script = std::function<PhaseSpec(std::size_t)>;

    /** How per-sample trace seeds are derived. */
    enum class SeedMode
    {
        /**
         * Every sample gets a distinct stream seed derived from the
         * workload seed and the sample index (the historical default;
         * all golden grids were built this way).
         */
        PerSample,
        /**
         * The stream seed is the content fingerprint of the sample's
         * post-jitter phase: samples repeating the same phase — within
         * this workload or across workloads — share a seed, so their
         * characterizations are byte-identical and memoizable
         * (sim::ProfileCache).  Per-sample jitter still draws from the
         * PerSample stream, so jittered phases stay distinct.
         */
        PerPhase,
    };

    /**
     * @param name benchmark name (e.g. "gobmk")
     * @param sample_count number of samples in the run
     * @param script per-sample phase script, called exactly once per
     *        sample, in sample order, before the constructor returns
     * @param seed workload-level RNG seed
     * @param jitter relative magnitude of per-sample jitter (0 = none)
     * @param seed_mode trace-seed derivation (see SeedMode)
     * @throws FatalError for zero samples, a missing script or a phase
     *         that fails PhaseSpec::validate()
     */
    WorkloadProfile(std::string name, std::size_t sample_count,
                    const Script &script, std::uint64_t seed,
                    double jitter = 0.02,
                    SeedMode seed_mode = SeedMode::PerSample);

    /** Benchmark name. */
    const std::string &name() const { return data_->name; }

    /** Number of samples in the run. */
    std::size_t sampleCount() const { return data_->phases.size(); }

    /**
     * Instructions each sample represents in the paper's units.  Plots
     * and normalizations use this count (the paper's samples are 10 M
     * user-mode instructions).
     */
    Count modeledInstructionsPerSample() const { return kModeledPerSample; }

    /** Total modeled instructions over the whole run. */
    Count totalModeledInstructions() const;

    /**
     * Phase for one sample, with deterministic jitter applied.  The
     * reference stays valid as long as any copy of this profile lives.
     *
     * @throws FatalError when @c sample is out of range.
     */
    const PhaseSpec &phaseFor(std::size_t sample) const;

    /**
     * Deterministic seed for the trace of one sample (per seedMode).
     *
     * @throws FatalError when @c sample is out of range.
     */
    std::uint64_t traceSeedFor(std::size_t sample) const;

    /** Trace-seed derivation mode. */
    SeedMode seedMode() const { return data_->seedMode; }

    /**
     * Content hash of the workload: name, sample count, modeled
     * instructions per sample, and every sample's post-jitter phase
     * (PhaseSpec::fingerprint, chained) and trace seed.  Covers the
     * script and the workload-level RNG seed without retaining either;
     * two independently built profiles with equal content hash equal.
     * This is the workload word of svc::GridKey.
     */
    std::uint64_t fingerprint() const { return data_->fingerprint; }

  private:
    static constexpr Count kModeledPerSample = 10'000'000;

    /** Everything a profile is, built once by the constructor. */
    struct Data
    {
        std::string name;
        SeedMode seedMode = SeedMode::PerSample;
        /** Post-jitter, validated phase of every sample. */
        std::vector<PhaseSpec> phases;
        /** Trace seed of every sample. */
        std::vector<std::uint64_t> traceSeeds;
        std::uint64_t fingerprint = 0;
    };

    /** FatalError unless @c sample indexes a sample. */
    void checkSample(std::size_t sample) const;

    std::shared_ptr<const Data> data_;
};

/** @name Profiles for the paper's six reported benchmarks. */
///@{
WorkloadProfile makeBzip2();
WorkloadProfile makeGcc();
WorkloadProfile makeGobmk();
WorkloadProfile makeLbm();
WorkloadProfile makeLibquantum();
WorkloadProfile makeMilc();
///@}

/**
 * @name Additional SPEC-like profiles.
 * The paper simulated 12 integer and 9 floating-point benchmarks
 * (§III-C) but plots six; these extend the library toward that wider
 * set with distinct published behaviours.
 */
///@{
WorkloadProfile makeMcf();        ///< INT, pointer-chasing, memory bound
WorkloadProfile makeHmmer();      ///< INT, regular, strongly CPU bound
WorkloadProfile makeSjeng();      ///< INT, branchy search, gobmk-like
WorkloadProfile makeOmnetpp();    ///< INT, irregular heap traversal
WorkloadProfile makeNamd();       ///< FP, compute dense, CPU bound
WorkloadProfile makeSoplex();     ///< FP, long memory/compute phases
///@}

/**
 * GPU-offload workload for the three-domain (CPU x mem x GPU) spaces:
 * render-loop phases that alternate GPU-bound frame submission with
 * CPU-bound scene preparation, exercising the trace generator's GPU
 * kick channel.  On a two-domain space the kicks cost nothing and the
 * workload degenerates to a light CPU phase.
 */
WorkloadProfile makeGlrender();

/** The six benchmarks the paper reports, in its order. */
std::vector<WorkloadProfile> standardWorkloads();

/** The full twelve-benchmark set (standard + additional). */
std::vector<WorkloadProfile> extendedWorkloads();

/**
 * Look up any workload (standard or extended) by name.
 * @throws FatalError for unknown names.
 */
WorkloadProfile workloadByName(const std::string &name);

} // namespace mcdvfs

#endif // MCDVFS_TRACE_WORKLOADS_HH
