/**
 * @file
 * Phase specifications for synthetic workloads.
 *
 * A PhaseSpec describes the behaviour of a workload over one or more
 * 10 M-instruction samples: the instruction mix, a three-tier memory
 * footprint (hot set sized to live in L1, warm set sized to live in L2,
 * cold set exceeding L2), the spatial pattern of cold accesses, the
 * memory-level parallelism and the switching activity.  The SPEC-like
 * profiles in workloads.cc are built from these.
 */

#ifndef MCDVFS_TRACE_PHASE_HH
#define MCDVFS_TRACE_PHASE_HH

#include <cstdint>
#include <string>

namespace mcdvfs
{

/** Behavioural parameters of one workload phase. */
struct PhaseSpec
{
    /**
     * Bytes per synthetic memory reference (one word); every footprint
     * tier must hold at least one.
     */
    static constexpr std::uint64_t kAccessBytes = 8;

    /** Phase label (for traces and debugging). */
    std::string name = "default";

    /** @name Instruction mix (fractions of dynamic instructions). */
    ///@{
    double loadFrac = 0.22;    ///< loads
    double storeFrac = 0.10;   ///< stores
    double branchFrac = 0.15;  ///< branches
    double fpFrac = 0.0;       ///< floating-point ops
    double mulFrac = 0.02;     ///< integer multiplies
    ///@}

    /**
     * Core cycles per instruction excluding all cache/memory stalls
     * (captures issue width, dependencies, branch penalties).
     */
    double baseCpi = 0.9;

    /** @name Memory footprint tiers. */
    ///@{
    double hotFrac = 0.90;   ///< accesses hitting the hot (L1-sized) set
    double warmFrac = 0.08;  ///< accesses to the warm (L2-sized) set
    // The cold fraction is the remainder: 1 - hotFrac - warmFrac.
    std::uint64_t hotBytes = 24 * 1024;        ///< hot set size
    std::uint64_t warmBytes = 768 * 1024;      ///< warm set size
    std::uint64_t coldBytes = 48ull << 20;     ///< cold set size
    ///@}

    /**
     * Fraction of cold-set accesses that stream sequentially (row-buffer
     * friendly); the rest are uniform random in the cold set.
     */
    double coldSeqFrac = 0.5;

    /**
     * Average number of outstanding DRAM misses a phase can sustain
     * (1 = fully serialized pointer chasing, >1 = overlapping misses).
     */
    double mlp = 1.5;

    /** Dynamic-power activity factor in [0, 1] relative to peak. */
    double activity = 0.7;

    /** @name GPU offload channel (0 everywhere = CPU-only phase). */
    ///@{
    /**
     * Fraction of dynamic instructions that are GPU kick commands
     * (asynchronous offload submissions); part of the instruction mix
     * sum alongside loads/stores/branches/fp/mul.
     */
    double gpuKickFrac = 0.0;
    /** GPU cycles of work each kick enqueues. */
    double gpuCyclesPerKick = 0.0;
    /** GPU dynamic-power activity factor in [0, 1] while busy. */
    double gpuActivity = 0.0;
    ///@}

    /** Cold fraction implied by the tier fractions. */
    double coldFrac() const { return 1.0 - hotFrac - warmFrac; }

    /** Total fraction of memory instructions. */
    double memFrac() const { return loadFrac + storeFrac; }

    /**
     * Validate internal consistency.
     * @throws FatalError when fractions are out of range.
     */
    void validate() const;

    /**
     * Linear interpolation between two phases (for gradual phase
     * drift); @c t in [0,1], 0 yields @c *this.
     */
    PhaseSpec lerp(const PhaseSpec &other, double t) const;

    /**
     * FNV-1a content hash over every field (doubles by bit pattern,
     * with -0.0 normalized to +0.0).  Two specs with equal fingerprints
     * generate identical traces for a given seed, so the fingerprint is
     * a valid characterization-memoization key component; it also seeds
     * phase-keyed trace streams (WorkloadProfile::SeedMode::PerPhase).
     *
     * @param seed chaining basis, FNV offset basis by default
     */
    std::uint64_t fingerprint(
        std::uint64_t seed = 0xcbf29ce484222325ull) const;
};

} // namespace mcdvfs

#endif // MCDVFS_TRACE_PHASE_HH
