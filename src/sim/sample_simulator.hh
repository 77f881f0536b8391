/**
 * @file
 * Trace-driven characterization of a workload's samples.
 *
 * For every sample of a WorkloadProfile, the simulator generates the
 * sample's deterministic instruction stream, pushes each memory
 * reference through the L1/L2 hierarchy, classifies resulting DRAM
 * transactions against the open-page bank model, and records the
 * frequency-independent rates in a SampleProfile.  Cache and DRAM bank
 * state persist across samples (warm), only the counters reset, as in
 * the paper's continuous gem5 runs.
 *
 * One loop (simulate()) serves every source, warm-ups included: it
 * takes a chunk's memory references and GPU-kick count from
 * TraceSource::nextMemoryRefs(), then runs the hierarchy and the banks
 * over the chunk.  The generator skips non-memory instructions without
 * decoding them, and a recorded trace replays through next().
 */

#ifndef MCDVFS_SIM_SAMPLE_SIMULATOR_HH
#define MCDVFS_SIM_SAMPLE_SIMULATOR_HH

#include <vector>

#include "common/units.hh"
#include "mem/cache_hierarchy.hh"
#include "mem/dram.hh"
#include "sim/sample_profile.hh"
#include "trace/trace_source.hh"
#include "trace/workloads.hh"

namespace mcdvfs
{

/** Characterization parameters. */
struct SampleSimulatorConfig
{
    /**
     * Dynamic instructions actually simulated per sample.  Each sample
     * *represents* 10 M instructions (the paper's window); simulating
     * a deterministic subset of this length and recording rates gives
     * the same per-instruction statistics at a fraction of the cost.
     */
    Count simInstructionsPerSample = 50'000;

    /**
     * Unrecorded instructions executed before sample 0 (cycling
     * through the workload's first phases) so caches and row buffers
     * reach steady state, as in the paper's post-boot measurements.
     */
    Count warmupInstructions = 4'000'000;

    /**
     * Warmup executed per *canonical* (memoized) characterization:
     * when a ProfileCache is attached, every cache miss resets the
     * hierarchy and row buffers, replays this many unrecorded
     * instructions of the missing phase, then measures.  The profile
     * becomes a pure function of (phase, seed, instructions, sampler
     * config) — cacheable across workloads and build orders — at the
     * price of a per-unique-phase rather than per-workload warmup.
     * Ignored when no cache is attached.
     */
    Count profileWarmupInstructions = 200'000;

    HierarchyConfig hierarchy = HierarchyConfig::paperDefault();
    DramConfig dram{};

    /**
     * Content fingerprint of everything that shapes a canonical
     * characterization besides the phase/seed/instruction-count triple
     * (cache geometry, prefetcher, DRAM organization, canonical
     * warmup).  Part of every ProfileKey.
     */
    std::uint64_t profileFingerprint() const;
};

class ProfileCache;

/** Runs the characterization pass over a workload. */
class SampleSimulator
{
  public:
    /** Cache traffic of the most recent characterize() call. */
    struct CharacterizeStats
    {
        std::uint64_t cacheHits = 0;
        std::uint64_t cacheMisses = 0;
    };

    /**
     * Instructions the simulator loop asks its source for at a time;
     * a chunk's memory references (at most 32 KiB) stay in the host's
     * caches between the source writing them and the hierarchy
     * reading them.
     */
    static constexpr Count kChunkInstructions = 2048;

    /** @throws FatalError on invalid configuration. */
    explicit SampleSimulator(const SampleSimulatorConfig &config = {});

    /**
     * Attach a memoization cache (nullptr detaches; not owned, must
     * outlive the simulator).  With a cache attached characterize()
     * switches to canonical per-sample characterization: results are
     * pure functions of each sample's (phase, seed, instructions,
     * config) key rather than of the warm state the preceding samples
     * left behind, so they differ from the detached (historical) mode
     * but are identical for every repeated phase.
     */
    void setProfileCache(ProfileCache *cache) { cache_ = cache; }

    /**
     * Characterize every sample of @c workload.
     *
     * @return one SampleProfile per sample, in order.
     */
    std::vector<SampleProfile> characterize(
        const WorkloadProfile &workload);

    /** Characterize a single phase/seed pair (used by unit tests). */
    SampleProfile characterizeOne(const PhaseSpec &spec,
                                  std::uint64_t seed, Count instructions);

    /**
     * Characterize an arbitrary instruction source (e.g. a recorded
     * real-application trace).  The caller supplies the attributes a
     * raw address trace cannot express (base CPI, activity, MLP) via
     * @c meta; caches and bank state are reset first.
     */
    SampleProfile characterizeTrace(TraceSource &source,
                                    Count instructions,
                                    const PhaseSpec &meta);

    const SampleSimulatorConfig &config() const { return config_; }

    /** Cache traffic of the most recent characterize() call. */
    const CharacterizeStats &lastCharacterizeStats() const
    {
        return lastStats_;
    }

  private:
    /** Run @c instructions of @c spec through the warm hierarchy. */
    SampleProfile runSample(const PhaseSpec &spec, std::uint64_t seed,
                            Count instructions);

    /**
     * Reset, run the canonical warmup for @c spec, then measure: the
     * result depends only on the arguments and the sampler config.
     */
    SampleProfile characterizeCanonical(const PhaseSpec &spec,
                                        std::uint64_t seed,
                                        Count instructions);

    /** Historical warm-state characterization (cache detached). */
    std::vector<SampleProfile> characterizeSequential(
        const WorkloadProfile &workload);

    /** What one run of the simulator loop counted. */
    struct RunCounts
    {
        Count dramReads = 0;
        Count dramWrites = 0;
        Count dramPrefetch = 0;
        Count gpuKicks = 0;
    };

    /**
     * The one simulator loop: clear the counters, then push the next
     * @c instructions of @c source through the hierarchy and the DRAM
     * banks, kChunkInstructions at a time.
     */
    RunCounts simulate(TraceSource &source, Count instructions);

    /** simulate(), then the rates it measured as a SampleProfile. */
    SampleProfile profileFromSource(TraceSource &source,
                                    Count instructions,
                                    const PhaseSpec &meta);

    /** Run @c instructions of @c spec unrecorded, to warm the state. */
    void warm(const PhaseSpec &spec, std::uint64_t seed,
              Count instructions);

    SampleSimulatorConfig config_;
    CacheHierarchy hierarchy_;
    DramDevice dram_;
    /** Memoization cache; nullptr = historical sequential mode. */
    ProfileCache *cache_ = nullptr;
    /** Precomputed config().profileFingerprint(). */
    std::uint64_t configKey_ = 0;
    CharacterizeStats lastStats_;
    /** One chunk's memory references, reused by every run. */
    std::vector<MemoryRef> refs_;
};

} // namespace mcdvfs

#endif // MCDVFS_SIM_SAMPLE_SIMULATOR_HH
