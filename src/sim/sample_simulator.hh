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
 * A characterization runs its generated streams (warm-ups, then the
 * measured sample) in two passes.  Pass 1 decodes the streams'
 * memory references together, one buffer per stream, with
 * TraceGenerator's grouped nextMemoryRefs(); pass 2 walks each buffer
 * in order through simulate(), the one loop over a span of
 * references, which hands each DRAM transaction from the hierarchy
 * straight to the bank model.  A recorded trace feeds simulate() a
 * chunk at a time through TraceSource::nextMemoryRefs().
 */

#ifndef MCDVFS_SIM_SAMPLE_SIMULATOR_HH
#define MCDVFS_SIM_SAMPLE_SIMULATOR_HH

#include <span>
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
     * Instructions characterizeTrace() asks its source for at a time;
     * a chunk's memory references (at most 32 KiB) stay in the host's
     * caches between the source writing them and the hierarchy
     * reading them.
     */
    static constexpr Count kChunkInstructions = 2048;

    /**
     * Instructions pass 1 decodes at most at once, over consecutive
     * streams: a paper-sampler miss (four 50k warm-ups and a 50k
     * sample) fits, and the buffers stay within a few MiB.  A longer
     * stream is decoded alone, this many at a time.
     */
    static constexpr Count kGroupInstructions = Count{1} << 18;

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
    /** One generated instruction stream a characterization runs. */
    struct Stream
    {
        const PhaseSpec *spec;
        std::uint64_t seed;
        Count instructions;
        /** A sample to profile, not a warm-up. */
        bool measured;
    };

    /**
     * Run @c streams through the warm hierarchy and banks in order,
     * appending the profile of each measured one to @c profiles.  Each
     * group of consecutive streams that fits kGroupInstructions takes
     * the two passes: decode them all, then simulate each.
     */
    void runStreams(std::span<const Stream> streams,
                    std::vector<SampleProfile> &profiles);

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

    /** What one stream counted since the counters were cleared. */
    struct RunCounts
    {
        Count dramReads = 0;
        Count dramWrites = 0;
        Count dramPrefetch = 0;
        Count gpuKicks = 0;
    };

    /**
     * The one simulator loop: push @c refs through the hierarchy, and
     * each DRAM transaction it generates through the banks, adding to
     * @c counts.
     */
    void simulate(std::span<const MemoryRef> refs, RunCounts &counts);

    /**
     * The rates measured over @c instructions since the counters were
     * last cleared, as a SampleProfile of @c spec.
     */
    SampleProfile profile(const RunCounts &counts, Count instructions,
                          const PhaseSpec &spec) const;

    /** Add one run's work to the sim.characterize.* counters. */
    static void countWork(Count instructions, Count memory_refs);

    SampleSimulatorConfig config_;
    CacheHierarchy hierarchy_;
    DramDevice dram_;
    /** Memoization cache; nullptr = historical sequential mode. */
    ProfileCache *cache_ = nullptr;
    /** Precomputed config().profileFingerprint(). */
    std::uint64_t configKey_ = 0;
    CharacterizeStats lastStats_;
    /** Per stream of a group, its memory references; reused. */
    std::vector<std::vector<MemoryRef>> refs_;
};

} // namespace mcdvfs

#endif // MCDVFS_SIM_SAMPLE_SIMULATOR_HH
