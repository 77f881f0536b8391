#include "sim/sample_simulator.hh"

#include <algorithm>

#include "common/hash.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "sim/profile_cache.hh"
#include "trace/trace_generator.hh"

namespace mcdvfs
{

namespace
{

/**
 * Process-wide characterization work counters, added once per run of
 * the simulator loop (a sample or a warm-up chunk), beside
 * sim.grid.characterize_ns.
 */
struct SimMetrics
{
    obs::Counter instructions;
    obs::Counter memoryRefs;

    SimMetrics()
    {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
        instructions = reg.counter("sim.characterize.instructions");
        memoryRefs = reg.counter("sim.characterize.memory_refs");
    }
};

SimMetrics &
simMetrics()
{
    static SimMetrics metrics;
    return metrics;
}

std::uint64_t
addCacheConfig(std::uint64_t h, const CacheConfig &cache)
{
    h = fnv1aString(h, cache.name);
    h = fnv1aWordBytes(h, cache.name.size());
    h = fnv1aWordBytes(h, cache.sizeBytes);
    h = fnv1aWordBytes(h, cache.associativity);
    h = fnv1aWordBytes(h, cache.lineBytes);
    h = fnv1aWordBytes(h, cache.latencyCycles);
    return h;
}

} // namespace

std::uint64_t
SampleSimulatorConfig::profileFingerprint() const
{
    std::uint64_t h = fnv1aString(kFnvOffsetBasis, "sampler-config-v1");
    h = addCacheConfig(h, hierarchy.l1);
    h = addCacheConfig(h, hierarchy.l2);
    h = fnv1aWordBytes(h, hierarchy.nextLinePrefetch ? 1 : 0);
    h = fnv1aWordBytes(h, dram.banks);
    h = fnv1aWordBytes(h, dram.rowBytes);
    h = fnv1aWordBytes(h, dram.busBytes);
    h = fnv1aWordBytes(h, dram.lineBytes);
    h = fnv1aWordBytes(h, profileWarmupInstructions);
    return h;
}

SampleSimulator::SampleSimulator(const SampleSimulatorConfig &config)
    : config_(config), hierarchy_(config.hierarchy), dram_(config.dram),
      configKey_(config.profileFingerprint())
{
    if (config_.simInstructionsPerSample == 0)
        fatal("sample simulator: simInstructionsPerSample must be > 0");
    refs_.reserve(kChunkInstructions);
}

SampleSimulator::RunCounts
SampleSimulator::simulate(TraceSource &source, Count instructions)
{
    hierarchy_.clearStats();
    dram_.clearStats();

    RunCounts counts;
    Count memory_refs = 0;
    for (Count done = 0; done < instructions;) {
        const Count chunk = std::min(kChunkInstructions, instructions - done);
        counts.gpuKicks += source.nextMemoryRefs(chunk, refs_);
        memory_refs += refs_.size();
        for (const MemoryRef &ref : refs_) {
            const HierarchyOutcome outcome =
                hierarchy_.access(ref.addr, ref.isWrite);
            for (std::uint8_t d = 0; d < outcome.dramCount; ++d) {
                const DramRequest &req = outcome.dram[d];
                dram_.access(req.addr, req.isWrite);
                if (req.isWrite)
                    ++counts.dramWrites;
                else if (req.isPrefetch)
                    ++counts.dramPrefetch;
                else
                    ++counts.dramReads;
            }
        }
        done += chunk;
    }
    simMetrics().instructions.add(instructions);
    simMetrics().memoryRefs.add(memory_refs);
    return counts;
}

SampleProfile
SampleSimulator::profileFromSource(TraceSource &source, Count instructions,
                                   const PhaseSpec &spec)
{
    const RunCounts counts = simulate(source, instructions);

    const auto &l1 = hierarchy_.l1().stats();
    const auto &dram_stats = dram_.stats();
    const double n = static_cast<double>(instructions);

    SampleProfile profile;
    profile.phaseName = spec.name;
    profile.baseCpi = spec.baseCpi;
    profile.activity = spec.activity;
    profile.mlp = spec.mlp;
    profile.l1Mpki = 1000.0 * static_cast<double>(l1.misses()) / n;
    // L2 demand misses are the reads L2 forwarded to DRAM.
    profile.l2Mpki = 1000.0 * static_cast<double>(counts.dramReads) / n;
    profile.l2PerInstr = static_cast<double>(l1.misses()) / n;
    profile.dramReadsPerInstr = static_cast<double>(counts.dramReads) / n;
    profile.dramWritesPerInstr =
        static_cast<double>(counts.dramWrites) / n;
    profile.dramPrefetchPerInstr =
        static_cast<double>(counts.dramPrefetch) / n;
    profile.gpuWorkPerInstr =
        (static_cast<double>(counts.gpuKicks) / n) * spec.gpuCyclesPerKick;
    profile.gpuActivity = spec.gpuActivity;

    const Count dram_total = dram_stats.accesses();
    if (dram_total > 0) {
        const double dn = static_cast<double>(dram_total);
        profile.rowHitFrac =
            static_cast<double>(dram_stats.rowHits) / dn;
        profile.rowClosedFrac =
            static_cast<double>(dram_stats.rowClosed) / dn;
        profile.rowConflictFrac =
            static_cast<double>(dram_stats.rowConflicts) / dn;
    }
    return profile;
}

SampleProfile
SampleSimulator::runSample(const PhaseSpec &spec, std::uint64_t seed,
                           Count instructions)
{
    TraceGenerator gen(spec, seed);
    return profileFromSource(gen, instructions, spec);
}

void
SampleSimulator::warm(const PhaseSpec &spec, std::uint64_t seed,
                      Count instructions)
{
    TraceGenerator gen(spec, seed);
    simulate(gen, instructions);
}

SampleProfile
SampleSimulator::characterizeCanonical(const PhaseSpec &spec,
                                       std::uint64_t seed,
                                       Count instructions)
{
    hierarchy_.reset();
    dram_.reset();
    // Deterministic per-phase warmup: same chunking and stream-seed
    // derivation as the sequential warmup, but over this phase alone,
    // so the measurement below depends on nothing but the arguments.
    Count remaining = config_.profileWarmupInstructions;
    std::size_t w = 0;
    while (remaining > 0) {
        const Count chunk = std::min(remaining, instructions);
        warm(spec, seed ^ (0x57a7ab1e0ddba11ull + w * 0x9e3779b97f4a7c15ull),
             chunk);
        remaining -= chunk;
        ++w;
    }
    return runSample(spec, seed, instructions);
}

std::vector<SampleProfile>
SampleSimulator::characterize(const WorkloadProfile &workload)
{
    lastStats_ = CharacterizeStats{};
    if (cache_ == nullptr)
        return characterizeSequential(workload);

    std::vector<SampleProfile> profiles;
    profiles.reserve(workload.sampleCount());
    for (std::size_t s = 0; s < workload.sampleCount(); ++s) {
        const PhaseSpec spec = workload.phaseFor(s);
        const std::uint64_t seed = workload.traceSeedFor(s);
        ProfileKey key;
        key.phase = spec.fingerprint();
        key.seed = seed;
        key.instructions = config_.simInstructionsPerSample;
        key.config = configKey_;
        if (auto hit = cache_->find(key)) {
            ++lastStats_.cacheHits;
            profiles.push_back(*hit);
            continue;
        }
        ++lastStats_.cacheMisses;
        profiles.push_back(characterizeCanonical(
            spec, seed, config_.simInstructionsPerSample));
        cache_->insert(
            key, std::make_shared<const SampleProfile>(profiles.back()));
    }
    return profiles;
}

std::vector<SampleProfile>
SampleSimulator::characterizeSequential(const WorkloadProfile &workload)
{
    hierarchy_.reset();
    dram_.reset();

    // Warm caches and row buffers by cycling through the first phases
    // without recording, so sample 0 is measured at steady state.
    const std::size_t warm_span =
        std::min<std::size_t>(8, workload.sampleCount());
    Count remaining = config_.warmupInstructions;
    std::size_t w = 0;
    while (remaining > 0) {
        const Count chunk =
            std::min(remaining, config_.simInstructionsPerSample);
        // Each warmup chunk gets a fresh stream seed: replaying the
        // same few streams would re-touch the same addresses and
        // leave large working sets cold.
        warm(workload.phaseFor(w % warm_span),
             workload.traceSeedFor(w % warm_span) ^
                 (0x57a7ab1e0ddba11ull + w * 0x9e3779b97f4a7c15ull),
             chunk);
        remaining -= chunk;
        ++w;
    }

    std::vector<SampleProfile> profiles;
    profiles.reserve(workload.sampleCount());
    for (std::size_t s = 0; s < workload.sampleCount(); ++s) {
        profiles.push_back(runSample(workload.phaseFor(s),
                                     workload.traceSeedFor(s),
                                     config_.simInstructionsPerSample));
    }
    return profiles;
}

SampleProfile
SampleSimulator::characterizeOne(const PhaseSpec &spec, std::uint64_t seed,
                                 Count instructions)
{
    hierarchy_.reset();
    dram_.reset();
    return runSample(spec, seed, instructions);
}

SampleProfile
SampleSimulator::characterizeTrace(TraceSource &source,
                                   Count instructions,
                                   const PhaseSpec &meta)
{
    hierarchy_.reset();
    dram_.reset();
    return profileFromSource(source, instructions, meta);
}

} // namespace mcdvfs
