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
 * Process-wide characterization work counters, added once per
 * simulated stream (a sample, a warm-up chunk or a recorded trace),
 * beside sim.grid.characterize_ns.
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
}

void
SampleSimulator::countWork(Count instructions, Count memory_refs)
{
    simMetrics().instructions.add(instructions);
    simMetrics().memoryRefs.add(memory_refs);
}

void
SampleSimulator::simulate(std::span<const MemoryRef> refs, RunCounts &counts)
{
    Count reads = 0;
    Count writes = 0;
    Count prefetches = 0;
    for (const MemoryRef &ref : refs) {
        hierarchy_.access(ref.addr, ref.isWrite,
                          [&](const DramRequest &req) {
                              dram_.access(req.addr, req.isWrite);
                              writes += req.isWrite;
                              prefetches += !req.isWrite && req.isPrefetch;
                              reads += !req.isWrite && !req.isPrefetch;
                          });
    }
    counts.dramReads += reads;
    counts.dramWrites += writes;
    counts.dramPrefetch += prefetches;
}

void
SampleSimulator::runStreams(std::span<const Stream> streams,
                            std::vector<SampleProfile> &profiles)
{
    std::vector<TraceGenerator> gens;
    std::vector<TraceGenerator::Lane> lanes;
    std::vector<RunCounts> counts;
    for (std::size_t first = 0; first < streams.size();) {
        std::size_t end = first + 1;
        Count total = streams[first].instructions;
        while (end < streams.size() &&
               total + streams[end].instructions <= kGroupInstructions)
            total += streams[end++].instructions;
        const std::span<const Stream> group =
            streams.subspan(first, end - first);
        first = end;

        gens.clear();
        gens.reserve(group.size());
        for (const Stream &stream : group)
            gens.emplace_back(*stream.spec, stream.seed);
        if (refs_.size() < group.size())
            refs_.resize(group.size());
        lanes.resize(group.size());
        counts.assign(group.size(), {});

        // Every stream of a group of several fits in one pass 1; a
        // lone longer stream takes kGroupInstructions per pass.
        Count done = 0;
        do {
            for (std::size_t i = 0; i < group.size(); ++i) {
                lanes[i] = {&gens[i],
                            std::min(kGroupInstructions,
                                     group[i].instructions - done),
                            &refs_[i]};
            }
            TraceGenerator::nextMemoryRefs(lanes);
            for (std::size_t i = 0; i < group.size(); ++i) {
                if (done == 0) {
                    hierarchy_.clearStats();
                    dram_.clearStats();
                }
                simulate(refs_[i], counts[i]);
                counts[i].gpuKicks += lanes[i].gpuKicks;
                countWork(lanes[i].instructions, refs_[i].size());
                if (group[i].measured &&
                    done + lanes[i].instructions == group[i].instructions) {
                    profiles.push_back(profile(
                        counts[i], group[i].instructions, *group[i].spec));
                }
            }
            done += kGroupInstructions;
        } while (done < total);
    }
}

SampleProfile
SampleSimulator::profile(const RunCounts &counts, Count instructions,
                         const PhaseSpec &spec) const
{
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
SampleSimulator::characterizeCanonical(const PhaseSpec &spec,
                                       std::uint64_t seed,
                                       Count instructions)
{
    hierarchy_.reset();
    dram_.reset();
    // Deterministic per-phase warmup: same chunking and stream-seed
    // derivation as the sequential warmup, but over this phase alone,
    // so the measurement after it depends on nothing but the arguments.
    std::vector<Stream> streams;
    Count remaining = config_.profileWarmupInstructions;
    for (std::size_t w = 0; remaining > 0; ++w) {
        const Count chunk = std::min(remaining, instructions);
        streams.push_back(
            {&spec, seed ^ (0x57a7ab1e0ddba11ull + w * 0x9e3779b97f4a7c15ull),
             chunk, false});
        remaining -= chunk;
    }
    streams.push_back({&spec, seed, instructions, true});
    std::vector<SampleProfile> profiles;
    runStreams(streams, profiles);
    return std::move(profiles.front());
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
    std::vector<Stream> streams;
    Count remaining = config_.warmupInstructions;
    for (std::size_t w = 0; remaining > 0; ++w) {
        const Count chunk =
            std::min(remaining, config_.simInstructionsPerSample);
        // Each warmup chunk gets a fresh stream seed: replaying the
        // same few streams would re-touch the same addresses and
        // leave large working sets cold.
        streams.push_back(
            {&workload.phaseFor(w % warm_span),
             workload.traceSeedFor(w % warm_span) ^
                 (0x57a7ab1e0ddba11ull + w * 0x9e3779b97f4a7c15ull),
             chunk, false});
        remaining -= chunk;
    }
    for (std::size_t s = 0; s < workload.sampleCount(); ++s) {
        streams.push_back({&workload.phaseFor(s), workload.traceSeedFor(s),
                           config_.simInstructionsPerSample, true});
    }

    std::vector<SampleProfile> profiles;
    profiles.reserve(workload.sampleCount());
    runStreams(streams, profiles);
    return profiles;
}

SampleProfile
SampleSimulator::characterizeOne(const PhaseSpec &spec, std::uint64_t seed,
                                 Count instructions)
{
    hierarchy_.reset();
    dram_.reset();
    const Stream stream{&spec, seed, instructions, true};
    std::vector<SampleProfile> profiles;
    runStreams({&stream, 1}, profiles);
    return std::move(profiles.front());
}

SampleProfile
SampleSimulator::characterizeTrace(TraceSource &source,
                                   Count instructions,
                                   const PhaseSpec &meta)
{
    hierarchy_.reset();
    dram_.reset();
    if (refs_.empty())
        refs_.resize(1);
    std::vector<MemoryRef> &chunk = refs_.front();
    RunCounts counts;
    Count memory_refs = 0;
    for (Count done = 0; done < instructions;) {
        const Count n = std::min(kChunkInstructions, instructions - done);
        counts.gpuKicks += source.nextMemoryRefs(n, chunk);
        simulate(chunk, counts);
        memory_refs += chunk.size();
        done += n;
    }
    countWork(instructions, memory_refs);
    return profile(counts, instructions, meta);
}

} // namespace mcdvfs
