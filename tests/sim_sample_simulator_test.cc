/**
 * @file
 * Unit tests for the sample characterization pass.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/grid_runner.hh"
#include "sim/profile_cache.hh"
#include "sim/sample_simulator.hh"
#include "trace/trace_generator.hh"

namespace mcdvfs
{
namespace
{

PhaseSpec
cpuBoundPhase()
{
    PhaseSpec spec;
    spec.name = "cpu";
    spec.hotFrac = 1.0;
    spec.warmFrac = 0.0;
    spec.hotBytes = 16 * kKiB;
    return spec;
}

PhaseSpec
memBoundPhase()
{
    PhaseSpec spec;
    spec.name = "mem";
    spec.hotFrac = 0.5;
    spec.warmFrac = 0.0;
    spec.coldSeqFrac = 0.0;  // random: misses everywhere
    spec.coldBytes = 64ull << 20;
    return spec;
}

WorkloadProfile
tinyWorkload(const PhaseSpec &spec, std::size_t samples)
{
    return WorkloadProfile("tiny", samples,
                           [spec](std::size_t) { return spec; }, 99,
                           /*jitter=*/0.0);
}

SampleSimulatorConfig
fastConfig()
{
    SampleSimulatorConfig config;
    config.simInstructionsPerSample = 20'000;
    config.warmupInstructions = 60'000;
    return config;
}

TEST(SampleSimulator, Deterministic)
{
    const WorkloadProfile workload = tinyWorkload(memBoundPhase(), 3);
    SampleSimulator a(fastConfig());
    SampleSimulator b(fastConfig());
    const auto pa = a.characterize(workload);
    const auto pb = b.characterize(workload);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t s = 0; s < pa.size(); ++s) {
        EXPECT_DOUBLE_EQ(pa[s].l1Mpki, pb[s].l1Mpki);
        EXPECT_DOUBLE_EQ(pa[s].dramReadsPerInstr,
                         pb[s].dramReadsPerInstr);
        EXPECT_DOUBLE_EQ(pa[s].rowHitFrac, pb[s].rowHitFrac);
    }
}

TEST(SampleSimulator, OneProfilePerSample)
{
    const WorkloadProfile workload = tinyWorkload(cpuBoundPhase(), 5);
    SampleSimulator simulator(fastConfig());
    EXPECT_EQ(simulator.characterize(workload).size(), 5u);
}

TEST(SampleSimulator, CpuBoundPhaseHasNoDramTraffic)
{
    // A 16 KiB hot set lives entirely in the 64 KiB L1 after warmup.
    const WorkloadProfile workload = tinyWorkload(cpuBoundPhase(), 3);
    SampleSimulator simulator(fastConfig());
    const auto profiles = simulator.characterize(workload);
    EXPECT_LT(profiles[2].l2Mpki, 0.5);
    EXPECT_LT(profiles[2].dramPerInstr(), 0.001);
}

TEST(SampleSimulator, MemBoundPhaseMissesEverywhere)
{
    const WorkloadProfile workload = tinyWorkload(memBoundPhase(), 3);
    SampleSimulator simulator(fastConfig());
    const auto profiles = simulator.characterize(workload);
    // Half the accesses hit a 64 MiB random set: far beyond L2.
    EXPECT_GT(profiles[2].l2Mpki, 20.0);
    EXPECT_GT(profiles[2].l1Mpki, 20.0);
}

TEST(SampleSimulator, RandomColdAccessesRarelyRowHit)
{
    const WorkloadProfile workload = tinyWorkload(memBoundPhase(), 2);
    SampleSimulator simulator(fastConfig());
    const auto profiles = simulator.characterize(workload);
    EXPECT_LT(profiles[1].rowHitFrac, 0.2);
    EXPECT_NEAR(profiles[1].rowHitFrac + profiles[1].rowClosedFrac +
                    profiles[1].rowConflictFrac,
                1.0, 1e-9);
}

TEST(SampleSimulator, SequentialColdAccessesMostlyRowHit)
{
    PhaseSpec spec = memBoundPhase();
    spec.coldSeqFrac = 1.0;
    const WorkloadProfile workload = tinyWorkload(spec, 2);
    SampleSimulator simulator(fastConfig());
    const auto profiles = simulator.characterize(workload);
    EXPECT_GT(profiles[1].rowHitFrac, 0.7);
}

TEST(SampleSimulator, PhaseAttributesPassThrough)
{
    PhaseSpec spec = cpuBoundPhase();
    spec.baseCpi = 1.23;
    spec.mlp = 2.5;
    spec.activity = 0.77;
    const WorkloadProfile workload = tinyWorkload(spec, 1);
    SampleSimulator simulator(fastConfig());
    const auto profiles = simulator.characterize(workload);
    EXPECT_DOUBLE_EQ(profiles[0].baseCpi, 1.23);
    EXPECT_DOUBLE_EQ(profiles[0].mlp, 2.5);
    EXPECT_DOUBLE_EQ(profiles[0].activity, 0.77);
    EXPECT_EQ(profiles[0].phaseName, "cpu");
}

TEST(SampleSimulator, WarmupRemovesColdStartTransient)
{
    // With warmup, the first sample of a steady workload looks like
    // the later ones; without, it carries compulsory misses.
    PhaseSpec spec;
    spec.hotFrac = 0.85;
    spec.warmFrac = 0.15;
    spec.warmBytes = 256 * kKiB;  // L2-resident once warm
    const WorkloadProfile workload = tinyWorkload(spec, 4);

    SampleSimulatorConfig cold = fastConfig();
    cold.warmupInstructions = 0;
    SampleSimulator cold_sim(cold);
    const auto cold_profiles = cold_sim.characterize(workload);

    SampleSimulatorConfig warm = fastConfig();
    warm.warmupInstructions = 500'000;
    SampleSimulator warm_sim(warm);
    const auto warm_profiles = warm_sim.characterize(workload);

    EXPECT_GT(cold_profiles[0].l2Mpki, warm_profiles[0].l2Mpki * 2.0);
}

TEST(SampleSimulator, CharacterizeOneResetsState)
{
    SampleSimulator simulator(fastConfig());
    const SampleProfile a =
        simulator.characterizeOne(memBoundPhase(), 7, 20'000);
    const SampleProfile b =
        simulator.characterizeOne(memBoundPhase(), 7, 20'000);
    EXPECT_DOUBLE_EQ(a.l1Mpki, b.l1Mpki);
    EXPECT_DOUBLE_EQ(a.rowHitFrac, b.rowHitFrac);
}

TEST(SampleSimulator, ZeroInstructionConfigThrows)
{
    SampleSimulatorConfig config;
    config.simInstructionsPerSample = 0;
    EXPECT_THROW(SampleSimulator{config}, FatalError);
}

/** C spelling of a digest, so a mismatch prints a pasteable constant. */
std::string
hex(std::uint64_t value)
{
    char text[32];
    std::snprintf(text, sizeof(text), "0x%016" PRIx64 "ull", value);
    return text;
}

// profileDigest() hashes every field; a new one must be added there.
static_assert(sizeof(SampleProfile) ==
                  sizeof(std::string) + 14 * sizeof(double),
              "SampleProfile changed: update profileDigest()");

/** Digest of the bit pattern of every field of every profile. */
std::uint64_t
profileDigest(const std::vector<SampleProfile> &profiles)
{
    HashBuilder hash;
    for (const SampleProfile &p : profiles) {
        hash.add(p.phaseName);
        // Raw bits: HashBuilder::add(double) folds -0.0 into +0.0.
        for (const double value :
             {p.baseCpi, p.activity, p.mlp, p.gpuWorkPerInstr,
              p.gpuActivity, p.l1Mpki, p.l2Mpki, p.l2PerInstr,
              p.dramReadsPerInstr, p.dramWritesPerInstr,
              p.dramPrefetchPerInstr, p.rowHitFrac, p.rowClosedFrac,
              p.rowConflictFrac})
            hash.add(std::bit_cast<std::uint64_t>(value));
    }
    return hash.digest();
}

/** The sampler perfbench and fleet_sim run (20k/100k/40k). */
SampleSimulatorConfig
perfbenchSampler()
{
    SampleSimulatorConfig config;
    config.simInstructionsPerSample = 20'000;
    config.warmupInstructions = 100'000;
    config.profileWarmupInstructions = 40'000;
    return config;
}

struct GoldenProfiles
{
    const char *name;
    /**
     * paperDefault() sequential, paperDefault() canonical, perfbench
     * sequential, perfbench canonical.
     */
    std::uint64_t digest[4];
};

/**
 * Every profile of every extendedWorkloads() profile, bit for bit.
 * Characterization is the only producer of SampleProfiles; the grid,
 * analysis and snapshot goldens all take these as given.
 */
constexpr GoldenProfiles kGoldenProfiles[] = {
    {"bzip2",
     {0xf3f08673a1d323ebull, 0x11f47581e3f4a131ull,
      0x516983ba010e86b5ull, 0x2c1a2938e2e47d5full}},
    {"gcc",
     {0x06fad2abcbc2aca2ull, 0x6ae172f08f07eb53ull,
      0x55dd7c7aab0c9c6full, 0x40b355444523d8e9ull}},
    {"gobmk",
     {0x24ba312591441f93ull, 0x47f102966420a699ull,
      0x8bbaa2ff6f5855adull, 0xc486896240a191e3ull}},
    {"lbm",
     {0x9bfd59954e578df3ull, 0x6092b0e934e9782full,
      0x9fb00d8b6fbcd568ull, 0x631c15ec402a01ffull}},
    {"libq.",
     {0xad25b9440fd1e243ull, 0xd2fe81b8e9416726ull,
      0xbaa1fa9af4a008a0ull, 0xd0a19054be81ceb4ull}},
    {"milc",
     {0x0aa1a7d5be05ace7ull, 0xb97a3f3b5a362e5cull,
      0xb8bd42520b5d54dbull, 0xfedfef34b32b15ceull}},
    {"mcf",
     {0x0b546d3df5a19279ull, 0x5a7bc0b59a94db1cull,
      0xc0657256c51fcbdfull, 0x35aa87f6aa395952ull}},
    {"hmmer",
     {0x06ccfd5c99b00055ull, 0xa38b08e99baec3faull,
      0xbfd1891c4feb7800ull, 0x5479371debe07b7eull}},
    {"sjeng",
     {0x048abccaf3b3f3ddull, 0xaa7974a99e6bad22ull,
      0x5c42a44b3a5b9300ull, 0x756ef7a5e1f48216ull}},
    {"omnetpp",
     {0xe1f76c6d9b79c940ull, 0x2584a81d399b8790ull,
      0xf243fc76436730a3ull, 0x353bec4e015b15e1ull}},
    {"namd",
     {0x277bc8278efcd974ull, 0x8439e20a791c483cull,
      0xa72cb495b44d492dull, 0xb3f4e42a0446189eull}},
    {"soplex",
     {0x5c3f9271d6411d64ull, 0x1ba5ced88701137full,
      0x0a48789640279cd3ull, 0xb03a6fcd46a39d12ull}},
    {"glrender",
     {0x5d6b771de9e57218ull, 0x87f2b02b9021bb11ull,
      0x2348f363a2bff36full, 0x353c42ea67ce3a6eull}},
};

TEST(SampleSimulator, ProfilesMatchTheGolden)
{
    const std::vector<WorkloadProfile> workloads = extendedWorkloads();
    ASSERT_EQ(workloads.size(), std::size(kGoldenProfiles));
    const SampleSimulatorConfig samplers[] = {
        SystemConfig::paperDefault().sampler, perfbenchSampler()};

    // Each digest is independent of the others (sequential
    // characterization starts from reset caches, a canonical profile
    // depends only on its key), so the 52 of them run on four threads.
    constexpr std::size_t kColumns = std::size(GoldenProfiles{}.digest);
    std::vector<std::uint64_t> digests(workloads.size() * kColumns);
    std::atomic<std::size_t> next_job{0};
    const auto worker = [&] {
        for (std::size_t job; (job = next_job++) < digests.size();) {
            const std::size_t column = job % kColumns;
            SampleSimulator simulator(samplers[column / 2]);
            ProfileCache cache(1024);
            if (column % 2 == 1)
                simulator.setProfileCache(&cache);
            digests[job] = profileDigest(
                simulator.characterize(workloads[job / kColumns]));
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back(worker);
    for (std::thread &thread : threads)
        thread.join();

    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const GoldenProfiles &golden = kGoldenProfiles[w];
        SCOPED_TRACE(golden.name);
        EXPECT_EQ(workloads[w].name(), golden.name);
        for (std::size_t column = 0; column < kColumns; ++column) {
            EXPECT_EQ(hex(digests[w * kColumns + column]),
                      hex(golden.digest[column]))
                << "column " << column;
        }
    }
}

TEST(SampleSimulator, LongStreamMatchesChunkedSource)
{
    // A sample longer than one pass 1 is decoded a group budget at a
    // time; characterizeTrace() reads the same stream in chunks.
    const Count n = SampleSimulator::kGroupInstructions + 5000;
    for (const PhaseSpec &spec : {memBoundPhase(), cpuBoundPhase()}) {
        SCOPED_TRACE(spec.name);
        SampleSimulator direct(fastConfig());
        SampleSimulator chunked(fastConfig());
        TraceGenerator source(spec, 5);
        EXPECT_EQ(profileDigest({direct.characterizeOne(spec, 5, n)}),
                  profileDigest({chunked.characterizeTrace(source, n, spec)}));
    }
}

/** Digest of the first 4096 records of a (spec, seed) stream. */
std::uint64_t
traceDigest(const PhaseSpec &spec, std::uint64_t seed)
{
    TraceGenerator gen(spec, seed);
    HashBuilder hash;
    for (int i = 0; i < 4096; ++i) {
        const InstrRecord rec = gen.next();
        hash.add(static_cast<std::uint64_t>(rec.kind)).add(rec.addr);
    }
    return hash.digest();
}

/** The hot, warm, cold-sequential and GPU specs the stream golden pins. */
std::vector<PhaseSpec>
goldenStreamSpecs()
{
    PhaseSpec hot;  // all references in a 24 KiB set
    hot.name = "hot";
    hot.hotFrac = 1.0;
    hot.warmFrac = 0.0;

    PhaseSpec warm;  // mostly the L2-sized set, some random cold
    warm.name = "warm";
    warm.fpFrac = 0.10;
    warm.hotFrac = 0.10;
    warm.warmFrac = 0.85;

    PhaseSpec cold;  // a pure sequential stream that wraps (750 words)
    cold.name = "cold-seq";
    cold.hotFrac = 0.0;
    cold.warmFrac = 0.0;
    cold.coldSeqFrac = 1.0;
    cold.coldBytes = 6000;

    PhaseSpec gpu;  // GPU kicks in the mix, random cold references
    gpu.name = "gpu";
    gpu.fpFrac = 0.05;
    gpu.gpuKickFrac = 0.05;
    gpu.gpuCyclesPerKick = 4000.0;
    gpu.gpuActivity = 0.7;
    gpu.hotFrac = 0.7;
    gpu.warmFrac = 0.2;
    gpu.coldSeqFrac = 0.0;

    return {hot, warm, cold, gpu};
}

TEST(TraceGenerator, StreamsMatchTheGolden)
{
    const std::vector<PhaseSpec> specs = goldenStreamSpecs();
    EXPECT_EQ(hex(traceDigest(specs[0], 11)), hex(0x4c4adb989c6514b3ull));
    EXPECT_EQ(hex(traceDigest(specs[1], 12)), hex(0xc355a09dcd48efb1ull));
    EXPECT_EQ(hex(traceDigest(specs[2], 13)), hex(0x3f416e343f1d40d6ull));
    EXPECT_EQ(hex(traceDigest(specs[3], 14)), hex(0x6f69e4cf461ec116ull));
}

/** Lengths that start, fill and cross the generator's 512-draw blocks. */
constexpr Count kBlockCallLengths[] = {0,   1,   63,     64,
                                       65,  513, 20'000, 60'000};

/**
 * Advance @c block by nextMemoryRefs(@c n) and @c single by @c n next()
 * calls (TraceSource's own nextMemoryRefs()), and expect the same
 * references and GPU kicks.
 */
void
expectSameChunk(TraceGenerator &block, TraceGenerator &single, Count n)
{
    std::vector<MemoryRef> got;
    std::vector<MemoryRef> want;
    const Count kicks = block.nextMemoryRefs(n, got);
    EXPECT_EQ(kicks, single.TraceSource::nextMemoryRefs(n, want))
        << n << " instructions";
    ASSERT_EQ(got.size(), want.size()) << n << " instructions";
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].addr, want[i].addr) << "reference " << i;
        ASSERT_EQ(got[i].isWrite, want[i].isWrite) << "reference " << i;
    }
}

/** expectSameChunk() on a fresh pair, then the pair's next instruction. */
void
expectBlockCallMatchesNext(const PhaseSpec &spec, std::uint64_t seed,
                           Count n)
{
    SCOPED_TRACE(spec.name + " length " + std::to_string(n));
    TraceGenerator block(spec, seed);
    TraceGenerator single(spec, seed);
    expectSameChunk(block, single, n);
    const InstrRecord a = block.next();
    const InstrRecord b = single.next();
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.addr, b.addr);
}

/**
 * The stream-golden specs, then the edges of the block walk: no
 * memory, all memory, coldSeqFrac 0 and 1, hotFrac 1, and a cold set
 * whose word bound rejects one draw in nine.
 */
std::vector<PhaseSpec>
edgeSpecs()
{
    std::vector<PhaseSpec> specs = goldenStreamSpecs();
    PhaseSpec no_memory;
    no_memory.name = "no-memory";
    no_memory.loadFrac = 0.0;
    no_memory.storeFrac = 0.0;
    no_memory.gpuKickFrac = 0.1;
    specs.push_back(no_memory);
    PhaseSpec all_memory;
    all_memory.name = "all-memory";
    all_memory.loadFrac = 0.7;
    all_memory.storeFrac = 0.3;
    all_memory.branchFrac = 0.0;
    all_memory.mulFrac = 0.0;
    all_memory.hotFrac = 0.4;
    all_memory.warmFrac = 0.3;
    specs.push_back(all_memory);
    for (const double seq : {0.0, 1.0}) {
        PhaseSpec cold = all_memory;
        cold.name = seq == 0.0 ? "cold-random" : "cold-sequential";
        cold.loadFrac = 0.2;
        cold.storeFrac = 0.1;
        cold.coldSeqFrac = seq;
        specs.push_back(cold);
    }
    PhaseSpec all_hot;
    all_hot.name = "all-hot";
    all_hot.hotFrac = 1.0;
    all_hot.warmFrac = 0.0;
    specs.push_back(all_hot);
    // 8 * (floor(2^64 / 9) + 1) bytes: the word bound's rejection
    // threshold turns down one cold word draw in nine.
    PhaseSpec rejecting;
    rejecting.name = "rejecting";
    rejecting.hotFrac = 0.1;
    rejecting.warmFrac = 0.1;
    rejecting.coldSeqFrac = 0.3;
    rejecting.gpuKickFrac = 0.05;
    rejecting.coldBytes = 16'397'105'843'297'379'216ull;
    specs.push_back(rejecting);
    return specs;
}

TEST(TraceGenerator, MemoryRefsMatchNext)
{
    // Every sample's phase of every workload, GPU phases included, at a
    // length that rotates through kBlockCallLengths.
    std::size_t rotation = 0;
    for (const WorkloadProfile &workload : extendedWorkloads()) {
        for (std::size_t s = 0; s < workload.sampleCount(); ++s) {
            const Count n =
                kBlockCallLengths[rotation++ % std::size(kBlockCallLengths)];
            expectBlockCallMatchesNext(workload.phaseFor(s),
                                       workload.traceSeedFor(s), n);
        }
    }

    const std::vector<PhaseSpec> specs = edgeSpecs();
    std::uint64_t seed = 31;
    for (const PhaseSpec &spec : specs) {
        for (const Count n : kBlockCallLengths)
            expectBlockCallMatchesNext(spec, seed, n);
        ++seed;
    }

    // One generator advanced by next() and block calls in turn, at
    // every length, against one advanced by next() alone.
    for (const PhaseSpec &spec : specs) {
        SCOPED_TRACE(spec.name + " interleaved");
        TraceGenerator block(spec, 7);
        TraceGenerator single(spec, 7);
        for (const Count n : kBlockCallLengths) {
            expectSameChunk(block, single, n);
            for (int i = 0; i < 3; ++i) {
                const InstrRecord a = block.next();
                const InstrRecord b = single.next();
                ASSERT_EQ(a.kind, b.kind);
                ASSERT_EQ(a.addr, b.addr);
            }
        }
    }
}

/** One lane of a grouped call under test. */
struct GroupedStream
{
    PhaseSpec spec;
    std::uint64_t seed;
    Count length;
};

/**
 * Decode @c streams with one grouped call, each generator first
 * advanced by 0-2 next() calls so lanes start at different draws, and
 * expect every lane's references and GPU kicks to equal those of its
 * generator alone decoded by next(); then the next instruction of
 * each to match.
 */
void
expectGroupMatchesOneAtATime(const std::vector<GroupedStream> &streams)
{
    std::vector<TraceGenerator> grouped;
    std::vector<TraceGenerator> single;
    for (const GroupedStream &stream : streams) {
        grouped.emplace_back(stream.spec, stream.seed);
        single.emplace_back(stream.spec, stream.seed);
    }
    for (std::size_t i = 0; i < streams.size(); ++i) {
        for (std::size_t k = 0; k < i % 3; ++k) {
            const InstrRecord a = grouped[i].next();
            const InstrRecord b = single[i].next();
            ASSERT_EQ(a.kind, b.kind);
            ASSERT_EQ(a.addr, b.addr);
        }
    }
    std::vector<std::vector<MemoryRef>> got(streams.size());
    std::vector<TraceGenerator::Lane> lanes;
    for (std::size_t i = 0; i < streams.size(); ++i)
        lanes.push_back({&grouped[i], streams[i].length, &got[i]});
    TraceGenerator::nextMemoryRefs(lanes);

    std::vector<MemoryRef> want;
    for (std::size_t i = 0; i < streams.size(); ++i) {
        SCOPED_TRACE(streams[i].spec.name + " lane " + std::to_string(i) +
                     " of " + std::to_string(streams.size()) + ", length " +
                     std::to_string(streams[i].length));
        const Count kicks =
            single[i].TraceSource::nextMemoryRefs(streams[i].length, want);
        EXPECT_EQ(lanes[i].gpuKicks, kicks);
        ASSERT_EQ(got[i].size(), want.size());
        for (std::size_t r = 0; r < want.size(); ++r) {
            ASSERT_EQ(got[i][r].addr, want[r].addr) << "reference " << r;
            ASSERT_EQ(got[i][r].isWrite, want[r].isWrite)
                << "reference " << r;
        }
        const InstrRecord a = grouped[i].next();
        const InstrRecord b = single[i].next();
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.addr, b.addr);
    }
}

TEST(TraceGenerator, GroupedCallMatchesOneAtATime)
{
    // Every sample's phase of every workload, then the edge specs.
    std::vector<GroupedStream> streams;
    for (const WorkloadProfile &workload : extendedWorkloads()) {
        for (std::size_t s = 0; s < workload.sampleCount(); ++s)
            streams.push_back(
                {workload.phaseFor(s), workload.traceSeedFor(s), 0});
    }
    const std::size_t workload_streams = streams.size();
    std::uint64_t seed = 31;
    for (const PhaseSpec &spec : edgeSpecs())
        streams.push_back({spec, seed++, 0});

    // Groups of one to one more than a vector of lanes, over unequal
    // lengths, so lanes finish in different blocks.  The edge specs
    // take every length in every group size.
    constexpr Count kWorkloadLengths[] = {2048, 1, 20'000, 0, 513, 5000, 64};
    for (std::size_t size = 1; size <= Rng::kLanes + 1; ++size) {
        std::size_t rotation = size;
        for (std::size_t first = 0; first < workload_streams; first += size) {
            std::vector<GroupedStream> group;
            for (std::size_t i = first;
                 i < std::min(first + size, workload_streams); ++i) {
                group.push_back(streams[i]);
                group.back().length = kWorkloadLengths
                    [rotation++ % std::size(kWorkloadLengths)];
            }
            expectGroupMatchesOneAtATime(group);
        }
        for (std::size_t shift = 0; shift < std::size(kBlockCallLengths);
             ++shift) {
            for (std::size_t first = workload_streams;
                 first < streams.size(); first += size) {
                std::vector<GroupedStream> group;
                for (std::size_t i = first;
                     i < std::min(first + size, streams.size()); ++i) {
                    group.push_back(streams[i]);
                    group.back().length =
                        kBlockCallLengths[(i + shift) %
                                          std::size(kBlockCallLengths)];
                }
                expectGroupMatchesOneAtATime(group);
            }
        }
    }
}

TEST(Rng, DrawsMatchTheGolden)
{
    HashBuilder next;
    Rng a(1);
    for (int i = 0; i < 4096; ++i)
        next.add(a.next());

    HashBuilder uniform;
    Rng b(2);
    for (int i = 0; i < 4096; ++i)
        uniform.add(std::bit_cast<std::uint64_t>(b.uniform()));

    // Each group ends with a raw draw, which pins how many draws the
    // group consumed (rejections included).
    HashBuilder uniform_int;
    Rng c(3);
    for (const std::uint64_t bound :
         {1ull, 2ull, 3ull, 7ull, 1000ull, 3072ull, 1ull << 40,
          (1ull << 63) + 1, ~0ull}) {
        for (int i = 0; i < 256; ++i)
            uniform_int.add(c.uniformInt(bound));
        uniform_int.add(c.next());
    }

    HashBuilder chance;
    Rng d(4);
    for (const double p : {-1.0, 0.0, 1e-9, 0.3, 0.5, 0.999, 1.0, 2.0}) {
        for (int i = 0; i < 256; ++i)
            chance.add(d.chance(p));
        chance.add(d.next());
    }

    EXPECT_EQ(hex(next.digest()), hex(0x5c5b6de50a407a62ull));
    EXPECT_EQ(hex(uniform.digest()), hex(0x4674e43ed19a5570ull));
    EXPECT_EQ(hex(uniform_int.digest()), hex(0x59c3c218ed52f6edull));
    EXPECT_EQ(hex(chance.digest()), hex(0xa225769581b6fde8ull));
}

} // namespace
} // namespace mcdvfs
