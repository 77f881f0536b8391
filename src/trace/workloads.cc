#include "trace/workloads.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace mcdvfs
{

namespace
{

/** The historical per-sample stream seed (jitter always uses it). */
std::uint64_t
sampleSeedFor(std::uint64_t seed, std::size_t sample)
{
    // Distinct, deterministic per-sample stream seeds.
    return seed * 0x100000001b3ull + sample * 0x9e3779b97f4a7c15ull + 1;
}

/**
 * Small deterministic per-sample perturbation so consecutive samples
 * are similar but not identical (simulation noise the paper's 0.5%
 * tie-break filter exists to absorb).
 */
void
applyJitter(PhaseSpec &spec, double jitter, std::uint64_t sample_seed)
{
    // Always the PerSample stream: in PerPhase seed mode the trace
    // seed is derived *from* the jittered phase, so jitter drawing
    // from the trace seed would be circular.
    Rng rng(sample_seed ^ 0xa5a5a5a5deadbeefull);
    auto wobble = [&](double v) {
        return v * (1.0 + jitter * (2.0 * rng.uniform() - 1.0));
    };
    spec.baseCpi = wobble(spec.baseCpi);
    spec.mlp = std::max(1.0, wobble(spec.mlp));
    const double hot = spec.hotFrac;
    const double warm = spec.warmFrac;
    const double cold = spec.coldFrac();
    // Jitter the miss-producing tiers and renormalize via hot.
    const double new_warm = std::clamp(wobble(warm), 0.0, 0.5);
    const double new_cold = std::clamp(wobble(cold), 0.0, 0.5);
    spec.warmFrac = new_warm;
    spec.hotFrac = std::clamp(hot + (warm - new_warm) + (cold - new_cold),
                              0.0, 1.0 - new_warm);
}

} // namespace

WorkloadProfile::WorkloadProfile(std::string name, std::size_t sample_count,
                                 const Script &script, std::uint64_t seed,
                                 double jitter, SeedMode seed_mode)
{
    if (sample_count == 0)
        fatal("workload '", name, "' must have at least one sample");
    if (!script)
        fatal("workload '", name, "' has no phase script");

    auto data = std::make_shared<Data>();
    data->seedMode = seed_mode;
    data->phases.reserve(sample_count);
    data->traceSeeds.reserve(sample_count);
    HashBuilder h;
    h.add(name)
        .add(static_cast<std::uint64_t>(sample_count))
        .add(static_cast<std::uint64_t>(kModeledPerSample));
    for (std::size_t s = 0; s < sample_count; ++s) {
        PhaseSpec spec = script(s);
        const std::uint64_t sample_seed = sampleSeedFor(seed, s);
        if (jitter > 0.0)
            applyJitter(spec, jitter, sample_seed);
        spec.validate();
        // PerPhase: the seed is a pure function of the post-jitter
        // phase content — not of the workload seed or sample index —
        // so repeated phases anywhere in the fleet share one
        // characterization.  The salt keeps the stream disjoint from
        // fingerprint consumers.
        const std::uint64_t trace_seed =
            seed_mode == SeedMode::PerSample
                ? sample_seed
                : spec.fingerprint(0x9e3779b97f4a7c15ull);
        h = HashBuilder(spec.fingerprint(h.digest()));
        h.add(trace_seed);
        data->phases.push_back(std::move(spec));
        data->traceSeeds.push_back(trace_seed);
    }
    data->fingerprint = h.digest();
    data->name = std::move(name);
    data_ = std::move(data);
}

Count
WorkloadProfile::totalModeledInstructions() const
{
    return kModeledPerSample * static_cast<Count>(sampleCount());
}

void
WorkloadProfile::checkSample(std::size_t sample) const
{
    if (sample >= sampleCount()) {
        fatal("workload '", name(), "': sample ", sample,
              " out of range (", sampleCount(), " samples)");
    }
}

const PhaseSpec &
WorkloadProfile::phaseFor(std::size_t sample) const
{
    checkSample(sample);
    return data_->phases[sample];
}

std::uint64_t
WorkloadProfile::traceSeedFor(std::size_t sample) const
{
    checkSample(sample);
    return data_->traceSeeds[sample];
}

namespace
{

/** Base spec shared by the integer benchmarks. */
PhaseSpec
intBase()
{
    PhaseSpec s;
    s.loadFrac = 0.24;
    s.storeFrac = 0.10;
    s.branchFrac = 0.16;
    s.fpFrac = 0.0;
    s.mulFrac = 0.01;
    s.baseCpi = 0.9;
    s.activity = 0.65;
    return s;
}

/** Base spec shared by the floating-point benchmarks. */
PhaseSpec
fpBase()
{
    PhaseSpec s;
    s.loadFrac = 0.28;
    s.storeFrac = 0.12;
    s.branchFrac = 0.05;
    s.fpFrac = 0.30;
    s.mulFrac = 0.01;
    s.baseCpi = 1.0;
    s.activity = 0.80;
    return s;
}

} // namespace

WorkloadProfile
makeBzip2()
{
    // bzip2: CPU bound; alternating compress/decompress phases with a
    // small L2 footprint and negligible DRAM traffic.  Performance is
    // essentially independent of memory frequency (paper: within 3%
    // between 200 and 800 MHz at 1 GHz CPU).
    PhaseSpec compress = intBase();
    compress.name = "bzip2.compress";
    compress.baseCpi = 1.10;
    compress.hotFrac = 0.955;
    compress.warmFrac = 0.042;
    compress.coldSeqFrac = 0.20;
    compress.hotBytes = 28 * kKiB;
    compress.warmBytes = 640 * kKiB;
    compress.coldBytes = 32ull << 20;
    compress.mlp = 1.8;

    PhaseSpec decompress = compress;
    decompress.name = "bzip2.decompress";
    decompress.baseCpi = 0.85;
    decompress.hotFrac = 0.968;
    decompress.warmFrac = 0.030;

    return WorkloadProfile(
        "bzip2", 80,
        [=](std::size_t s) {
            // 10-sample compress / 10-sample decompress alternation.
            return (s / 10) % 2 == 0 ? compress : decompress;
        },
        0xb21f2001, /*jitter=*/0.05);
}

WorkloadProfile
makeGcc()
{
    // gcc: irregular phase structure; alternates between pointer-heavy
    // medium-footprint phases and parsing phases of varying lengths.
    PhaseSpec parse = intBase();
    parse.name = "gcc.parse";
    parse.baseCpi = 0.95;
    parse.hotFrac = 0.94;
    parse.warmFrac = 0.05;
    parse.coldSeqFrac = 0.30;
    parse.mlp = 1.5;

    PhaseSpec opt = intBase();
    opt.name = "gcc.optimize";
    opt.baseCpi = 1.15;
    opt.hotFrac = 0.88;
    opt.warmFrac = 0.09;
    opt.coldSeqFrac = 0.45;
    opt.coldBytes = 64ull << 20;
    opt.mlp = 2.2;

    PhaseSpec regalloc = intBase();
    regalloc.name = "gcc.regalloc";
    regalloc.baseCpi = 1.05;
    regalloc.hotFrac = 0.905;
    regalloc.warmFrac = 0.085;
    regalloc.coldSeqFrac = 0.10;
    regalloc.mlp = 1.3;

    return WorkloadProfile(
        "gcc", 200,
        [=](std::size_t s) {
            // Irregular segment lengths, mimicking per-function
            // compilation units of different sizes.
            if (s < 25)
                return parse;
            if (s < 55)
                return opt;
            if (s < 80)
                return parse;
            if (s < 95)
                return regalloc;
            if (s < 125)
                return opt.lerp(regalloc, 0.5);
            if (s < 150)
                return parse;
            if (s < 180)
                return opt;
            return regalloc;
        },
        0x6cc52006, /*jitter=*/0.04);
}

WorkloadProfile
makeGobmk()
{
    // gobmk: balanced CPU/memory with rapidly changing phases; the
    // paper's Figure 3 shows CPI swinging between ~0.8 and ~2.4 with
    // L1 MPKI bursts, sample to sample.
    PhaseSpec think = intBase();
    think.name = "gobmk.search";
    think.baseCpi = 0.80;
    think.branchFrac = 0.20;
    think.hotFrac = 0.975;
    think.warmFrac = 0.022;
    think.coldSeqFrac = 0.10;
    think.mlp = 1.4;

    PhaseSpec pattern = intBase();
    pattern.name = "gobmk.pattern";
    pattern.baseCpi = 1.00;
    pattern.hotFrac = 0.895;
    pattern.warmFrac = 0.082;
    pattern.coldSeqFrac = 0.15;
    pattern.warmBytes = 1024 * kKiB;
    pattern.mlp = 1.3;

    // lifedeath is deliberately close to pattern in performance
    // (within a few percent): the paper observes that a 5% cluster
    // threshold merges some of gobmk's adjacent phases while most of
    // its rapid alternation survives any threshold.
    PhaseSpec lifedeath = intBase();
    lifedeath.name = "gobmk.lifedeath";
    lifedeath.baseCpi = 1.02;
    lifedeath.hotFrac = 0.888;
    lifedeath.warmFrac = 0.086;
    lifedeath.coldSeqFrac = 0.25;
    lifedeath.warmBytes = 1024 * kKiB;
    lifedeath.mlp = 1.35;

    return WorkloadProfile(
        "gobmk", 50,
        [=](std::size_t s) {
            // Rapid alternation with a 5-sample super-period.
            switch (s % 5) {
              case 0:
              case 3:
                return think;
              case 1:
                return pattern;
              case 2:
                return lifedeath;
              default:
                // A near-think sample: close enough that a 5% cluster
                // threshold bridges the boundary, far enough that 1%
                // does not (the "slight" decrease of Fig. 8).
                return think.lerp(pattern, 0.3);
            }
        },
        0x90b3a715, /*jitter=*/0.03);
}

WorkloadProfile
makeLbm()
{
    // lbm: streaming, strongly memory bound, high MLP, long stable
    // behaviour with slow drift; bandwidth sensitive.
    PhaseSpec stream = fpBase();
    stream.name = "lbm.stream";
    stream.baseCpi = 1.05;
    stream.loadFrac = 0.26;
    stream.storeFrac = 0.16;
    stream.hotFrac = 0.62;
    stream.warmFrac = 0.06;
    stream.coldSeqFrac = 0.92;
    stream.coldBytes = 128ull << 20;
    stream.mlp = 3.6;
    stream.activity = 0.85;

    // The collide kernel is compute-leaning: the slow stream/collide
    // oscillation periodically shifts the budget frontier, breaking
    // the run into a handful of long stable regions (Fig. 6).
    PhaseSpec collide = stream;
    collide.name = "lbm.collide";
    collide.baseCpi = 1.50;
    collide.hotFrac = 0.93;
    collide.coldSeqFrac = 0.85;
    collide.mlp = 2.0;
    collide.activity = 0.88;

    return WorkloadProfile(
        "lbm", 160,
        [=](std::size_t s) {
            // Gentle long-period oscillation between the stream and
            // collide kernels, biased toward streaming.
            const double t =
                0.35 + 0.35 * std::sin(static_cast<double>(s) * 0.12);
            return stream.lerp(collide, t);
        },
        0x1b3faced, /*jitter=*/0.01);
}

WorkloadProfile
makeLibquantum()
{
    // libquantum: extremely regular single-phase streaming over a large
    // vector; essentially one stable region end to end.
    PhaseSpec gate = intBase();
    gate.name = "libquantum.gate";
    gate.baseCpi = 0.70;
    gate.loadFrac = 0.26;
    gate.storeFrac = 0.12;
    gate.branchFrac = 0.12;
    gate.hotFrac = 0.60;
    gate.warmFrac = 0.02;
    gate.coldSeqFrac = 0.97;
    gate.coldBytes = 64ull << 20;
    gate.mlp = 4.0;
    gate.activity = 0.60;

    return WorkloadProfile(
        "libq.", 120,
        [=](std::size_t) { return gate; },
        0x11bc0aa7, /*jitter=*/0.008);
}

WorkloadProfile
makeMilc()
{
    // milc: CPU-intensive FP with periodic memory-intensive bursts
    // (paper: "some memory intensive phases, however it is more CPU
    // intensive").
    PhaseSpec su3 = fpBase();
    su3.name = "milc.su3";
    su3.baseCpi = 1.15;
    su3.hotFrac = 0.945;
    su3.warmFrac = 0.045;
    su3.coldSeqFrac = 0.60;
    su3.mlp = 2.0;

    PhaseSpec gather = fpBase();
    gather.name = "milc.gather";
    gather.baseCpi = 1.05;
    gather.hotFrac = 0.80;
    gather.warmFrac = 0.10;
    gather.coldSeqFrac = 0.75;
    gather.coldBytes = 96ull << 20;
    gather.mlp = 3.0;

    return WorkloadProfile(
        "milc", 170,
        [=](std::size_t s) {
            // A gather burst of 6 samples every 24 samples.
            return (s % 24) < 6 ? gather : su3;
        },
        0x317c2006, /*jitter=*/0.03);
}

WorkloadProfile
makeMcf()
{
    // mcf: network-simplex pointer chasing over a huge graph —
    // strongly memory bound with almost no MLP and poor row locality.
    PhaseSpec chase = intBase();
    chase.name = "mcf.simplex";
    chase.baseCpi = 1.10;
    chase.loadFrac = 0.30;
    chase.storeFrac = 0.08;
    chase.hotFrac = 0.72;
    chase.warmFrac = 0.07;
    chase.coldSeqFrac = 0.05;
    chase.coldBytes = 256ull << 20;
    chase.mlp = 1.1;
    chase.activity = 0.55;

    PhaseSpec refresh_tree = chase;
    refresh_tree.name = "mcf.tree";
    refresh_tree.baseCpi = 0.95;
    refresh_tree.hotFrac = 0.80;
    refresh_tree.coldSeqFrac = 0.35;
    refresh_tree.mlp = 1.6;

    return WorkloadProfile(
        "mcf", 140,
        [=](std::size_t s) {
            // Long simplex iterations with periodic tree rebuilds.
            return (s % 18) < 14 ? chase : refresh_tree;
        },
        0x3cf00d17, /*jitter=*/0.03);
}

WorkloadProfile
makeHmmer()
{
    // hmmer: profile HMM scoring, dense and regular, tiny footprint —
    // the most CPU-bound benchmark in the set.
    PhaseSpec score = intBase();
    score.name = "hmmer.viterbi";
    score.baseCpi = 0.65;
    score.branchFrac = 0.08;
    score.hotFrac = 0.9965;
    score.warmFrac = 0.003;
    score.hotBytes = 20 * kKiB;
    score.mlp = 2.2;
    score.activity = 0.75;

    return WorkloadProfile(
        "hmmer", 90, [=](std::size_t) { return score; }, 0x44e12a9,
        /*jitter=*/0.02);
}

WorkloadProfile
makeSjeng()
{
    // sjeng: chess tree search; branchy with transposition-table
    // lookups, alternating faster than gobmk.
    PhaseSpec search = intBase();
    search.name = "sjeng.search";
    search.baseCpi = 0.85;
    search.branchFrac = 0.22;
    search.hotFrac = 0.965;
    search.warmFrac = 0.03;
    search.mlp = 1.3;

    PhaseSpec ttable = intBase();
    ttable.name = "sjeng.ttable";
    ttable.baseCpi = 1.05;
    ttable.hotFrac = 0.90;
    ttable.warmFrac = 0.07;
    ttable.coldSeqFrac = 0.05;
    ttable.coldBytes = 96ull << 20;
    ttable.mlp = 1.6;

    return WorkloadProfile(
        "sjeng", 110,
        [=](std::size_t s) { return s % 3 == 2 ? ttable : search; },
        0x53e9a221, /*jitter=*/0.03);
}

WorkloadProfile
makeOmnetpp()
{
    // omnetpp: discrete-event simulation walking heap-allocated event
    // queues — irregular, moderately memory bound.
    PhaseSpec events = intBase();
    events.name = "omnetpp.events";
    events.baseCpi = 1.00;
    events.hotFrac = 0.87;
    events.warmFrac = 0.09;
    events.coldSeqFrac = 0.15;
    events.warmBytes = 1280 * kKiB;
    events.coldBytes = 80ull << 20;
    events.mlp = 1.4;

    PhaseSpec stats = events;
    stats.name = "omnetpp.stats";
    stats.baseCpi = 0.90;
    stats.hotFrac = 0.93;
    stats.warmFrac = 0.05;

    return WorkloadProfile(
        "omnetpp", 130,
        [=](std::size_t s) {
            // Mostly event processing; statistics windows every 16.
            return (s % 16) < 13 ? events : stats;
        },
        0x0e47e77a, /*jitter=*/0.035);
}

WorkloadProfile
makeNamd()
{
    // namd: molecular dynamics force loops — floating-point dense,
    // blocked to fit caches, very stable.
    PhaseSpec forces = fpBase();
    forces.name = "namd.forces";
    forces.baseCpi = 0.85;
    forces.fpFrac = 0.40;
    forces.hotFrac = 0.97;
    forces.warmFrac = 0.025;
    forces.mlp = 2.0;
    forces.activity = 0.90;

    return WorkloadProfile(
        "namd", 100, [=](std::size_t) { return forces; }, 0x9a3dfab1,
        /*jitter=*/0.015);
}

WorkloadProfile
makeSoplex()
{
    // soplex: simplex LP solver streaming large sparse matrices, with
    // factorization bursts that are compute-heavy.
    PhaseSpec price = fpBase();
    price.name = "soplex.price";
    price.baseCpi = 1.05;
    price.loadFrac = 0.30;
    price.hotFrac = 0.70;
    price.warmFrac = 0.08;
    price.coldSeqFrac = 0.80;
    price.coldBytes = 96ull << 20;
    price.mlp = 2.8;

    PhaseSpec factor = fpBase();
    factor.name = "soplex.factor";
    factor.baseCpi = 1.20;
    factor.hotFrac = 0.94;
    factor.warmFrac = 0.045;
    factor.mlp = 1.8;
    factor.activity = 0.85;

    return WorkloadProfile(
        "soplex", 150,
        [=](std::size_t s) {
            // Factorization burst every 25 samples.
            return (s % 25) < 6 ? factor : price;
        },
        0x50f1e321, /*jitter=*/0.03);
}

WorkloadProfile
makeGlrender()
{
    // glrender: a mobile render loop.  The submit phase issues GPU
    // kicks at a high rate (frame draw calls) with modest CPU work;
    // the prepare phase is CPU-bound scene/physics work with only a
    // trickle of kicks.  The alternation makes the optimal setting
    // swing between GPU-priority and CPU-priority corners, which is
    // what the budget arbiter's cap tables act on.
    PhaseSpec submit = intBase();
    submit.name = "glrender.submit";
    submit.baseCpi = 0.95;
    submit.loadFrac = 0.20;
    submit.storeFrac = 0.08;
    submit.branchFrac = 0.12;
    submit.gpuKickFrac = 0.004;
    submit.gpuCyclesPerKick = 220'000.0;
    submit.gpuActivity = 0.85;
    submit.hotFrac = 0.93;
    submit.warmFrac = 0.05;
    submit.coldSeqFrac = 0.70;
    submit.mlp = 2.0;
    submit.activity = 0.55;

    PhaseSpec prepare = intBase();
    prepare.name = "glrender.prepare";
    prepare.baseCpi = 0.80;
    prepare.gpuKickFrac = 0.0004;
    prepare.gpuCyclesPerKick = 120'000.0;
    prepare.gpuActivity = 0.70;
    prepare.hotFrac = 0.95;
    prepare.warmFrac = 0.04;
    prepare.mlp = 1.6;
    prepare.activity = 0.75;

    return WorkloadProfile(
        "glrender", 96,
        [=](std::size_t s) {
            // 8-sample frames: 3 submit-heavy, 5 prepare-heavy, with a
            // blended boundary sample.
            switch (s % 8) {
              case 0:
              case 1:
              case 2:
                return submit;
              case 3:
                return submit.lerp(prepare, 0.5);
              default:
                return prepare;
            }
        },
        0x61e4de12, /*jitter=*/0.03);
}

namespace
{

/** One stock profile: its name and the function that builds it. */
struct StockProfile
{
    const char *name;
    WorkloadProfile (*make)();
};

/**
 * Every stock profile, the paper's six first and in its order.  The
 * one list extendedWorkloads(), standardWorkloads() and
 * workloadByName() all read, so a profile cannot be added to one and
 * missed by another.
 */
constexpr StockProfile kStockProfiles[] = {
    {"bzip2", makeBzip2},   {"gcc", makeGcc},       {"gobmk", makeGobmk},
    {"lbm", makeLbm},       {"libq.", makeLibquantum},
    {"milc", makeMilc},     {"mcf", makeMcf},       {"hmmer", makeHmmer},
    {"sjeng", makeSjeng},   {"omnetpp", makeOmnetpp},
    {"namd", makeNamd},     {"soplex", makeSoplex},
    {"glrender", makeGlrender},
};

constexpr std::size_t kStandardCount = 6;

std::vector<WorkloadProfile>
buildStock(std::size_t count)
{
    std::vector<WorkloadProfile> all;
    all.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        all.push_back(kStockProfiles[i].make());
    return all;
}

} // namespace

std::vector<WorkloadProfile>
standardWorkloads()
{
    return buildStock(kStandardCount);
}

std::vector<WorkloadProfile>
extendedWorkloads()
{
    return buildStock(std::size(kStockProfiles));
}

WorkloadProfile
workloadByName(const std::string &name)
{
    for (const StockProfile &stock : kStockProfiles) {
        if (name == stock.name)
            return stock.make();
    }
    std::string known;
    for (const StockProfile &stock : kStockProfiles)
        known.append(known.empty() ? "" : " ").append(stock.name);
    fatal("unknown workload '", name, "' (expected one of: ", known, ")");
}

} // namespace mcdvfs
