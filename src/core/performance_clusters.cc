#include "core/performance_clusters.hh"

#include <algorithm>

#include "common/logging.hh"
#include "exec/thread_pool.hh"

namespace mcdvfs
{

bool
PerformanceCluster::contains(std::size_t setting_index) const
{
    MCDVFS_DEBUG_ASSERT(std::is_sorted(settings.begin(), settings.end()),
                        "cluster settings must be sorted");
    return std::binary_search(settings.begin(), settings.end(),
                              setting_index);
}

PerformanceCluster
ClusterTable::materialize(std::size_t sample) const
{
    MCDVFS_ASSERT(sample < masks.size(), "sample out of range");
    PerformanceCluster cluster;
    cluster.optimal = optimal[sample];
    cluster.settings.reserve(masks[sample].count());
    for (const std::size_t k : masks[sample])
        cluster.settings.push_back(k);
    return cluster;
}

ClusterFinder::ClusterFinder(const OptimalSettingsFinder &finder)
    : ClusterFinder(finder, 0)
{
}

ClusterFinder::ClusterFinder(const OptimalSettingsFinder &finder,
                             std::size_t first_sample)
    : finder_(finder),
      settings_(finder.analysis().grid().space().all()),
      tableFirst_(first_sample)
{
    const InefficiencyAnalysis &analysis = finder_.analysis();
    const MeasuredGrid &grid = analysis.grid();
    const std::size_t settings = grid.settingCount();

    // Hoist every division out of the query path: each cell's speedup
    // and inefficiency mirror InefficiencyAnalysis::sampleSpeedup /
    // sampleInefficiency exactly, so every downstream comparison stays
    // bit-identical to the scalar reference.  A tail-range finder
    // hoists only [tableFirst_, samples): the division work stays
    // proportional to the samples it will be asked about.
    const std::size_t samples = grid.sampleCount();
    MCDVFS_ASSERT(tableFirst_ <= samples,
                  "table range start out of range");
    speedups_.resize((samples - tableFirst_) * settings);
    inefficiencies_.resize((samples - tableFirst_) * settings);
    for (std::size_t s = tableFirst_; s < samples; ++s) {
        const double emin = analysis.sampleEmin(s);
        const double slowest = analysis.sampleSlowest(s);
        const double *sec = grid.secondsRow(s);
        const double *cpu = grid.cpuEnergyRow(s);
        const double *mem = grid.memEnergyRow(s);
        const double *gpu = grid.gpuEnergyRow(s);
        double *spd =
            speedups_.data() + (s - tableFirst_) * settings;
        double *ineff =
            inefficiencies_.data() + (s - tableFirst_) * settings;
        for (std::size_t k = 0; k < settings; ++k) {
            spd[k] = slowest / sec[k];
            // Same association as MeasuredGrid::energyAt: the GPU
            // column is +0.0 on two-domain grids, so their bits are
            // untouched.
            ineff[k] = ((cpu[k] + mem[k]) + gpu[k]) / emin;
        }
    }
}

void
ClusterFinder::fillSample(std::size_t sample, double budget,
                          double threshold, OptimalChoice &optimal,
                          SettingMask &mask) const
{
    if (!(threshold >= 0.0))  // NaN fails too
        fatal("cluster threshold must be >= 0, got ", threshold);

    SettingMask feasible;
    fillBudget(sample, budget, optimal, feasible);
    fillCluster(sample, threshold, optimal, feasible, mask);
}

void
ClusterFinder::fillBudget(std::size_t sample, double budget,
                          OptimalChoice &optimal,
                          SettingMask &feasible_out) const
{
    if (!(budget >= 1.0)) {  // NaN fails too
        fatal("inefficiency budget must be >= 1 (the most efficient "
              "execution has inefficiency exactly 1), got ", budget);
    }

    const MeasuredGrid &grid = finder_.analysis().grid();
    const std::size_t settings = grid.settingCount();
    MCDVFS_ASSERT(sample < grid.sampleCount(), "sample out of range");

    const double *speedups = speedupRow(sample);
    const double *ineff = inefficiencyRow(sample);

    // Pass 1: one compare per setting over the precomputed rows derives
    // budget feasibility and the best feasible speedup — the divisions
    // behind both values were hoisted to construction.  Filled into
    // the caller's mask directly so sweep loops reuse one scratch
    // object per thread instead of copying a local per cell.
    feasible_out = SettingMask(settings);
    SettingMask &feasible = feasible_out;
    double best_speedup = 0.0;
#if MCDVFS_SIMD_AVX2
    if (simd::haveAvx2()) {
        // Four lanes per compare: the LE predicate word comes from a
        // movemask and the best feasible speedup from a masked max
        // (infeasible lanes contribute 0.0, below every speedup).
        // Max over doubles selects one of the operands, so any
        // reduction order yields the same bits as the scalar loop.
        const __m256d vbudget = _mm256_set1_pd(budget);
        __m256d vbest = _mm256_setzero_pd();
        for (std::size_t w = 0; w * 64 < settings; ++w) {
            const std::size_t base = w * 64;
            const std::size_t lanes = std::min<std::size_t>(
                64, settings - base);
            std::uint64_t bits = 0;
            std::size_t j = 0;
            for (; j + 4 <= lanes; j += 4) {
                const __m256d vineff =
                    _mm256_loadu_pd(ineff + base + j);
                const __m256d le =
                    _mm256_cmp_pd(vineff, vbudget, _CMP_LE_OQ);
                bits |= static_cast<std::uint64_t>(
                            _mm256_movemask_pd(le))
                        << j;
                const __m256d vspd =
                    _mm256_loadu_pd(speedups + base + j);
                vbest = _mm256_max_pd(vbest,
                                      _mm256_and_pd(le, vspd));
            }
            for (; j < lanes; ++j) {
                if (ineff[base + j] <= budget) {
                    bits |= std::uint64_t{1} << j;
                    best_speedup = std::max(best_speedup,
                                            speedups[base + j]);
                }
            }
            feasible.setWord(w, bits);
        }
        alignas(32) double fold[4];
        _mm256_store_pd(fold, vbest);
        for (const double lane : fold)
            best_speedup = std::max(best_speedup, lane);
    } else
#elif MCDVFS_SIMD_NEON
    if (simd::haveNeon()) {
        const float64x2_t vbudget = vdupq_n_f64(budget);
        float64x2_t vbest = vdupq_n_f64(0.0);
        for (std::size_t w = 0; w * 64 < settings; ++w) {
            const std::size_t base = w * 64;
            const std::size_t lanes = std::min<std::size_t>(
                64, settings - base);
            std::uint64_t bits = 0;
            std::size_t j = 0;
            for (; j + 2 <= lanes; j += 2) {
                const uint64x2_t le = vcleq_f64(
                    vld1q_f64(ineff + base + j), vbudget);
                bits |= (vgetq_lane_u64(le, 0) & 1) << j;
                bits |= (vgetq_lane_u64(le, 1) & 1) << (j + 1);
                const float64x2_t vspd =
                    vld1q_f64(speedups + base + j);
                vbest = vmaxq_f64(
                    vbest,
                    vreinterpretq_f64_u64(vandq_u64(
                        le, vreinterpretq_u64_f64(vspd))));
            }
            for (; j < lanes; ++j) {
                if (ineff[base + j] <= budget) {
                    bits |= std::uint64_t{1} << j;
                    best_speedup = std::max(best_speedup,
                                            speedups[base + j]);
                }
            }
            feasible.setWord(w, bits);
        }
        best_speedup = std::max(best_speedup,
                                vgetq_lane_f64(vbest, 0));
        best_speedup = std::max(best_speedup,
                                vgetq_lane_f64(vbest, 1));
    } else
#endif
    {
        for (std::size_t k = 0; k < settings; ++k) {
            if (ineff[k] <= budget) {
                feasible.set(k);
                best_speedup = std::max(best_speedup, speedups[k]);
            }
        }
    }
    // The Emin setting always has inefficiency exactly 1.
    MCDVFS_ASSERT(feasible.any(), "budget filter produced no settings");

    // Pass 2 (§V tie-break): among feasible settings within the noise
    // window of the best speedup, prefer highest CPU frequency, then
    // highest memory frequency.  The cutoff filter is word-wise, so
    // the per-bit walk only touches the few candidates in the window.
    const double noise_cutoff =
        best_speedup * (1.0 - finder_.noiseThreshold());
    bool have_choice = false;
    OptimalChoice choice;
    for (const std::size_t k : feasible.filterGE(speedups, noise_cutoff)) {
        const FrequencySetting candidate = settings_[k];
        if (!have_choice || settingPreferred(candidate, choice.setting)) {
            have_choice = true;
            choice.settingIndex = k;
            choice.setting = candidate;
        }
    }
    MCDVFS_ASSERT(have_choice, "tie-break produced no setting");
    choice.speedup = speedups[choice.settingIndex];
    choice.inefficiency = ineff[choice.settingIndex];

    optimal = choice;
}

void
ClusterFinder::fillCluster(std::size_t sample, double threshold,
                           const OptimalChoice &optimal,
                           const SettingMask &feasible,
                           SettingMask &mask) const
{
    if (!(threshold >= 0.0))  // NaN fails too
        fatal("cluster threshold must be >= 0, got ", threshold);

    const double *speedups = speedupRow(sample);

    // Pass 3 (§VI-A): the cluster is the feasible set minus settings
    // below the threshold cutoff, one word-wise filter.
    const double cluster_cutoff = optimal.speedup * (1.0 - threshold);
    mask = feasible.filterGE(speedups, cluster_cutoff);
    MCDVFS_ASSERT(mask.test(optimal.settingIndex),
                  "cluster must contain its optimum");
}

PerformanceCluster
ClusterFinder::clusterForSample(std::size_t sample, double budget,
                                double threshold) const
{
    OptimalChoice optimal;
    SettingMask mask;
    fillSample(sample, budget, threshold, optimal, mask);

    PerformanceCluster cluster;
    cluster.optimal = optimal;
    cluster.settings.reserve(mask.count());
    for (const std::size_t k : mask)
        cluster.settings.push_back(k);
    return cluster;
}

ClusterTable
ClusterFinder::table(double budget, double threshold,
                     exec::ThreadPool *pool) const
{
    const MeasuredGrid &grid = finder_.analysis().grid();
    const std::size_t samples = grid.sampleCount();

    ClusterTable out;
    out.budget = budget;
    out.threshold = threshold;
    out.optimal.resize(samples);
    out.masks.resize(samples);

    auto body = [&](std::size_t s) {
        fillSample(s, budget, threshold, out.optimal[s], out.masks[s]);
    };
    if (pool != nullptr) {
        // Chunk the fan-out so each claimed range amortizes the shared
        // counter: the fill is comparison-only, so per-sample chunks
        // would be all overhead.  Chunking never changes which slot an
        // index writes, so the result stays bit-identical.
        const std::size_t grain = std::max<std::size_t>(
            1, samples / (4 * (pool->size() + 1)));
        pool->parallelFor(std::size_t{0}, samples, body, grain);
    } else {
        for (std::size_t s = 0; s < samples; ++s)
            body(s);
    }
    return out;
}

std::vector<PerformanceCluster>
ClusterFinder::clusters(double budget, double threshold) const
{
    return clusters(budget, threshold, nullptr);
}

std::vector<PerformanceCluster>
ClusterFinder::clusters(double budget, double threshold,
                        exec::ThreadPool *pool) const
{
    const ClusterTable tbl = table(budget, threshold, pool);
    std::vector<PerformanceCluster> out;
    out.reserve(tbl.sampleCount());
    for (std::size_t s = 0; s < tbl.sampleCount(); ++s)
        out.push_back(tbl.materialize(s));
    return out;
}

} // namespace mcdvfs
