#include "core/optimal_settings.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mcdvfs
{

OptimalSettingsFinder::OptimalSettingsFinder(
    const InefficiencyAnalysis &analysis, double noise_threshold)
    : analysis_(analysis), noiseThreshold_(noise_threshold)
{
    if (noise_threshold < 0.0)
        fatal("optimal settings: noise threshold must be >= 0");
}

std::vector<std::size_t>
OptimalSettingsFinder::feasibleSettings(std::size_t sample,
                                        double budget) const
{
    if (!(budget >= 1.0)) {  // NaN fails too
        fatal("inefficiency budget must be >= 1 (the most efficient "
              "execution has inefficiency exactly 1), got ", budget);
    }
    const std::size_t settings = analysis_.grid().settingCount();
    std::vector<std::size_t> feasible;
    feasible.reserve(settings);
    for (std::size_t k = 0; k < settings; ++k) {
        if (analysis_.sampleInefficiency(sample, k) <= budget)
            feasible.push_back(k);
    }
    // The Emin setting always has inefficiency exactly 1.
    MCDVFS_ASSERT(!feasible.empty(), "budget filter produced no settings");
    return feasible;
}

OptimalChoice
OptimalSettingsFinder::optimalForSample(std::size_t sample,
                                        double budget) const
{
    const MeasuredGrid &grid = analysis_.grid();
    const std::vector<std::size_t> feasible =
        feasibleSettings(sample, budget);

    // First pass: highest speedup among feasible settings.
    double best_speedup = 0.0;
    for (const std::size_t k : feasible) {
        best_speedup =
            std::max(best_speedup, analysis_.sampleSpeedup(sample, k));
    }

    // Second pass: among settings within the noise window of the best
    // speedup, prefer highest CPU frequency, then highest memory
    // frequency (the paper's tie-break, §V).
    const double cutoff = best_speedup * (1.0 - noiseThreshold_);
    bool have_choice = false;
    OptimalChoice choice;
    for (const std::size_t k : feasible) {
        if (analysis_.sampleSpeedup(sample, k) < cutoff)
            continue;
        const FrequencySetting candidate = grid.space().at(k);
        if (!have_choice || settingPreferred(candidate, choice.setting)) {
            have_choice = true;
            choice.settingIndex = k;
            choice.setting = candidate;
        }
    }
    MCDVFS_ASSERT(have_choice, "tie-break produced no setting");
    choice.speedup = analysis_.sampleSpeedup(sample, choice.settingIndex);
    choice.inefficiency =
        analysis_.sampleInefficiency(sample, choice.settingIndex);
    return choice;
}

std::vector<OptimalChoice>
OptimalSettingsFinder::optimalTrajectory(double budget) const
{
    const std::size_t samples = analysis_.grid().sampleCount();
    std::vector<OptimalChoice> trajectory;
    trajectory.reserve(samples);
    for (std::size_t s = 0; s < samples; ++s)
        trajectory.push_back(optimalForSample(s, budget));
    return trajectory;
}

} // namespace mcdvfs
