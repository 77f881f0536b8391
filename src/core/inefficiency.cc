#include "core/inefficiency.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mcdvfs
{

InefficiencyAnalysis::InefficiencyAnalysis(const MeasuredGrid &grid)
    : grid_(grid)
{
    // A row its writer never finished reads Emin 0.
    for (std::size_t s = 0; s < grid.sampleCount(); ++s)
        MCDVFS_ASSERT(grid.sampleEmin(s) > 0.0,
                      "sample energy must be positive");
}

void
InefficiencyAnalysis::ensureRunAggregates() const
{
    std::call_once(runAggregatesOnce_, [this] {
        const std::size_t settings = grid_.settingCount();
        runEnergy_.resize(settings);
        runTime_.resize(settings);
        for (std::size_t k = 0; k < settings; ++k) {
            runEnergy_[k] = grid_.totalEnergy(k);
            runTime_[k] = grid_.totalTime(k);
        }
        eminTotal_ = *std::min_element(runEnergy_.begin(),
                                       runEnergy_.end());
        slowestTotal_ = *std::max_element(runTime_.begin(),
                                          runTime_.end());
    });
}

double
InefficiencyAnalysis::sampleInefficiency(std::size_t sample,
                                         std::size_t setting) const
{
    return grid_.energyAt(sample, setting) / grid_.sampleEmin(sample);
}

double
InefficiencyAnalysis::sampleSpeedup(std::size_t sample,
                                    std::size_t setting) const
{
    return grid_.sampleSlowest(sample) / grid_.secondsAt(sample, setting);
}

double
InefficiencyAnalysis::runInefficiency(std::size_t setting) const
{
    ensureRunAggregates();
    MCDVFS_ASSERT(setting < runEnergy_.size(), "setting out of range");
    return runEnergy_[setting] / eminTotal_;
}

double
InefficiencyAnalysis::runSpeedup(std::size_t setting) const
{
    ensureRunAggregates();
    MCDVFS_ASSERT(setting < runTime_.size(), "setting out of range");
    return slowestTotal_ / runTime_[setting];
}

Joules
InefficiencyAnalysis::eminTotal() const
{
    ensureRunAggregates();
    return eminTotal_;
}

double
InefficiencyAnalysis::maxRunInefficiency() const
{
    ensureRunAggregates();
    double imax = 0.0;
    for (std::size_t k = 0; k < runEnergy_.size(); ++k)
        imax = std::max(imax, runInefficiency(k));
    return imax;
}

} // namespace mcdvfs
