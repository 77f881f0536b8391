#include "sim/measured_grid.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/hash.hh"
#include "common/logging.hh"

namespace mcdvfs
{

MeasuredGrid::MeasuredGrid(std::string workload, SettingsSpace space,
                           std::size_t samples,
                           Count instructions_per_sample)
    : workload_(std::move(workload)), space_(std::move(space)),
      samples_(samples), settings_(space_.size()),
      instructionsPerSample_(instructions_per_sample)
{
    if (samples_ == 0)
        fatal("measured grid: need at least one sample");
    if (instructionsPerSample_ == 0)
        fatal("measured grid: instructions per sample must be positive");
    const std::size_t cells = samples_ * settings_;
    seconds_.assign(cells, 0.0);
    cpuEnergy_.assign(cells, 0.0);
    memEnergy_.assign(cells, 0.0);
    busyFrac_.assign(cells, 1.0);
    bwUtil_.assign(cells, 0.0);
    gpuEnergy_.assign(cells, 0.0);
    sampleEmin_.assign(samples_, 0.0);
    sampleSlowest_.assign(samples_, 0.0);
}

Count
MeasuredGrid::totalInstructions() const
{
    return instructionsPerSample_ * static_cast<Count>(samples_);
}

std::size_t
MeasuredGrid::index(std::size_t sample, std::size_t setting) const
{
    MCDVFS_ASSERT(sample < samples_, "sample index out of range");
    MCDVFS_ASSERT(setting < settings_, "setting index out of range");
    return sample * settings_ + setting;
}

GridCell
MeasuredGrid::cell(std::size_t sample, std::size_t setting) const
{
    const std::size_t i = index(sample, setting);
    return GridCell{seconds_[i], cpuEnergy_[i], memEnergy_[i],
                    busyFrac_[i], bwUtil_[i],   gpuEnergy_[i]};
}

MeasuredGrid::RowView
MeasuredGrid::fillRow(std::size_t sample)
{
    MCDVFS_ASSERT(sample < samples_, "sample index out of range");
    const std::size_t base = sample * settings_;
    return RowView{seconds_.data() + base,  cpuEnergy_.data() + base,
                   memEnergy_.data() + base, busyFrac_.data() + base,
                   bwUtil_.data() + base,    gpuEnergy_.data() + base};
}

void
MeasuredGrid::updateSampleAggregates(std::size_t sample)
{
    MCDVFS_ASSERT(sample < samples_, "sample index out of range");
    const std::size_t base = sample * settings_;
    Joules emin = std::numeric_limits<double>::infinity();
    Seconds slowest = 0.0;
    for (std::size_t k = 0; k < settings_; ++k) {
        emin = std::min(emin,
                        (cpuEnergy_[base + k] + memEnergy_[base + k]) +
                            gpuEnergy_[base + k]);
        slowest = std::max(slowest, seconds_[base + k]);
    }
    sampleEmin_[sample] = emin;
    sampleSlowest_[sample] = slowest;
}

void
MeasuredGrid::setProfiles(std::vector<SampleProfile> profiles)
{
    if (profiles.size() != samples_)
        fatal("measured grid: profile count mismatch");
    profiles_ = std::move(profiles);
}

const SampleProfile &
MeasuredGrid::profile(std::size_t sample) const
{
    MCDVFS_ASSERT(sample < profiles_.size(),
                  "profiles not attached or sample out of range");
    return profiles_[sample];
}

Seconds
MeasuredGrid::totalTime(std::size_t setting) const
{
    MCDVFS_ASSERT(setting < settings_, "setting index out of range");
    Seconds total = 0.0;
    for (std::size_t s = 0; s < samples_; ++s)
        total += seconds_[s * settings_ + setting];
    return total;
}

Joules
MeasuredGrid::totalEnergy(std::size_t setting) const
{
    MCDVFS_ASSERT(setting < settings_, "setting index out of range");
    Joules total = 0.0;
    for (std::size_t s = 0; s < samples_; ++s) {
        const std::size_t i = s * settings_ + setting;
        total += (cpuEnergy_[i] + memEnergy_[i]) + gpuEnergy_[i];
    }
    return total;
}

std::uint64_t
MeasuredGrid::prefixDigest(std::size_t samples) const
{
    MCDVFS_ASSERT(samples >= 1 && samples <= samples_,
                  "digest prefix length out of range");
    std::lock_guard<std::mutex> lock(*digestMutex_);
    if (digestedRows_ < samples) {
        if (rowDigests_.size() < samples_)
            rowDigests_.resize(samples_);
        // Seed the chain with the settings space so prefixes only
        // collide across identical spaces (the §V tie-break reads the
        // setting frequencies, not just the measured columns).  The
        // GPU column is chained only on three-domain grids.
        const bool has_gpu = space_.hasGpu();
        std::uint64_t chain =
            digestedRows_ == 0
                ? fnv1aMixWord(kFnvOffsetBasis, space_.fingerprint())
                : rowDigests_[digestedRows_ - 1];
        for (std::size_t s = digestedRows_; s < samples; ++s) {
            const std::size_t base = s * settings_;
            for (std::size_t k = 0; k < settings_; ++k) {
                chain = fnv1aMixWord(
                    chain,
                    std::bit_cast<std::uint64_t>(seconds_[base + k]));
                chain = fnv1aMixWord(
                    chain, std::bit_cast<std::uint64_t>(
                               cpuEnergy_[base + k]));
                chain = fnv1aMixWord(
                    chain, std::bit_cast<std::uint64_t>(
                               memEnergy_[base + k]));
                if (has_gpu)
                    chain = fnv1aMixWord(
                        chain, std::bit_cast<std::uint64_t>(
                                   gpuEnergy_[base + k]));
            }
            rowDigests_[s] = chain;
        }
        digestedRows_ = samples;
    }
    return rowDigests_[samples - 1];
}

} // namespace mcdvfs
