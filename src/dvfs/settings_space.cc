#include "dvfs/settings_space.hh"

#include <cmath>
#include <cstdio>

#include "common/hash.hh"
#include "common/logging.hh"

namespace mcdvfs
{

std::string
FrequencySetting::label() const
{
    char buf[48];
    if (gpu > 0.0) {
        std::snprintf(buf, sizeof(buf), "%.0f/%.0f/%.0f",
                      toMegaHertz(cpu), toMegaHertz(mem),
                      toMegaHertz(gpu));
    } else {
        std::snprintf(buf, sizeof(buf), "%.0f/%.0f", toMegaHertz(cpu),
                      toMegaHertz(mem));
    }
    return buf;
}

bool
settingPreferred(const FrequencySetting &a, const FrequencySetting &b)
{
    if (a.cpu != b.cpu)
        return a.cpu > b.cpu;
    if (a.mem != b.mem)
        return a.mem > b.mem;
    return a.gpu > b.gpu;
}

SettingsSpace::SettingsSpace(FrequencyLadder cpu, FrequencyLadder mem)
    : cpu_(std::move(cpu)), mem_(std::move(mem)),
      fingerprint_(computeFingerprint())
{
    checkSize();
}

SettingsSpace::SettingsSpace(FrequencyLadder cpu, FrequencyLadder mem,
                             FrequencyLadder gpu)
    : cpu_(std::move(cpu)), mem_(std::move(mem)), gpu_(std::move(gpu)),
      fingerprint_(computeFingerprint())
{
    checkSize();
}

void
SettingsSpace::checkSize() const
{
    // Ladders are never empty, so one ladder past the bound puts the
    // space past it too; checking each first keeps size() from
    // overflowing.
    const std::size_t gpu_steps = gpu_ ? gpu_->size() : 1;
    if (cpu_.size() > kMaxSettings || mem_.size() > kMaxSettings ||
        gpu_steps > kMaxSettings || size() > kMaxSettings) {
        fatal("settings space of ", cpu_.size(), " x ", mem_.size(),
              " x ", gpu_steps, " settings exceeds the limit of ",
              kMaxSettings);
    }
}

std::uint64_t
SettingsSpace::computeFingerprint() const
{
    HashBuilder h;
    h.add(static_cast<std::uint64_t>(domainCount()));
    const auto add_ladder = [&h](const FrequencyLadder &ladder) {
        h.add(static_cast<std::uint64_t>(ladder.size()));
        for (const Hertz f : ladder.steps())
            h.add(f);
    };
    add_ladder(cpu_);
    add_ladder(mem_);
    if (gpu_)
        add_ladder(*gpu_);
    return h.digest();
}

SettingsSpace
SettingsSpace::coarse()
{
    return SettingsSpace(FrequencyLadder::cpuCoarse(),
                         FrequencyLadder::memCoarse());
}

SettingsSpace
SettingsSpace::fine()
{
    return SettingsSpace(FrequencyLadder::cpuFine(),
                         FrequencyLadder::memFine());
}

SettingsSpace
SettingsSpace::coarse3()
{
    return SettingsSpace(FrequencyLadder::cpuCoarse(),
                         FrequencyLadder::memCoarse(),
                         FrequencyLadder::gpuCoarse());
}

FrequencySetting
SettingsSpace::at(std::size_t idx) const
{
    MCDVFS_ASSERT(idx < size(), "settings index out of range");
    FrequencySetting setting;
    if (gpu_) {
        const std::size_t g = gpu_->size();
        setting.gpu = gpu_->at(idx % g);
        idx /= g;
    }
    setting.cpu = cpu_.at(idx / mem_.size());
    setting.mem = mem_.at(idx % mem_.size());
    return setting;
}

std::size_t
SettingsSpace::indexOf(const FrequencySetting &setting) const
{
    const std::size_t ci = cpu_.closestIndex(setting.cpu);
    const std::size_t mi = mem_.closestIndex(setting.mem);
    if (std::abs(cpu_.at(ci) - setting.cpu) > 1.0 ||
        std::abs(mem_.at(mi) - setting.mem) > 1.0) {
        fatal("setting ", setting.label(), " is not in this space");
    }
    if (!gpu_) {
        if (setting.gpu != 0.0)
            fatal("setting ", setting.label(),
                  " names a GPU frequency but this space has no GPU "
                  "domain");
        return ci * mem_.size() + mi;
    }
    const std::size_t gi = gpu_->closestIndex(setting.gpu);
    if (std::abs(gpu_->at(gi) - setting.gpu) > 1.0)
        fatal("setting ", setting.label(), " is not in this space");
    return (ci * mem_.size() + mi) * gpu_->size() + gi;
}

FrequencySetting
SettingsSpace::maxSetting() const
{
    return FrequencySetting{cpu_.highest(), mem_.highest(),
                            gpu_ ? gpu_->highest() : 0.0};
}

FrequencySetting
SettingsSpace::minSetting() const
{
    return FrequencySetting{cpu_.lowest(), mem_.lowest(),
                            gpu_ ? gpu_->lowest() : 0.0};
}

const FrequencyLadder &
SettingsSpace::gpuLadder() const
{
    MCDVFS_ASSERT(gpu_.has_value(), "space has no GPU domain");
    return *gpu_;
}

std::vector<FrequencySetting>
SettingsSpace::all() const
{
    std::vector<FrequencySetting> out;
    out.reserve(size());
    for (std::size_t i = 0; i < size(); ++i)
        out.push_back(at(i));
    return out;
}

} // namespace mcdvfs
