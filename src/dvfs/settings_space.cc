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
    : data_(makeData(std::move(cpu), std::move(mem), std::nullopt))
{
}

SettingsSpace::SettingsSpace(FrequencyLadder cpu, FrequencyLadder mem,
                             FrequencyLadder gpu)
    : data_(makeData(std::move(cpu), std::move(mem), std::move(gpu)))
{
}

std::shared_ptr<const SettingsSpace::Data>
SettingsSpace::makeData(FrequencyLadder cpu, FrequencyLadder mem,
                        std::optional<FrequencyLadder> gpu)
{
    // Ladders are never empty, so one ladder past the bound puts the
    // space past it too; checking each first keeps the product from
    // overflowing.
    const std::size_t gpu_steps = gpu ? gpu->size() : 1;
    if (cpu.size() > kMaxSettings || mem.size() > kMaxSettings ||
        gpu_steps > kMaxSettings ||
        cpu.size() * mem.size() * gpu_steps > kMaxSettings) {
        fatal("settings space of ", cpu.size(), " x ", mem.size(), " x ",
              gpu_steps, " settings exceeds the limit of ", kMaxSettings);
    }

    HashBuilder h;
    h.add(static_cast<std::uint64_t>(gpu ? 3 : 2));
    const auto add_ladder = [&h](const FrequencyLadder &ladder) {
        h.add(static_cast<std::uint64_t>(ladder.size()));
        for (const Hertz f : ladder.steps())
            h.add(f);
    };
    add_ladder(cpu);
    add_ladder(mem);
    if (gpu)
        add_ladder(*gpu);
    const std::uint64_t fingerprint = h.digest();
    return std::make_shared<Data>(
        Data{std::move(cpu), std::move(mem), std::move(gpu), fingerprint});
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
    const Data &d = *data_;
    FrequencySetting setting;
    if (d.gpu) {
        const std::size_t g = d.gpu->size();
        setting.gpu = d.gpu->at(idx % g);
        idx /= g;
    }
    setting.cpu = d.cpu.at(idx / d.mem.size());
    setting.mem = d.mem.at(idx % d.mem.size());
    return setting;
}

std::size_t
SettingsSpace::indexOf(const FrequencySetting &setting) const
{
    const Data &d = *data_;
    const std::size_t ci = d.cpu.closestIndex(setting.cpu);
    const std::size_t mi = d.mem.closestIndex(setting.mem);
    if (std::abs(d.cpu.at(ci) - setting.cpu) > 1.0 ||
        std::abs(d.mem.at(mi) - setting.mem) > 1.0) {
        fatal("setting ", setting.label(), " is not in this space");
    }
    if (!d.gpu) {
        if (setting.gpu != 0.0)
            fatal("setting ", setting.label(),
                  " names a GPU frequency but this space has no GPU "
                  "domain");
        return ci * d.mem.size() + mi;
    }
    const std::size_t gi = d.gpu->closestIndex(setting.gpu);
    if (std::abs(d.gpu->at(gi) - setting.gpu) > 1.0)
        fatal("setting ", setting.label(), " is not in this space");
    return (ci * d.mem.size() + mi) * d.gpu->size() + gi;
}

FrequencySetting
SettingsSpace::maxSetting() const
{
    const Data &d = *data_;
    return FrequencySetting{d.cpu.highest(), d.mem.highest(),
                            d.gpu ? d.gpu->highest() : 0.0};
}

FrequencySetting
SettingsSpace::minSetting() const
{
    const Data &d = *data_;
    return FrequencySetting{d.cpu.lowest(), d.mem.lowest(),
                            d.gpu ? d.gpu->lowest() : 0.0};
}

const FrequencyLadder &
SettingsSpace::gpuLadder() const
{
    MCDVFS_ASSERT(data_->gpu.has_value(), "space has no GPU domain");
    return *data_->gpu;
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
