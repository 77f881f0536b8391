/**
 * @file
 * The joint multi-domain frequency setting space.
 *
 * A FrequencySetting is one joint operating point of the frequency
 * domains — (CPU, memory) in the paper's two-domain configuration,
 * (CPU, memory, GPU) in the SysScale-style three-domain extension.  A
 * SettingsSpace is the cross product of the per-domain ladders,
 * indexable so analyses can store per-setting data in flat arrays.
 *
 * The GPU domain is optional: spaces built from two ladders behave
 * exactly as before (same indices, same labels, gpu pinned to 0), and
 * a third ladder extends the cross product with the GPU frequency as
 * the fastest-varying index digit.
 *
 * Construction rejects spaces over kMaxSettings, the SettingMask
 * capacity, so the analyses never need to check a space's size.
 *
 * A space is immutable: its ladders and fingerprint live in one shared
 * block built by the constructor, so a copy (every TuningRequest
 * carries one) is a reference-count increment, not two vector copies.
 */

#ifndef MCDVFS_DVFS_SETTINGS_SPACE_HH
#define MCDVFS_DVFS_SETTINGS_SPACE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/units.hh"
#include "dvfs/frequency_ladder.hh"

namespace mcdvfs
{

/** One joint operating point of the frequency domains. */
struct FrequencySetting
{
    Hertz cpu = 0.0;
    Hertz mem = 0.0;
    /** GPU frequency; 0 in two-domain spaces (no GPU domain). */
    Hertz gpu = 0.0;

    bool
    operator==(const FrequencySetting &other) const
    {
        return cpu == other.cpu && mem == other.mem && gpu == other.gpu;
    }

    /** "920/580" ("920/580/600" with a GPU) label in MHz, for tables. */
    std::string label() const;
};

/**
 * Ordering used by the paper's tie-break: prefer the setting with the
 * highest CPU frequency, then the highest memory frequency, then the
 * highest GPU frequency.  Two-domain settings (gpu == 0 on both
 * sides) order exactly as before.
 */
bool settingPreferred(const FrequencySetting &a, const FrequencySetting &b);

/** Indexed cross product of the per-domain frequency ladders. */
class SettingsSpace
{
  public:
    /**
     * Largest cross product (2^20 settings); both constructors throw
     * FatalError beyond it.
     */
    static constexpr std::size_t kMaxSettings = std::size_t{1} << 20;

    SettingsSpace(FrequencyLadder cpu, FrequencyLadder mem);

    /** Three-domain space: CPU x memory x GPU. */
    SettingsSpace(FrequencyLadder cpu, FrequencyLadder mem,
                  FrequencyLadder gpu);

    /** Paper's coarse 10 x 7 = 70-setting space. */
    static SettingsSpace coarse();

    /** Paper's fine 31 x 16 = 496-setting space. */
    static SettingsSpace fine();

    /** Three-domain coarse 10 x 7 x 8 = 560-setting space. */
    static SettingsSpace coarse3();

    /** Number of frequency domains (2 or 3). */
    std::size_t domainCount() const { return data_->gpu ? 3 : 2; }

    /** True when the space carries a GPU domain. */
    bool hasGpu() const { return data_->gpu.has_value(); }

    /** Total number of settings. */
    std::size_t
    size() const
    {
        return data_->cpu.size() * data_->mem.size() *
               (data_->gpu ? data_->gpu->size() : 1);
    }

    /** Setting at flat index (CPU-major, GPU fastest-varying). */
    FrequencySetting at(std::size_t idx) const;

    /** Flat index of a setting that must exist in the space. */
    std::size_t indexOf(const FrequencySetting &setting) const;

    /** Highest-performance setting (max frequency in every domain). */
    FrequencySetting maxSetting() const;

    /** Lowest setting (min frequency in every domain). */
    FrequencySetting minSetting() const;

    const FrequencyLadder &cpuLadder() const { return data_->cpu; }
    const FrequencyLadder &memLadder() const { return data_->mem; }

    /** GPU ladder; only valid when hasGpu(). */
    const FrequencyLadder &gpuLadder() const;

    /** All settings in flat-index order. */
    std::vector<FrequencySetting> all() const;

    /**
     * Content hash of the space, computed once at construction: the
     * domain count and every per-domain ladder (length plus steps).
     * Hashing the domain list — not the flattened cross product —
     * keeps a three-domain space from colliding with a two-domain
     * space that shares its CPU x mem prefix.  This is the space word
     * of svc::GridKey.
     */
    std::uint64_t fingerprint() const { return data_->fingerprint; }

  private:
    /** Everything a space is, built once by the constructors. */
    struct Data
    {
        FrequencyLadder cpu;
        FrequencyLadder mem;
        std::optional<FrequencyLadder> gpu;
        std::uint64_t fingerprint = 0;
    };

    /**
     * The block of a space over these ladders.
     *
     * @throws FatalError beyond kMaxSettings
     */
    static std::shared_ptr<const Data> makeData(
        FrequencyLadder cpu, FrequencyLadder mem,
        std::optional<FrequencyLadder> gpu);

    std::shared_ptr<const Data> data_;
};

} // namespace mcdvfs

#endif // MCDVFS_DVFS_SETTINGS_SPACE_HH
