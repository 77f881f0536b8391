/**
 * @file
 * Unit and property tests for the joint settings space.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "dvfs/settings_space.hh"

namespace mcdvfs
{
namespace
{

TEST(SettingsSpace, CoarseHas70Settings)
{
    EXPECT_EQ(SettingsSpace::coarse().size(), 70u);
}

TEST(SettingsSpace, FineHas496Settings)
{
    EXPECT_EQ(SettingsSpace::fine().size(), 496u);
}

TEST(SettingsSpace, IndexRoundTrip)
{
    const SettingsSpace space = SettingsSpace::coarse();
    for (std::size_t k = 0; k < space.size(); ++k)
        EXPECT_EQ(space.indexOf(space.at(k)), k);
}

TEST(SettingsSpace, IndexOfUnknownThrows)
{
    const SettingsSpace space = SettingsSpace::coarse();
    EXPECT_THROW(
        space.indexOf(FrequencySetting{megaHertz(550), megaHertz(800)}),
        FatalError);
    EXPECT_THROW(
        space.indexOf(FrequencySetting{megaHertz(500), megaHertz(850)}),
        FatalError);
}

TEST(SettingsSpace, MaxAndMinSettings)
{
    const SettingsSpace space = SettingsSpace::coarse();
    EXPECT_DOUBLE_EQ(space.maxSetting().cpu, megaHertz(1000));
    EXPECT_DOUBLE_EQ(space.maxSetting().mem, megaHertz(800));
    EXPECT_DOUBLE_EQ(space.minSetting().cpu, megaHertz(100));
    EXPECT_DOUBLE_EQ(space.minSetting().mem, megaHertz(200));
}

TEST(SettingsSpace, AllEnumeratesEverySetting)
{
    const SettingsSpace space = SettingsSpace::coarse();
    const auto all = space.all();
    ASSERT_EQ(all.size(), 70u);
    EXPECT_TRUE(all.front() ==
                (FrequencySetting{megaHertz(100), megaHertz(200)}));
    EXPECT_TRUE(all.back() == space.maxSetting());
}

TEST(FrequencySetting, Label)
{
    const FrequencySetting setting{megaHertz(920), megaHertz(580)};
    EXPECT_EQ(setting.label(), "920/580");
}

TEST(FrequencySetting, PreferenceOrderingCpuFirst)
{
    // The paper's tie-break: highest CPU frequency first, then
    // highest memory frequency.
    const FrequencySetting a{megaHertz(900), megaHertz(200)};
    const FrequencySetting b{megaHertz(800), megaHertz(800)};
    EXPECT_TRUE(settingPreferred(a, b));
    EXPECT_FALSE(settingPreferred(b, a));
}

TEST(FrequencySetting, PreferenceOrderingMemSecond)
{
    const FrequencySetting a{megaHertz(900), megaHertz(700)};
    const FrequencySetting b{megaHertz(900), megaHertz(500)};
    EXPECT_TRUE(settingPreferred(a, b));
    EXPECT_FALSE(settingPreferred(b, a));
    EXPECT_FALSE(settingPreferred(a, a));  // strict ordering
}

/** A ladder of @c steps 1 MHz steps from 1 MHz. */
FrequencyLadder
ladderOf(std::size_t steps)
{
    return FrequencyLadder(megaHertz(1),
                           megaHertz(static_cast<double>(steps)),
                           megaHertz(1));
}

TEST(SettingsSpace, RejectsSpacesOverTheBound)
{
    // 2^20 settings is the largest space: it builds, one more CPU step
    // (or a third domain on top of it) is rejected where it is built.
    ASSERT_EQ(SettingsSpace::kMaxSettings, std::size_t{1} << 20);
    EXPECT_EQ(SettingsSpace(ladderOf(1024), ladderOf(1024)).size(),
              SettingsSpace::kMaxSettings);
    EXPECT_THROW(SettingsSpace(ladderOf(1025), ladderOf(1024)),
                 FatalError);
    EXPECT_THROW(
        SettingsSpace(ladderOf(1024), ladderOf(1024), ladderOf(2)),
        FatalError);
    EXPECT_EQ(
        SettingsSpace(ladderOf(512), ladderOf(1024), ladderOf(2)).size(),
        SettingsSpace::kMaxSettings);
}

TEST(SettingsSpace, CopiesShareOneBlock)
{
    // A space is one immutable block: a copy (every request carries
    // one) shares its source's ladders instead of copying them.
    const SettingsSpace fine = SettingsSpace::fine();
    const SettingsSpace fine_copy = fine;
    EXPECT_EQ(&fine_copy.cpuLadder(), &fine.cpuLadder());
    EXPECT_EQ(&fine_copy.memLadder(), &fine.memLadder());
    EXPECT_EQ(fine_copy.fingerprint(), fine.fingerprint());

    const SettingsSpace coarse3 = SettingsSpace::coarse3();
    SettingsSpace coarse3_copy = SettingsSpace::coarse();
    coarse3_copy = coarse3;
    EXPECT_EQ(&coarse3_copy.cpuLadder(), &coarse3.cpuLadder());
    EXPECT_EQ(&coarse3_copy.memLadder(), &coarse3.memLadder());
    EXPECT_EQ(&coarse3_copy.gpuLadder(), &coarse3.gpuLadder());
    EXPECT_EQ(coarse3_copy.fingerprint(), coarse3.fingerprint());
}

/** Property: at() is CPU-major and consistent with the ladders. */
TEST(SettingsSpace, CpuMajorLayout)
{
    const SettingsSpace space = SettingsSpace::coarse();
    const std::size_t mem_steps = space.memLadder().size();
    for (std::size_t k = 0; k < space.size(); ++k) {
        const FrequencySetting setting = space.at(k);
        EXPECT_DOUBLE_EQ(setting.cpu,
                         space.cpuLadder().at(k / mem_steps));
        EXPECT_DOUBLE_EQ(setting.mem,
                         space.memLadder().at(k % mem_steps));
    }
}

} // namespace
} // namespace mcdvfs
