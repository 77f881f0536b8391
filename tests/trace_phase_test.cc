/**
 * @file
 * Unit tests for PhaseSpec validation, interpolation and fingerprint.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>

#include "common/logging.hh"
#include "trace/phase.hh"

namespace mcdvfs
{
namespace
{

/** PhaseSpec's fields besides its name, all eight bytes wide. */
constexpr std::size_t kWordFields = 17;

// A field PhaseSpec gains must be hashed, interpolated and perturbed
// below; a forgotten one in fingerprint() is a silent stale cache hit.
static_assert(sizeof(PhaseSpec) ==
                  sizeof(std::string) + kWordFields * sizeof(std::uint64_t),
              "PhaseSpec gained or lost a field: update the field lists "
              "in PhaseSpec::fingerprint() and PhaseSpec::lerp(), "
              "kPerturbations below, then kWordFields");

/** One field of PhaseSpec, changed to a different valid value. */
struct Perturbation
{
    const char *field;
    void (*apply)(PhaseSpec &);
};

const Perturbation kPerturbations[] = {
    {"name", [](PhaseSpec &p) { p.name += "'"; }},
    {"loadFrac", [](PhaseSpec &p) { p.loadFrac += 0.05; }},
    {"storeFrac", [](PhaseSpec &p) { p.storeFrac += 0.05; }},
    {"branchFrac", [](PhaseSpec &p) { p.branchFrac += 0.05; }},
    {"fpFrac", [](PhaseSpec &p) { p.fpFrac += 0.05; }},
    {"mulFrac", [](PhaseSpec &p) { p.mulFrac += 0.05; }},
    {"baseCpi", [](PhaseSpec &p) { p.baseCpi += 0.5; }},
    {"hotFrac", [](PhaseSpec &p) { p.hotFrac -= 0.1; }},
    {"warmFrac", [](PhaseSpec &p) { p.warmFrac -= 0.05; }},
    {"hotBytes", [](PhaseSpec &p) { p.hotBytes *= 2; }},
    {"warmBytes", [](PhaseSpec &p) { p.warmBytes *= 2; }},
    {"coldBytes", [](PhaseSpec &p) { p.coldBytes *= 2; }},
    {"coldSeqFrac", [](PhaseSpec &p) { p.coldSeqFrac += 0.25; }},
    {"mlp", [](PhaseSpec &p) { p.mlp += 1.0; }},
    {"activity", [](PhaseSpec &p) { p.activity += 0.1; }},
    {"gpuKickFrac", [](PhaseSpec &p) { p.gpuKickFrac += 0.01; }},
    {"gpuCyclesPerKick",
     [](PhaseSpec &p) { p.gpuCyclesPerKick += 1000.0; }},
    {"gpuActivity", [](PhaseSpec &p) { p.gpuActivity += 0.5; }},
};
static_assert(std::size(kPerturbations) == 1 + kWordFields,
              "one perturbation per PhaseSpec field");

TEST(PhaseSpec, FingerprintCoversEveryField)
{
    const PhaseSpec base;
    for (const Perturbation &perturbation : kPerturbations) {
        PhaseSpec changed = base;
        perturbation.apply(changed);
        EXPECT_NO_THROW(changed.validate()) << perturbation.field;
        EXPECT_NE(changed.fingerprint(), base.fingerprint())
            << perturbation.field;
        EXPECT_NE(changed.fingerprint(7), base.fingerprint(7))
            << perturbation.field;
    }
}

TEST(PhaseSpec, LerpCoversEveryValueField)
{
    // lerp() keeps this phase's name by design; every other field
    // moves toward the other phase.
    const PhaseSpec base;
    for (const Perturbation &perturbation : kPerturbations) {
        if (std::string(perturbation.field) == "name")
            continue;
        PhaseSpec changed = base;
        perturbation.apply(changed);
        EXPECT_NE(base.lerp(changed, 0.5).fingerprint(), base.fingerprint())
            << perturbation.field;
        EXPECT_EQ(base.lerp(changed, 0.0).fingerprint(), base.fingerprint())
            << perturbation.field;
    }
}

TEST(PhaseSpec, FingerprintNormalizesNegativeZero)
{
    PhaseSpec positive;
    positive.fpFrac = 0.0;
    PhaseSpec negative;
    negative.fpFrac = -0.0;
    EXPECT_EQ(positive.fingerprint(), negative.fingerprint());
}

TEST(PhaseSpec, DefaultValidates)
{
    EXPECT_NO_THROW(PhaseSpec{}.validate());
}

TEST(PhaseSpec, RejectsMixOverOne)
{
    PhaseSpec spec;
    spec.loadFrac = 0.6;
    spec.storeFrac = 0.5;
    EXPECT_THROW(spec.validate(), FatalError);
}

TEST(PhaseSpec, RejectsNegativeFraction)
{
    PhaseSpec spec;
    spec.branchFrac = -0.1;
    EXPECT_THROW(spec.validate(), FatalError);
}

TEST(PhaseSpec, RejectsBadFootprintTiers)
{
    PhaseSpec spec;
    spec.hotFrac = 0.8;
    spec.warmFrac = 0.3;
    EXPECT_THROW(spec.validate(), FatalError);
}

TEST(PhaseSpec, RejectsNonPositiveCpi)
{
    PhaseSpec spec;
    spec.baseCpi = 0.0;
    EXPECT_THROW(spec.validate(), FatalError);
}

TEST(PhaseSpec, RejectsMlpBelowOne)
{
    PhaseSpec spec;
    spec.mlp = 0.5;
    EXPECT_THROW(spec.validate(), FatalError);
}

TEST(PhaseSpec, RejectsZeroFootprint)
{
    PhaseSpec spec;
    spec.hotBytes = 0;
    EXPECT_THROW(spec.validate(), FatalError);
}

TEST(PhaseSpec, ColdFracIsRemainder)
{
    PhaseSpec spec;
    spec.hotFrac = 0.7;
    spec.warmFrac = 0.2;
    EXPECT_NEAR(spec.coldFrac(), 0.1, 1e-12);
}

TEST(PhaseSpec, MemFracSumsLoadsAndStores)
{
    PhaseSpec spec;
    spec.loadFrac = 0.2;
    spec.storeFrac = 0.15;
    EXPECT_NEAR(spec.memFrac(), 0.35, 1e-12);
}

TEST(PhaseSpec, LerpEndpoints)
{
    PhaseSpec a;
    a.baseCpi = 1.0;
    a.mlp = 1.0;
    PhaseSpec b;
    b.baseCpi = 3.0;
    b.mlp = 4.0;

    const PhaseSpec at0 = a.lerp(b, 0.0);
    EXPECT_DOUBLE_EQ(at0.baseCpi, 1.0);
    const PhaseSpec at1 = a.lerp(b, 1.0);
    EXPECT_DOUBLE_EQ(at1.baseCpi, 3.0);
    EXPECT_DOUBLE_EQ(at1.mlp, 4.0);
}

TEST(PhaseSpec, LerpMidpoint)
{
    PhaseSpec a;
    a.baseCpi = 1.0;
    PhaseSpec b;
    b.baseCpi = 2.0;
    EXPECT_DOUBLE_EQ(a.lerp(b, 0.5).baseCpi, 1.5);
}

TEST(PhaseSpec, LerpClampsParameter)
{
    PhaseSpec a;
    a.baseCpi = 1.0;
    PhaseSpec b;
    b.baseCpi = 2.0;
    EXPECT_DOUBLE_EQ(a.lerp(b, -1.0).baseCpi, 1.0);
    EXPECT_DOUBLE_EQ(a.lerp(b, 2.0).baseCpi, 2.0);
}

TEST(PhaseSpec, LerpInterpolatesSizes)
{
    PhaseSpec a;
    a.hotBytes = 1000;
    PhaseSpec b;
    b.hotBytes = 3000;
    EXPECT_EQ(a.lerp(b, 0.5).hotBytes, 2000u);
}

TEST(PhaseSpec, LerpResultValidates)
{
    PhaseSpec a;
    PhaseSpec b;
    b.hotFrac = 0.5;
    b.warmFrac = 0.3;
    EXPECT_NO_THROW(a.lerp(b, 0.37).validate());
}

} // namespace
} // namespace mcdvfs
