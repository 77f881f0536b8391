#include "trace/phase.hh"

#include <algorithm>

#include "common/hash.hh"
#include "common/logging.hh"

namespace mcdvfs
{

void
PhaseSpec::validate() const
{
    auto in01 = [](double v) { return v >= 0.0 && v <= 1.0; };
    if (!in01(loadFrac) || !in01(storeFrac) || !in01(branchFrac) ||
        !in01(fpFrac) || !in01(mulFrac)) {
        fatal("phase '", name, "': instruction-mix fraction out of [0,1]");
    }
    if (!in01(gpuKickFrac))
        fatal("phase '", name, "': gpuKickFrac out of [0,1]");
    if (loadFrac + storeFrac + branchFrac + fpFrac + mulFrac +
            gpuKickFrac >
        1.0 + 1e-9)
        fatal("phase '", name, "': instruction mix exceeds 1.0");
    if (!in01(hotFrac) || !in01(warmFrac) || hotFrac + warmFrac > 1.0 + 1e-9)
        fatal("phase '", name, "': footprint tier fractions invalid");
    if (!in01(coldSeqFrac))
        fatal("phase '", name, "': coldSeqFrac out of [0,1]");
    if (baseCpi <= 0.0)
        fatal("phase '", name, "': baseCpi must be positive");
    if (mlp < 1.0)
        fatal("phase '", name, "': mlp must be >= 1");
    if (!in01(activity))
        fatal("phase '", name, "': activity out of [0,1]");
    if (!in01(gpuActivity))
        fatal("phase '", name, "': gpuActivity out of [0,1]");
    if (gpuCyclesPerKick < 0.0)
        fatal("phase '", name, "': gpuCyclesPerKick must be >= 0");
    const auto check_footprint = [this](const char *field,
                                        std::uint64_t bytes) {
        if (bytes < kAccessBytes) {
            fatal("phase '", name, "': ", field, " (", bytes,
                  ") is smaller than one ", kAccessBytes,
                  "-byte access");
        }
    };
    check_footprint("hotBytes", hotBytes);
    check_footprint("warmBytes", warmBytes);
    check_footprint("coldBytes", coldBytes);
}

std::uint64_t
PhaseSpec::fingerprint(std::uint64_t seed) const
{
    // Every field, in declaration order; trace_phase_test fails when a
    // field is added without being hashed here.
    return HashBuilder(seed)
        .add(name)
        .add(loadFrac)
        .add(storeFrac)
        .add(branchFrac)
        .add(fpFrac)
        .add(mulFrac)
        .add(baseCpi)
        .add(hotFrac)
        .add(warmFrac)
        .add(hotBytes)
        .add(warmBytes)
        .add(coldBytes)
        .add(coldSeqFrac)
        .add(mlp)
        .add(activity)
        .add(gpuKickFrac)
        .add(gpuCyclesPerKick)
        .add(gpuActivity)
        .digest();
}

PhaseSpec
PhaseSpec::lerp(const PhaseSpec &other, double t) const
{
    const double u = std::clamp(t, 0.0, 1.0);
    auto mix = [u](double a, double b) { return a + (b - a) * u; };
    auto mixSize = [u](std::uint64_t a, std::uint64_t b) {
        const double v = static_cast<double>(a) +
                         (static_cast<double>(b) - static_cast<double>(a)) * u;
        return static_cast<std::uint64_t>(v);
    };

    PhaseSpec out = *this;
    out.loadFrac = mix(loadFrac, other.loadFrac);
    out.storeFrac = mix(storeFrac, other.storeFrac);
    out.branchFrac = mix(branchFrac, other.branchFrac);
    out.fpFrac = mix(fpFrac, other.fpFrac);
    out.mulFrac = mix(mulFrac, other.mulFrac);
    out.baseCpi = mix(baseCpi, other.baseCpi);
    out.hotFrac = mix(hotFrac, other.hotFrac);
    out.warmFrac = mix(warmFrac, other.warmFrac);
    out.hotBytes = mixSize(hotBytes, other.hotBytes);
    out.warmBytes = mixSize(warmBytes, other.warmBytes);
    out.coldBytes = mixSize(coldBytes, other.coldBytes);
    out.coldSeqFrac = mix(coldSeqFrac, other.coldSeqFrac);
    out.mlp = mix(mlp, other.mlp);
    out.activity = mix(activity, other.activity);
    out.gpuKickFrac = mix(gpuKickFrac, other.gpuKickFrac);
    out.gpuCyclesPerKick = mix(gpuCyclesPerKick, other.gpuCyclesPerKick);
    out.gpuActivity = mix(gpuActivity, other.gpuActivity);
    return out;
}

} // namespace mcdvfs
