#include "common/rng.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace mcdvfs
{

namespace
{

/** SplitMix64 step, used only for seeding. */
std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitMix64(s);
    // xoshiro's state must not be all zero; SplitMix64 cannot produce
    // four zero words from any seed, but guard anyway.
    if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0)
        state_[0] = 0x9e3779b97f4a7c15ull;
}

Rng::Bound::Bound(std::uint64_t bound)
    : bound_(bound)
{
    MCDVFS_ASSERT(bound > 0, "uniformInt bound must be positive");
    threshold_ = (0 - bound) % bound;
}

void
Rng::fill(std::uint64_t *out, std::size_t n)
{
    Rng local = *this;
    for (std::size_t i = 0; i < n; ++i)
        out[i] = local.next();
    *this = local;
}

void
Rng::fill(std::span<Rng *const> gens, std::span<std::uint64_t *const> outs,
          std::size_t n)
{
    MCDVFS_ASSERT(outs.size() == gens.size(),
                  "grouped fill needs one output per generator");
    // One state word of kLanes generators; these stay locals (a
    // vector argument or return value would change the ABI between
    // builds with and without AVX).
    using Lanes = std::uint64_t
        __attribute__((vector_size(kLanes * sizeof(std::uint64_t))));
    for (std::size_t first = 0; first < gens.size();) {
        const std::size_t lanes = std::min(kLanes, gens.size() - first);
        if (lanes == 1) {
            gens[first]->fill(outs[first], n);
            return;
        }
        // A lane past the last generator repeats it: equal draws, so
        // its stores write the same values to the same place.
        std::uint64_t *out[kLanes];
        Lanes s0, s1, s2, s3;
        for (std::size_t l = 0; l < kLanes; ++l) {
            const std::size_t g = first + std::min(l, lanes - 1);
            out[l] = outs[g];
            s0[l] = gens[g]->state_[0];
            s1[l] = gens[g]->state_[1];
            s2[l] = gens[g]->state_[2];
            s3[l] = gens[g]->state_[3];
        }
        for (std::size_t i = 0; i < n; ++i) {
            // next(), lane by lane; * 5 and * 9 as shifts and adds.
            const Lanes m = (s1 << 2) + s1;
            const Lanes r = (m << 7) | (m >> 57);
            const Lanes result = (r << 3) + r;
            const Lanes t = s1 << 17;
            s2 ^= s0;
            s3 ^= s1;
            s1 ^= s2;
            s0 ^= s3;
            s2 ^= t;
            s3 = (s3 << 45) | (s3 >> 19);
            for (std::size_t l = 0; l < kLanes; ++l)
                out[l][i] = result[l];
        }
        for (std::size_t l = 0; l < lanes; ++l) {
            Rng &gen = *gens[first + l];
            gen.state_[0] = s0[l];
            gen.state_[1] = s1[l];
            gen.state_[2] = s2[l];
            gen.state_[3] = s3[l];
        }
        first += lanes;
    }
}

std::uint64_t
Rng::uniform53Threshold(double p)
{
    // uniform() == m * 2^-53 for the integer m = uniform53() < 2^53,
    // and scaling by 2^53 is exact, so uniform() < p <=> m < p * 2^53
    // <=> m < ceil(p * 2^53).
    if (!(p > 0.0))
        return 0;
    if (p >= 1.0)
        return 1ull << 53;
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

std::int64_t
Rng::uniformRange(std::int64_t lo, std::int64_t hi)
{
    MCDVFS_ASSERT(lo <= hi, "uniformRange requires lo <= hi");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniformInt(span));
}

std::uint64_t
Rng::geometric(double p)
{
    if (p >= 1.0)
        return 0;
    MCDVFS_ASSERT(p > 0.0, "geometric requires p > 0");
    const double u = uniform();
    return static_cast<std::uint64_t>(std::log1p(-u) / std::log1p(-p));
}

double
Rng::gaussian()
{
    // Box-Muller; draw u1 away from zero to keep log finite.
    double u1 = uniform();
    if (u1 < 1e-300)
        u1 = 1e-300;
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * 3.14159265358979323846 * u2);
}

Rng
Rng::fork()
{
    return Rng(next() ^ 0xd1b54a32d192ed03ull);
}

} // namespace mcdvfs
