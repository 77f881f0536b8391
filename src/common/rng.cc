#include "common/rng.hh"

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
