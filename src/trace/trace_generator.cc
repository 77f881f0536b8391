#include "trace/trace_generator.hh"

#include <algorithm>
#include <bit>

#include "common/binio.hh"

namespace mcdvfs
{

namespace
{

/** @c spec, once validate() has accepted it. */
const PhaseSpec &
validated(const PhaseSpec &spec)
{
    spec.validate();
    return spec;
}

/** The tier a tier draw picks: 0 hot, 1 warm, 2 cold. */
unsigned
tierOf(std::uint64_t draw, std::uint64_t hot_edge, std::uint64_t warm_edge)
{
    const std::uint64_t t = draw >> 11;
    return (t >= hot_edge) + (t >= warm_edge);
}

} // namespace

TraceGenerator::TraceGenerator(const PhaseSpec &spec, std::uint64_t seed)
    : spec_(validated(spec)), rng_(seed),
      tiers_{Tier{kHotBase,
                  Rng::Bound(spec_.hotBytes / PhaseSpec::kAccessBytes)},
             Tier{kWarmBase,
                  Rng::Bound(spec_.warmBytes / PhaseSpec::kAccessBytes)},
             Tier{kColdBase,
                  Rng::Bound(spec_.coldBytes / PhaseSpec::kAccessBytes)}}
{
    // Cumulative edges in mix order (load, store, branch, fp, mul, GPU
    // kick).  A draw below an edge's uniform53Threshold() is exactly a
    // uniform() below the edge.
    double edge = spec_.loadFrac;
    loadEdge_ = Rng::uniform53Threshold(edge);
    edge += spec_.storeFrac;
    memEdge_ = Rng::uniform53Threshold(edge);
    // A GPU kick edge of 0 (CPU-only phases) leaves the sum unchanged,
    // so the stream is identical to the two-domain generator's.
    const double op_fracs[] = {spec_.branchFrac, spec_.fpFrac,
                               spec_.mulFrac, spec_.gpuKickFrac};
    for (std::size_t i = 0; i < opEdges_.size(); ++i) {
        edge += op_fracs[i];
        opEdges_[i] = Rng::uniform53Threshold(edge);
    }
    hotEdge_ = Rng::uniform53Threshold(spec_.hotFrac);
    warmEdge_ = Rng::uniform53Threshold(spec_.hotFrac + spec_.warmFrac);
    coldSeqEdge_ = Rng::uniform53Threshold(spec_.coldSeqFrac);
    coldChoiceDraws_ = spec_.coldSeqFrac > 0.0 && spec_.coldSeqFrac < 1.0;

    // Start the sequential cold stream at a seed-dependent offset so
    // different samples touch different rows.  The stream's first
    // draws, before any block is filled.
    coldCursor_ =
        rng_.uniformInt(tiers_[2].words) * PhaseSpec::kAccessBytes;
}

void
TraceGenerator::refill()
{
    rng_.fill(block_.data(), kBlock);
    // A draw is a memory kind when (draw >> 11) - memEdge_ wraps below
    // zero (both are at most 2^53), so its sign is the draw's bit.  The
    // signs go to one byte per draw, in a loop GCC vectorizes; one
    // multiply then packs eight of those 0/1 bytes into eight bits:
    // byte k lands in bit 56 + k of the product, and no two partial
    // products share a bit, so none carries.
    std::array<char, kBlock> signs{};
    const std::uint64_t mem_edge = memEdge_;
    for (std::size_t i = 0; i < kBlock; ++i)
        signs[i] = static_cast<char>(((block_[i] >> 11) - mem_edge) >> 63);
    for (std::size_t w = 0; w < memoryBits_.size(); ++w) {
        std::uint64_t bits = 0;
        for (std::size_t k = 0; k < 8; ++k) {
            const std::uint64_t bytes = loadLittleEndian<std::uint64_t>(
                signs.data() + 64 * w + 8 * k);
            bits |= ((bytes * 0x0102040810204080ull) >> 56) << (8 * k);
        }
        memoryBits_[w] = bits;
    }
    pos_ = 0;
}

std::uint64_t
TraceGenerator::nextColdSequential()
{
    const std::uint64_t addr = kColdBase + coldCursor_;
    coldCursor_ += PhaseSpec::kAccessBytes;
    if (coldCursor_ >= spec_.coldBytes)
        coldCursor_ = 0;
    return addr;
}

std::uint64_t
TraceGenerator::decodeAddress()
{
    const unsigned tier = tierOf(draw(), hotEdge_, warmEdge_);
    if (tier == 2) {
        const std::uint64_t choice = coldChoiceDraws_ ? draw() : 0;
        if ((choice >> 11) < coldSeqEdge_)
            return nextColdSequential();
    }
    const Tier &t = tiers_[tier];
    for (;;) {
        const std::uint64_t r = draw();
        if (t.words.accepts(r))
            return t.base + t.words.value(r) * PhaseSpec::kAccessBytes;
    }
}

InstrRecord
TraceGenerator::next()
{
    const std::uint64_t k = draw() >> 11;
    if (k < memEdge_) {
        return {k < loadEdge_ ? InstrKind::Load : InstrKind::Store,
                decodeAddress()};
    }
    // The edges are non-decreasing, so the number at or below k
    // indexes the kind whose edge is the first above it.
    const unsigned op = (k >= opEdges_[0]) + (k >= opEdges_[1]) +
                        (k >= opEdges_[2]) + (k >= opEdges_[3]);
    return {kOpKinds[op], 0};
}

Count
TraceGenerator::nextMemoryRefs(Count n, std::vector<MemoryRef> &refs)
{
    refs.clear();
    // Locals: a store to refs could alias any member, forcing reloads.
    const std::uint64_t load_edge = loadEdge_;
    const std::uint64_t hot_edge = hotEdge_;
    const std::uint64_t warm_edge = warmEdge_;
    // A GPU kick is a draw in [opEdges_[2], opEdges_[3]).
    const std::uint64_t kick_lo = opEdges_[2];
    const std::uint64_t kick_width = opEdges_[3] - kick_lo;
    const auto count_kicks = [&](std::size_t from, std::size_t to) {
        Count kicks = 0;
        if (kick_width != 0) {
            for (std::size_t i = from; i < to; ++i)
                kicks += (block_[i] >> 11) - kick_lo < kick_width;
        }
        return kicks;
    };

    Count kicks = 0;
    std::size_t p = pos_;
    while (n > 0) {
        if (p == kBlock) {
            refill();
            p = 0;
        }
        // Every draw from p up to the next memory bit of p's word is
        // one non-memory instruction.
        const std::uint64_t bits =
            memoryBits_[p / 64] & (~std::uint64_t{0} << (p % 64));
        const std::size_t stop =
            bits != 0 ? (p & ~std::size_t{63}) + std::countr_zero(bits)
                      : (p | 63) + 1;
        if (bits == 0 || stop - p >= n) {
            const std::size_t skip = std::min<Count>(stop - p, n);
            kicks += count_kicks(p, p + skip);
            p += skip;
            n -= skip;
            continue;
        }
        kicks += count_kicks(p, stop);
        n -= stop - p + 1;
        p = stop;

        // The memory instruction at p reads its tier, the cold choice
        // and its word at fixed offsets: at most four draws when its
        // word draw is accepted.
        const bool is_write = (block_[p] >> 11) >= load_edge;
        if (p + 4 <= kBlock) {
            const unsigned tier = tierOf(block_[p + 1], hot_edge, warm_edge);
            std::size_t word = p + 2;
            if (tier == 2) {
                const std::uint64_t choice =
                    coldChoiceDraws_ ? block_[word++] : 0;
                if ((choice >> 11) < coldSeqEdge_) {
                    refs.push_back({nextColdSequential(), is_write});
                    p = word;
                    continue;
                }
            }
            const Tier &tr = tiers_[tier];
            const std::uint64_t r = block_[word];
            if (tr.words.accepts(r)) {
                refs.push_back(
                    {tr.base + tr.words.value(r) * PhaseSpec::kAccessBytes,
                     is_write});
                p = word + 1;
                continue;
            }
        }
        // A rejected word draw, or draws that may run past the block:
        // decode as next() does, refilling as needed.
        pos_ = p + 1;
        refs.push_back({decodeAddress(), is_write});
        p = pos_;
    }
    pos_ = p;
    return kicks;
}

} // namespace mcdvfs
