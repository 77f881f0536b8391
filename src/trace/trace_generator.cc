#include "trace/trace_generator.hh"

#include <algorithm>
#include <bit>

#include "common/binio.hh"
#include "common/logging.hh"

namespace mcdvfs
{

namespace
{

/**
 * @c spec, once validate() has accepted it and each footprint tier,
 * [base, base + bytes), ends at or before the next tier's base (the
 * cold tier at 2^64, where its addresses would wrap).
 */
const PhaseSpec &
validated(const PhaseSpec &spec)
{
    spec.validate();
    const auto check_tier = [&spec](const char *field, std::uint64_t bytes,
                                    std::uint64_t room, const char *end) {
        if (bytes > room) {
            fatal("phase '", spec.name, "': ", field, " (", bytes,
                  ") exceeds the ", room, " bytes before ", end);
        }
    };
    check_tier("hotBytes", spec.hotBytes,
               TraceGenerator::kWarmBase - TraceGenerator::kHotBase,
               "the warm tier");
    check_tier("warmBytes", spec.warmBytes,
               TraceGenerator::kColdBase - TraceGenerator::kWarmBase,
               "the cold tier");
    check_tier("coldBytes", spec.coldBytes, 0 - TraceGenerator::kColdBase,
               "the end of the address space");
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
TraceGenerator::refill(std::span<TraceGenerator *const> gens)
{
    // A vector's worth of generators at a time, so the pointer arrays
    // the grouped fill takes have a fixed size.
    for (std::size_t first = 0; first < gens.size(); first += Rng::kLanes) {
        const std::size_t count = std::min(Rng::kLanes, gens.size() - first);
        std::array<Rng *, Rng::kLanes> rngs{};
        std::array<std::uint64_t *, Rng::kLanes> outs{};
        for (std::size_t i = 0; i < count; ++i) {
            TraceGenerator &gen = *gens[first + i];
            const std::size_t carry = kBlock - gen.pos_;
            MCDVFS_ASSERT(carry < kCarry, "a refill carries too many draws");
            std::copy(gen.block_.begin() + gen.pos_, gen.block_.end(),
                      gen.block_.begin() + (kCarry - carry));
            gen.pos_ = kCarry - carry;
            rngs[i] = &gen.rng_;
            outs[i] = gen.block_.data() + kCarry;
        }
        Rng::fill({rngs.data(), count}, {outs.data(), count},
                  kBlock - kCarry);

        for (std::size_t i = 0; i < count; ++i) {
            TraceGenerator &gen = *gens[first + i];
            // A draw is a memory kind when (draw >> 11) - memEdge_ wraps
            // below zero (both are at most 2^53), so its sign is the
            // draw's bit.  The signs go to one byte per draw, in a loop
            // GCC vectorizes; one multiply then packs eight of those 0/1
            // bytes into eight bits: byte k lands in bit 56 + k of the
            // product, and no two partial products share a bit, so none
            // carries.  Bits before pos_ are never read.
            std::array<char, kBlock> signs{};
            const std::uint64_t mem_edge = gen.memEdge_;
            for (std::size_t d = 0; d < kBlock; ++d) {
                signs[d] = static_cast<char>(
                    ((gen.block_[d] >> 11) - mem_edge) >> 63);
            }
            for (std::size_t w = 0; w < gen.memoryBits_.size(); ++w) {
                std::uint64_t bits = 0;
                for (std::size_t k = 0; k < 8; ++k) {
                    const std::uint64_t bytes =
                        loadLittleEndian<std::uint64_t>(signs.data() +
                                                        64 * w + 8 * k);
                    bits |= ((bytes * 0x0102040810204080ull) >> 56)
                            << (8 * k);
                }
                gen.memoryBits_[w] = bits;
            }
        }
    }
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

bool
TraceGenerator::walk(Cursor &c)
{
    // Locals: a store to the references could alias any member or
    // the cursor, forcing reloads.
    std::uint64_t *const block = block_.data();
    std::vector<MemoryRef> &refs = *c.lane->refs;
    const std::uint64_t load_edge = loadEdge_;
    const std::uint64_t hot_edge = hotEdge_;
    const std::uint64_t warm_edge = warmEdge_;
    const std::uint64_t cold_seq_edge = coldSeqEdge_;
    const bool cold_choice_draws = coldChoiceDraws_;
    // A GPU kick is a draw in [opEdges_[2], opEdges_[3]).
    const std::uint64_t kick_lo = opEdges_[2];
    const std::uint64_t kick_width = opEdges_[3] - kick_lo;
    std::size_t p = pos_;
    Count left = c.left;
    Count kicks = 0;
    const auto stop_at = [&](std::size_t at, bool parked) {
        pos_ = at;
        c.left = left;
        c.lane->gpuKicks += kicks;
        return parked;
    };

    for (;;) {
        // Every draw from p up to the next memory bit of p's word is
        // one non-memory instruction.
        if (left == 0)
            return stop_at(p, false);
        if (p == kBlock)
            return stop_at(p, true);
        const std::uint64_t bits =
            memoryBits_[p / 64] & (~std::uint64_t{0} << (p % 64));
        const std::size_t stop =
            bits != 0 ? (p & ~std::size_t{63}) + std::countr_zero(bits)
                      : (p | 63) + 1;
        if (bits == 0 || stop - p >= left) {
            const std::size_t skip = std::min<Count>(stop - p, left);
            if (kick_width != 0) {
                for (std::size_t i = p; i < p + skip; ++i)
                    kicks += (block[i] >> 11) - kick_lo < kick_width;
            }
            p += skip;
            left -= skip;
            continue;
        }
        if (kick_width != 0) {
            for (std::size_t i = p; i < stop; ++i)
                kicks += (block[i] >> 11) - kick_lo < kick_width;
        }
        left -= stop - p;
        p = stop;

        // The memory instruction at p reads its tier, the cold choice
        // and its word at fixed offsets, a rejected word draw's redraws
        // after it.  Stop before it unless all but the redraws are
        // buffered.
        if (p + kCarry > kBlock)
            return stop_at(p, true);
        const bool is_write = (block[p] >> 11) >= load_edge;
        const unsigned tier = tierOf(block[p + 1], hot_edge, warm_edge);
        std::size_t word = p + 2;
        if (tier == 2) {
            const std::uint64_t choice =
                cold_choice_draws ? block[word++] : 0;
            if ((choice >> 11) < cold_seq_edge) {
                refs.push_back({nextColdSequential(), is_write});
                --left;
                p = word;
                continue;
            }
        }
        const Tier &t = tiers_[tier];
        std::size_t w = word;
        while (w < kBlock && !t.words.accepts(block[w]))
            ++w;
        if (w == kBlock) {
            // Every draw after the instruction's own was rejected:
            // carry only those, moved to the block's end.
            std::copy_backward(block + p, block + word, block + kBlock);
            return stop_at(kBlock - (word - p), true);
        }
        refs.push_back(
            {t.base + t.words.value(block[w]) * PhaseSpec::kAccessBytes,
             is_write});
        --left;
        p = w + 1;
    }
}

void
TraceGenerator::nextMemoryRefs(std::span<Lane> lanes)
{
    // Each lane walks its block until it parks or finishes; the parked
    // ones then refill together, and walk on.
    std::vector<Cursor> parked;
    std::vector<TraceGenerator *> gens;
    parked.reserve(lanes.size());
    gens.reserve(lanes.size());
    for (Lane &lane : lanes) {
        lane.refs->clear();
        lane.gpuKicks = 0;
        parked.push_back({&lane, lane.instructions});
    }
    while (!parked.empty()) {
        std::size_t kept = 0;
        for (Cursor &c : parked) {
            if (c.lane->gen->walk(c))
                parked[kept++] = c;
        }
        parked.resize(kept);
        gens.clear();
        for (const Cursor &c : parked)
            gens.push_back(c.lane->gen);
        refill(gens);
    }
}

Count
TraceGenerator::nextMemoryRefs(Count n, std::vector<MemoryRef> &refs)
{
    Lane lane{this, n, &refs};
    nextMemoryRefs({&lane, 1});
    return lane.gpuKicks;
}

} // namespace mcdvfs
