/**
 * @file
 * Deterministic synthetic instruction-stream generation.
 *
 * Given a PhaseSpec and a seed, TraceGenerator emits a stream of
 * InstrRecords whose instruction mix and memory reference pattern match
 * the spec.  The same (spec, seed) pair always produces the same
 * stream, so cache contents and miss classifications are reproducible
 * and — crucially for the characterize-once design — independent of
 * the frequency settings later applied by the timing model.
 *
 * Memory references fall into three footprint tiers at disjoint base
 * addresses: a hot set sized to fit in L1, a warm set sized to fit in
 * L2, and a cold set exceeding L2.  Cold references are a mix of a
 * sequential stream (row-buffer friendly) and uniform-random accesses.
 *
 * An instruction is decoded from consecutive raw draws.  The first
 * picks the kind: a draw whose 53 high bits fall below the memory edge
 * is a load or store, any other is one non-memory instruction.  A
 * memory instruction then takes its tier draw, the cold-sequential
 * choice (cold tier, 0 < coldSeqFrac < 1 only) and its word draw,
 * which Rng::Bound may reject and draw again.  The generator reads
 * those draws from a block of kBlock, with one bit per draw set when
 * the draw, read as a kind, is a memory reference.
 *
 * nextMemoryRefs() walks a block: it finds the next memory
 * instruction with countr_zero on those bits, so the non-memory
 * instructions between two references cost no branch each, and reads
 * a reference's draws at fixed offsets, a rejected word draw and its
 * redraws in place.  The block edge is a carry: the walk stops before
 * an instruction whose draws may run past the block, and the refill
 * moves that instruction's unread draws (fewer than kCarry) to just
 * before the fresh ones.  The grouped nextMemoryRefs() walks several
 * generators' blocks, each to where it parks, then refills the parked
 * blocks together with the grouped Rng::fill(); the one-generator call
 * is its one-lane case.  next()
 * decodes the same buffered draws one at a time, so it and the block
 * calls consume one stream and may be interleaved.  Everything derived
 * from the spec (cumulative mix edges, tier word counts and their
 * rejection thresholds) is computed once, in the constructor, which
 * also rejects a spec whose tiers would overlap at the bases below.
 */

#ifndef MCDVFS_TRACE_TRACE_GENERATOR_HH
#define MCDVFS_TRACE_TRACE_GENERATOR_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hh"
#include "common/units.hh"
#include "trace/instruction.hh"
#include "trace/phase.hh"
#include "trace/trace_source.hh"

namespace mcdvfs
{

/** Streaming generator of synthetic instructions for one phase. */
class TraceGenerator final : public TraceSource
{
  public:
    /**
     * @name Tier base addresses.  The constructor rejects a tier that
     * would reach the next base (or, for the cold tier, wrap).
     */
    ///@{
    static constexpr std::uint64_t kHotBase = 0x1000'0000ull;
    static constexpr std::uint64_t kWarmBase = 0x4000'0000ull;
    static constexpr std::uint64_t kColdBase = 0x8000'0000ull;
    ///@}

    /** One generator's part of a grouped nextMemoryRefs() call. */
    struct Lane
    {
        TraceGenerator *gen = nullptr;
        /** Instructions to advance by. */
        Count instructions = 0;
        /** Replaced by their memory references, in order. */
        std::vector<MemoryRef> *refs = nullptr;
        /** Set to how many of the instructions were GPU kicks. */
        Count gpuKicks = 0;
    };

    /**
     * @param spec validated phase specification
     * @param seed deterministic stream seed
     * @throws FatalError when @c spec is inconsistent or a footprint
     *         tier would overlap the next tier's base
     */
    TraceGenerator(const PhaseSpec &spec, std::uint64_t seed);

    /** Produce the next dynamic instruction. */
    InstrRecord next() override;

    /** The one-lane case of the grouped call below. */
    Count nextMemoryRefs(Count n, std::vector<MemoryRef> &refs) override;

    /**
     * Advance every lane's generator by the lane's instruction count,
     * with the same references and GPU kicks as a nextMemoryRefs(n,
     * refs) call on each generator alone.  The generators must be
     * distinct.
     */
    static void nextMemoryRefs(std::span<Lane> lanes);

    /** The phase being generated. */
    const PhaseSpec &spec() const { return spec_; }

  private:
    /** Raw draws buffered per block (a multiple of 64). */
    static constexpr std::size_t kBlock = 512;

    /**
     * The most draws a memory instruction takes when its word draw is
     * accepted (kind, tier, cold choice, word).  A walk stops before an
     * instruction with fewer left in the block, so a refill carries
     * fewer than this; fresh draws fill block_[kCarry, kBlock).
     */
    static constexpr std::size_t kCarry = 4;

    /** Non-memory kinds in mix order; IntAlu takes the remainder. */
    static constexpr InstrKind kOpKinds[] = {
        InstrKind::Branch, InstrKind::FpOp, InstrKind::IntMul,
        InstrKind::GpuKick, InstrKind::IntAlu};

    /** A random-access footprint tier. */
    struct Tier
    {
        std::uint64_t base;
        Rng::Bound words;
    };

    /** A lane of a grouped call, with the instructions it has left. */
    struct Cursor
    {
        Lane *lane;
        Count left;
    };

    /** The next buffered draw, refilling the block when it is spent. */
    std::uint64_t
    draw()
    {
        if (pos_ == kBlock) {
            TraceGenerator *self = this;
            refill({&self, 1});
        }
        return block_[pos_++];
    }

    /**
     * Refill every generator's block: move its unread draws (fewer than
     * kCarry) to just before kCarry, fill the rest with one grouped
     * Rng::fill(), and rebuild the memory bits.
     */
    static void refill(std::span<TraceGenerator *const> gens);

    /**
     * Advance lane @c c, whose generator this is, through the block:
     * false once it has advanced by every instruction asked for, true
     * when it stops (parks) before an instruction whose draws may run
     * past the block.
     */
    bool walk(Cursor &c);

    /**
     * The address of the memory instruction whose kind draw was the
     * last one taken, from its remaining draws taken one at a time.
     */
    std::uint64_t decodeAddress();

    /** The sequential cold stream's next address. */
    std::uint64_t nextColdSequential();

    PhaseSpec spec_;
    Rng rng_;
    /** @name Cumulative mix and tier edges as uniform53() thresholds. */
    ///@{
    std::uint64_t loadEdge_;
    std::uint64_t memEdge_;
    std::array<std::uint64_t, 4> opEdges_;  ///< branch, fp, mul, GPU
    std::uint64_t hotEdge_;
    std::uint64_t warmEdge_;
    /**
     * A cold reference is sequential when its choice draw's 53 high
     * bits fall below this.  coldSeqFrac 0 and 1 take no choice draw,
     * as in Rng::chance(), and read 0 against thresholds 0 and 2^53.
     */
    std::uint64_t coldSeqEdge_;
    ///@}
    bool coldChoiceDraws_;  ///< 0 < coldSeqFrac < 1
    std::array<Tier, 3> tiers_;  ///< hot, warm, cold (random accesses)
    std::uint64_t coldCursor_ = 0;  ///< sequential cold-stream offset

    /**
     * Buffered raw draws; block_[pos_] is the next one.  Those before
     * pos_ are spent (or stale, before a carry).
     */
    std::array<std::uint64_t, kBlock> block_{};
    /** Bit i of word w: draw 64w + i, read as a kind, is a load or store. */
    std::array<std::uint64_t, kBlock / 64> memoryBits_{};
    std::size_t pos_ = kBlock;
};

} // namespace mcdvfs

#endif // MCDVFS_TRACE_TRACE_GENERATOR_HH
