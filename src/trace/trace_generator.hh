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
 * those draws from a block of kBlock filled by Rng::fill(), with one
 * bit per draw set when the draw, read as a kind, is a memory
 * reference.  nextMemoryRefs() finds the next memory instruction
 * with countr_zero on those bits, so the non-memory instructions
 * between two references cost no branch each, and reads a
 * reference's draws at fixed offsets.  A reference whose word draw is
 * rejected, or whose draws may run past the block, is decoded one
 * buffered draw at a time by the decoder next() uses, so both calls
 * consume one stream and may be interleaved.  Everything derived from
 * the spec (cumulative mix edges, tier word counts and their rejection
 * thresholds) is computed once, in the constructor.
 */

#ifndef MCDVFS_TRACE_TRACE_GENERATOR_HH
#define MCDVFS_TRACE_TRACE_GENERATOR_HH

#include <array>
#include <cstddef>
#include <cstdint>
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
    /** @name Tier base addresses (disjoint by construction). */
    ///@{
    static constexpr std::uint64_t kHotBase = 0x1000'0000ull;
    static constexpr std::uint64_t kWarmBase = 0x4000'0000ull;
    static constexpr std::uint64_t kColdBase = 0x8000'0000ull;
    ///@}

    /**
     * @param spec validated phase specification
     * @param seed deterministic stream seed
     * @throws FatalError when @c spec is inconsistent
     */
    TraceGenerator(const PhaseSpec &spec, std::uint64_t seed);

    /** Produce the next dynamic instruction. */
    InstrRecord next() override;

    Count nextMemoryRefs(Count n, std::vector<MemoryRef> &refs) override;

    /** The phase being generated. */
    const PhaseSpec &spec() const { return spec_; }

  private:
    /** Raw draws buffered per Rng::fill() (a multiple of 64). */
    static constexpr std::size_t kBlock = 512;

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

    /** The next buffered draw, refilling the block when it is spent. */
    std::uint64_t
    draw()
    {
        if (pos_ == kBlock)
            refill();
        return block_[pos_++];
    }

    /** Fill the block with kBlock draws and rebuild its memory bits. */
    void refill();

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

    /** Buffered raw draws; block_[pos_] is the next one. */
    std::array<std::uint64_t, kBlock> block_{};
    /** Bit i of word w: draw 64w + i, read as a kind, is a load or store. */
    std::array<std::uint64_t, kBlock / 64> memoryBits_{};
    std::size_t pos_ = kBlock;
};

} // namespace mcdvfs

#endif // MCDVFS_TRACE_TRACE_GENERATOR_HH
