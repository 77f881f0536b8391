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
 * next() runs once per simulated instruction, so it is defined here to
 * inline into the characterization loop, and everything it derives
 * from the spec (cumulative mix edges, tier word counts and their
 * rejection thresholds) is computed once, in the constructor.
 */

#ifndef MCDVFS_TRACE_TRACE_GENERATOR_HH
#define MCDVFS_TRACE_TRACE_GENERATOR_HH

#include <array>
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
    InstrRecord
    next() override
    {
        // One uniform draw picks the kind: the first cumulative mix
        // edge (loads, stores, branches, fp, mul, GPU kicks) above it.
        const std::uint64_t k = rng_.uniform53();
        if (k < memEdge_) {
            return {k < loadEdge_ ? InstrKind::Load : InstrKind::Store,
                    nextAddress()};
        }
        // The edges are non-decreasing, so the number at or below k
        // indexes the kind whose edge is the first above it.
        const unsigned op = (k >= opEdges_[0]) + (k >= opEdges_[1]) +
                            (k >= opEdges_[2]) + (k >= opEdges_[3]);
        return {kOpKinds[op], 0};
    }

    /** Append @c n instructions to @c out. */
    void generate(Count n, std::vector<InstrRecord> &out);

    /** The phase being generated. */
    const PhaseSpec &spec() const { return spec_; }

  private:
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

    std::uint64_t
    nextAddress()
    {
        const std::uint64_t tier = rng_.uniform53();
        if (tier < warmEdge_) {
            const Tier &t = tiers_[tier >= hotEdge_];
            return t.base + rng_.uniformInt(t.words) * PhaseSpec::kAccessBytes;
        }
        // Cold tier: sequential stream or uniform random.
        if (rng_.chance(spec_.coldSeqFrac)) {
            const std::uint64_t addr = kColdBase + coldCursor_;
            coldCursor_ += PhaseSpec::kAccessBytes;
            if (coldCursor_ >= spec_.coldBytes)
                coldCursor_ = 0;
            return addr;
        }
        return kColdBase +
               rng_.uniformInt(coldWords_) * PhaseSpec::kAccessBytes;
    }

    PhaseSpec spec_;
    Rng rng_;
    /** @name Cumulative mix and tier edges as uniform53() thresholds. */
    ///@{
    std::uint64_t loadEdge_;
    std::uint64_t memEdge_;
    std::array<std::uint64_t, 4> opEdges_;  ///< branch, fp, mul, GPU
    std::uint64_t hotEdge_;
    std::uint64_t warmEdge_;
    ///@}
    std::array<Tier, 2> tiers_;  ///< hot, warm
    Rng::Bound coldWords_;
    std::uint64_t coldCursor_ = 0;  ///< sequential cold-stream offset
};

} // namespace mcdvfs

#endif // MCDVFS_TRACE_TRACE_GENERATOR_HH
