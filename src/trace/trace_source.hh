/**
 * @file
 * Abstract instruction-stream source.
 *
 * The characterization pass consumes instructions through this
 * interface, so synthetic generation (TraceGenerator) and recorded
 * traces (TraceReplay) are interchangeable — the hook for driving the
 * simulator with real application traces instead of the SPEC-like
 * profiles.  The simulator asks for instructions a chunk at a time
 * (nextMemoryRefs()): all it needs of a chunk is its memory
 * references in order and how many GPU kicks it held, so a source
 * that can find its memory references without decoding every
 * instruction overrides that call.
 */

#ifndef MCDVFS_TRACE_TRACE_SOURCE_HH
#define MCDVFS_TRACE_TRACE_SOURCE_HH

#include <vector>

#include "common/units.hh"
#include "trace/instruction.hh"

namespace mcdvfs
{

/** Produces dynamic instructions, one per next() call. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Next dynamic instruction. */
    virtual InstrRecord next() = 0;

    /**
     * Advance by @c n instructions: replace @c refs with their memory
     * references, in order, and return how many of the @c n were GPU
     * kicks.  The stream is the one @c n next() calls produce, and the
     * two calls may be interleaved.  The default makes those calls.
     */
    virtual Count
    nextMemoryRefs(Count n, std::vector<MemoryRef> &refs)
    {
        refs.clear();
        Count kicks = 0;
        for (Count i = 0; i < n; ++i) {
            const InstrRecord rec = next();
            if (isMemory(rec.kind))
                refs.push_back({rec.addr, rec.kind == InstrKind::Store});
            else
                kicks += rec.kind == InstrKind::GpuKick;
        }
        return kicks;
    }
};

} // namespace mcdvfs

#endif // MCDVFS_TRACE_TRACE_SOURCE_HH
