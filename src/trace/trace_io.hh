/**
 * @file
 * Recording and replaying instruction traces.
 *
 * Format: one instruction per line.  Non-memory kinds are a single
 * letter; memory kinds carry one space and a hexadecimal address of at
 * most 64 bits, with no sign, prefix or trailing text:
 *
 *   A            integer ALU
 *   M            integer multiply
 *   F            floating-point op
 *   B            branch
 *   G            GPU kick
 *   L <hexaddr>  load
 *   S <hexaddr>  store
 *
 * Empty lines are skipped.
 */

#ifndef MCDVFS_TRACE_TRACE_IO_HH
#define MCDVFS_TRACE_TRACE_IO_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "common/units.hh"
#include "trace/trace_source.hh"

namespace mcdvfs
{

/** Record @c n instructions from @c source to @c os. */
void recordTrace(TraceSource &source, Count n, std::ostream &os);

/** Replays a recorded trace; loops back to the start at the end. */
class TraceReplay : public TraceSource
{
  public:
    /**
     * Parse a recorded trace.
     * @throws FatalError naming the line on malformed input, or on an
     *         empty trace.
     */
    explicit TraceReplay(std::istream &is);

    /** Parse from a string (convenience). */
    static TraceReplay fromString(const std::string &text);

    InstrRecord next() override;

    /** Number of recorded instructions. */
    Count size() const { return records_.size(); }

    /** True once next() has wrapped past the end at least once. */
    bool wrapped() const { return wrapped_; }

  private:
    explicit TraceReplay(std::vector<InstrRecord> records);

    std::vector<InstrRecord> records_;
    std::size_t cursor_ = 0;
    bool wrapped_ = false;
};

} // namespace mcdvfs

#endif // MCDVFS_TRACE_TRACE_IO_HH
