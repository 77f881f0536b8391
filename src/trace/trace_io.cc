#include "trace/trace_io.hh"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/logging.hh"

namespace mcdvfs
{

namespace
{

char
kindLetter(InstrKind kind)
{
    switch (kind) {
      case InstrKind::IntAlu:
        return 'A';
      case InstrKind::IntMul:
        return 'M';
      case InstrKind::FpOp:
        return 'F';
      case InstrKind::Branch:
        return 'B';
      case InstrKind::Load:
        return 'L';
      case InstrKind::Store:
        return 'S';
      case InstrKind::GpuKick:
        return 'G';
    }
    MCDVFS_PANIC("unreachable instruction kind");
}

InstrKind
kindFromLetter(char letter, std::size_t number)
{
    switch (letter) {
      case 'A':
        return InstrKind::IntAlu;
      case 'M':
        return InstrKind::IntMul;
      case 'F':
        return InstrKind::FpOp;
      case 'B':
        return InstrKind::Branch;
      case 'L':
        return InstrKind::Load;
      case 'S':
        return InstrKind::Store;
      case 'G':
        return InstrKind::GpuKick;
      default:
        fatal("trace io: line ", number, ": unknown instruction kind '",
              letter, "'");
    }
}

/**
 * The instruction on line @c number of a recorded trace: one kind
 * letter, and for a load or store one space and a hexadecimal address
 * that fills the rest of the line and fits 64 bits.
 */
InstrRecord
parseLine(const std::string &line, std::size_t number)
{
    InstrRecord rec;
    rec.kind = kindFromLetter(line[0], number);
    if (!isMemory(rec.kind)) {
        if (line.size() != 1) {
            fatal("trace io: line ", number, ": '", line[0],
                  "' takes no operand");
        }
        return rec;
    }
    const char *last = line.data() + line.size();
    std::from_chars_result parsed{last, std::errc::invalid_argument};
    if (line.size() > 2 && line[1] == ' ')
        parsed = std::from_chars(line.data() + 2, last, rec.addr, 16);
    if (parsed.ec == std::errc::result_out_of_range) {
        fatal("trace io: line ", number,
              ": address does not fit 64 bits");
    }
    if (parsed.ec != std::errc{} || parsed.ptr != last) {
        fatal("trace io: line ", number, ": '", line[0],
              "' needs one space and a hexadecimal address");
    }
    return rec;
}

} // namespace

void
recordTrace(TraceSource &source, Count n, std::ostream &os)
{
    for (Count i = 0; i < n; ++i) {
        const InstrRecord rec = source.next();
        os << kindLetter(rec.kind);
        if (isMemory(rec.kind))
            os << ' ' << std::hex << rec.addr << std::dec;
        os << '\n';
    }
}

TraceReplay::TraceReplay(std::vector<InstrRecord> records)
    : records_(std::move(records))
{
    if (records_.empty())
        fatal("trace io: empty trace");
}

TraceReplay::TraceReplay(std::istream &is)
    : TraceReplay([&is] {
          std::vector<InstrRecord> records;
          std::string line;
          for (std::size_t number = 1; std::getline(is, line); ++number) {
              if (!line.empty())
                  records.push_back(parseLine(line, number));
          }
          return records;
      }())
{
}

TraceReplay
TraceReplay::fromString(const std::string &text)
{
    std::istringstream is(text);
    return TraceReplay(is);
}

InstrRecord
TraceReplay::next()
{
    const InstrRecord rec = records_[cursor_];
    if (++cursor_ == records_.size()) {
        cursor_ = 0;
        wrapped_ = true;
    }
    return rec;
}

} // namespace mcdvfs
