#include "trace/trace_io.hh"

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
kindFromLetter(char letter)
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
        fatal("trace io: unknown instruction kind '", letter, "'");
    }
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
          while (std::getline(is, line)) {
              if (line.empty())
                  continue;
              InstrRecord rec;
              rec.kind = kindFromLetter(line[0]);
              if (isMemory(rec.kind)) {
                  if (line.size() < 3)
                      fatal("trace io: memory op without address");
                  rec.addr =
                      std::stoull(line.substr(2), nullptr, 16);
              }
              records.push_back(rec);
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
