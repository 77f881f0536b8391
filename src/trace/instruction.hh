/**
 * @file
 * Instruction records produced by the synthetic trace generator and
 * consumed by the sample simulator.
 */

#ifndef MCDVFS_TRACE_INSTRUCTION_HH
#define MCDVFS_TRACE_INSTRUCTION_HH

#include <cstdint>

namespace mcdvfs
{

/** Coarse instruction classes; enough to drive timing and power. */
enum class InstrKind : std::uint8_t
{
    IntAlu,   ///< integer ALU op
    IntMul,   ///< integer multiply/divide
    FpOp,     ///< floating-point op
    Load,     ///< memory read
    Store,    ///< memory write
    Branch,   ///< control transfer
    GpuKick,  ///< asynchronous GPU offload submission
};

/** One dynamic instruction. @c addr is meaningful for Load/Store only. */
struct InstrRecord
{
    InstrKind kind = InstrKind::IntAlu;
    std::uint64_t addr = 0;
};

/** A load's or a store's address: what the cache hierarchy consumes. */
struct MemoryRef
{
    std::uint64_t addr = 0;
    bool isWrite = false;
};

/** True for loads and stores. */
constexpr bool
isMemory(InstrKind kind)
{
    return kind == InstrKind::Load || kind == InstrKind::Store;
}

} // namespace mcdvfs

#endif // MCDVFS_TRACE_INSTRUCTION_HH
