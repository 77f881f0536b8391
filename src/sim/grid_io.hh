/**
 * @file
 * Serialization of measured grids: a text format and a binary format.
 *
 * A characterized grid is the expensive artifact of this library;
 * saving it lets offline analyses (profiling, figure regeneration,
 * cross-machine comparisons) re-run without re-simulating.  The text
 * format is line-oriented and versioned:
 *
 *   mcdvfs-grid v1
 *   workload <name>
 *   samples <n> instructions <per-sample>
 *   cpu <mhz...>
 *   mem <mhz...>
 *   profile <sample> <baseCpi> <activity> <mlp> <l1Mpki> <l2Mpki>
 *           <l2PerInstr> <dramReads> <dramWrites> <rowHit> <rowClosed>
 *           <rowConflict> <phaseName>
 *   cell <sample> <setting> <seconds> <cpuJ> <memJ> <busyFrac> <bwUtil>
 *
 * Three-domain grids write "mcdvfs-grid v2": a "gpu <mhz...>" ladder
 * line follows "mem", profile lines carry <gpuWorkPerInstr>
 * <gpuActivity> before the phase name, and cell lines end with the
 * GPU energy column.  The loader accepts both versions.
 *
 * The binary grid body (writeGridBody / readGridBody) is the one
 * binary grid codec: common/binio.hh fields, doubles by bit pattern,
 * so a round trip is bit-identical by construction.  One container
 * wraps it: the daemon's snapshot store (daemon/snapshot_store.hh)
 * writes the body format word and the body inside its checksummed,
 * keyed snapshot file.  The body carries no checksum of its own, so
 * detecting corruption is the container's job; readGridBody rejects
 * an unknown format word, truncated or trailing bytes and any
 * implausible field with a FatalError carrying a specific diagnostic
 * — never UB, never a silently partial grid.
 */

#ifndef MCDVFS_SIM_GRID_IO_HH
#define MCDVFS_SIM_GRID_IO_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/binio.hh"
#include "sim/measured_grid.hh"

namespace mcdvfs
{

/** Serialize @c grid (including profiles when attached). */
void saveGrid(const MeasuredGrid &grid, std::ostream &os);

/** Serialize to a string (convenience). */
std::string saveGridToString(const MeasuredGrid &grid);

/**
 * Parse a grid previously produced by saveGrid.
 * @throws FatalError on malformed or version-mismatched input.
 */
MeasuredGrid loadGrid(std::istream &is);

/** Parse from a string (convenience). */
MeasuredGrid loadGridFromString(const std::string &text);

/** @name Binary grid body (the one binary grid codec). */
///@{

/**
 * Body format @c grid is written in, which its container records:
 * 1 for two-domain grids (byte-identical to historical snapshots), 2
 * for three-domain grids (GPU ladder, two GPU profile fields, a sixth
 * cell column).  The body itself does not say which it is.
 */
std::uint32_t gridBodyFormat(const MeasuredGrid &grid);

/** Append @c grid's body, in format gridBodyFormat(grid), to @c w. */
void writeGridBody(ByteWriter &w, const MeasuredGrid &grid);

/**
 * Parse a body of @c format in place; it must run to the end of @c r.
 * @throws FatalError on a format other than 1 or 2, a truncated body,
 *         trailing bytes, or any implausible field.
 */
MeasuredGrid readGridBody(ByteReader &r, std::uint32_t format);
///@}

} // namespace mcdvfs

#endif // MCDVFS_SIM_GRID_IO_HH
