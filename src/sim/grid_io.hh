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
 * so a round trip is bit-identical by construction.  Two containers
 * wrap it.  The binary snapshot here puts an 8-byte magic, the body
 * format as its version word, the payload length and a byte-wise
 * FNV-1a checksum of the payload in front of it; the daemon's
 * snapshot store (daemon/snapshot_store.hh) embeds it in its own
 * checksummed container.  The loaders reject truncated, corrupt, or
 * version-mismatched input with a FatalError carrying a specific
 * diagnostic — never UB, never a silently partial grid.
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
 * Body format @c grid is written in, which the container records:
 * 1 for two-domain grids (byte-identical to historical snapshots), 2
 * for three-domain grids (GPU ladder, two GPU profile fields, a sixth
 * cell column).  The body itself does not say which it is.
 */
std::uint32_t gridBodyFormat(const MeasuredGrid &grid);

/** Append @c grid's body, in format gridBodyFormat(grid), to @c w. */
void writeGridBody(ByteWriter &w, const MeasuredGrid &grid);

/**
 * Parse a body of @c format in place; it must run to the end of @c r.
 * @throws FatalError on an unknown format or any malformed field.
 */
MeasuredGrid readGridBody(ByteReader &r, std::uint32_t format);
///@}

/** @name Binary snapshots (checksummed, bit-identical round trip). */
///@{

/** Magic leading every binary grid snapshot. */
inline constexpr char kGridBinaryMagic[8] = {'m', 'c', 'd', 'v',
                                             'f', 's', 'G', 'B'};

/**
 * Newest supported binary snapshot version, which is the body format
 * (gridBodyFormat): v1 for two-domain grids, v2 for three-domain
 * grids.  The loaders accept both.
 */
inline constexpr std::uint32_t kGridBinaryVersion = 2;

/** Serialize @c grid as a checksummed binary snapshot. */
void saveGridBinary(const MeasuredGrid &grid, std::ostream &os);

/** Serialize to a string (convenience). */
std::string saveGridBinaryToString(const MeasuredGrid &grid);

/**
 * Parse a binary snapshot previously produced by saveGridBinary.
 *
 * @throws FatalError with a specific diagnostic on a bad magic, an
 *         unsupported version, a truncated header or payload, a
 *         checksum mismatch, or any malformed field — the grid is
 *         never partially loaded.
 */
MeasuredGrid loadGridBinary(std::istream &is);

/** Parse from a string, in place (no copy of the payload). */
MeasuredGrid loadGridBinaryFromString(const std::string &bytes);
///@}

} // namespace mcdvfs

#endif // MCDVFS_SIM_GRID_IO_HH
