/**
 * @file
 * Stable fingerprints of the inputs that determine a MeasuredGrid.
 *
 * A grid is a pure function of (workload profile, settings space,
 * system configuration) — GridRunner is deterministic by construction
 * (see common/rng.hh).  The cache therefore keys on content hashes of
 * those three inputs, not on object identity: two independently
 * constructed WorkloadProfiles with the same phase script hash the
 * same, and any calibration change to the SystemConfig changes the
 * key.
 *
 * WorkloadProfile::fingerprint() and SettingsSpace::fingerprint() are
 * computed once, when the input is built; the configuration is hashed
 * here, once per service.  All three use the common HashBuilder.
 */

#ifndef MCDVFS_SVC_FINGERPRINT_HH
#define MCDVFS_SVC_FINGERPRINT_HH

#include <cstdint>

#include "common/hash.hh"
#include "sim/grid_runner.hh"

namespace mcdvfs
{
namespace svc
{

/** The common hasher (common/hash.hh), under its service-layer name. */
using mcdvfs::HashBuilder;

/** Content hash of the full system configuration. */
std::uint64_t fingerprintConfig(const SystemConfig &config);

} // namespace svc
} // namespace mcdvfs

#endif // MCDVFS_SVC_FINGERPRINT_HH
