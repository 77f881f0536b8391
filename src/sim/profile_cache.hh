/**
 * @file
 * LRU cache of memoized characterizations.
 *
 * Characterizing one sample is the unit cost the paper's methodology
 * already pays only once per sample — but fleet workloads are phase
 * scripts whose samples repeat the same microarchitectural profiles
 * over and over.  ProfileCache keys a SampleProfile by the complete
 * set of characterization inputs — phase-spec fingerprint, trace seed,
 * simulated instruction count and sampler-config fingerprint — so a
 * SampleSimulator with a cache attached simulates each distinct
 * (phase, seed-class) once and replays the profile everywhere else,
 * within a workload and across workloads.
 *
 * Entries are only valid for *canonical* characterizations (caches and
 * bank state reset, deterministic warmup per miss): those are pure
 * functions of the key, so a hit is byte-identical to a recompute
 * regardless of what was characterized before it.  SampleSimulator
 * switches to canonical mode whenever a cache is attached.
 *
 * It is the common sharded LRU (exec/sharded_lru.hh).  The metric
 * prefix is a constructor parameter so the sim-layer cache
 * ("sim.profile.*") and the service-wide cache ("svc.profile.*") stay
 * separately observable.
 */

#ifndef MCDVFS_SIM_PROFILE_CACHE_HH
#define MCDVFS_SIM_PROFILE_CACHE_HH

#include <cstdint>
#include <string>

#include "common/hash.hh"
#include "exec/sharded_lru.hh"
#include "sim/sample_profile.hh"

namespace mcdvfs
{

/** Complete identity of one canonical characterization. */
struct ProfileKey
{
    std::uint64_t phase = 0;         ///< PhaseSpec::fingerprint()
    std::uint64_t seed = 0;          ///< trace stream seed
    std::uint64_t instructions = 0;  ///< simulated instructions
    std::uint64_t config = 0;        ///< sampler-config fingerprint

    bool
    operator==(const ProfileKey &other) const
    {
        return phase == other.phase && seed == other.seed &&
               instructions == other.instructions &&
               config == other.config;
    }

    /** Byte-wise FNV-1a of the four components (shard and hash). */
    std::uint64_t
    combined() const
    {
        std::uint64_t hash = kFnvOffsetBasis;
        for (const std::uint64_t part :
             {phase, seed, instructions, config})
            hash = fnv1aWordBytes(hash, part);
        return hash;
    }
};

/** Sharded LRU cache of canonical SampleProfiles. */
class ProfileCache : public exec::ShardedLru<ProfileKey, SampleProfile>
{
  public:
    /** @see exec::ShardedLru::ShardedLru */
    explicit ProfileCache(std::size_t capacity, std::size_t shards = 8,
                          const std::string &metric_prefix = "sim.profile")
        : ShardedLru(capacity, shards, metric_prefix)
    {
    }
};

} // namespace mcdvfs

#endif // MCDVFS_SIM_PROFILE_CACHE_HH
