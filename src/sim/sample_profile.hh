/**
 * @file
 * Frequency-independent microarchitectural characteristics of one
 * sample (10 M-instruction window).
 *
 * The sample simulator produces one SampleProfile per sample by
 * running the sample's synthetic trace through the cache hierarchy and
 * the DRAM row-buffer classifier.  Because the CPU model is in-order
 * and the address stream is fixed, none of these quantities depend on
 * the frequency setting — which is what lets the timing model evaluate
 * all 70 (or 496) settings from a single characterization pass
 * (DESIGN.md §5.1).
 *
 * kProfileRates lists a profile's rates once: the grid codecs, the grid
 * kernel's row dedup and the profile checks walk it, and a
 * static_assert ties it to the struct's size, so a new field cannot be
 * left out of any of them.
 */

#ifndef MCDVFS_SIM_SAMPLE_PROFILE_HH
#define MCDVFS_SIM_SAMPLE_PROFILE_HH

#include <array>
#include <cmath>
#include <span>
#include <string>

#include "common/units.hh"
#include "mem/dram.hh"

namespace mcdvfs
{

/** Per-instruction rates and phase attributes of one sample. */
struct SampleProfile
{
    std::string phaseName;

    /** @name Attributes inherited from the phase specification. */
    ///@{
    double baseCpi = 1.0;   ///< core CPI excluding cache/memory stalls
    double activity = 0.7;  ///< dynamic-power activity factor
    double mlp = 1.5;       ///< sustainable overlapping DRAM misses
    ///@}

    /** @name Measured GPU offload behaviour. */
    ///@{
    /**
     * GPU cycles of offloaded work per instruction (measured kick rate
     * times the phase's cycles per kick); 0 for CPU-only samples.
     */
    double gpuWorkPerInstr = 0.0;
    /** GPU dynamic-power activity factor while busy. */
    double gpuActivity = 0.0;
    ///@}

    /** @name Measured cache behaviour (per instruction / per kilo). */
    ///@{
    double l1Mpki = 0.0;          ///< L1 misses per 1000 instructions
    double l2Mpki = 0.0;          ///< L2 misses per 1000 instructions
    double l2PerInstr = 0.0;      ///< L2 accesses (L1 misses) per instr
    ///@}

    /** @name Measured DRAM behaviour. */
    ///@{
    double dramReadsPerInstr = 0.0;   ///< demand line fills per instr
    double dramWritesPerInstr = 0.0;  ///< writebacks per instr
    double dramPrefetchPerInstr = 0.0;  ///< prefetch fills per instr
    double rowHitFrac = 0.0;          ///< row-buffer hit fraction
    double rowClosedFrac = 0.0;       ///< closed-bank fraction
    double rowConflictFrac = 0.0;     ///< row-conflict fraction
    ///@}

    /** Demand DRAM transactions (fills + writebacks) per instr. */
    double
    dramPerInstr() const
    {
        return dramReadsPerInstr + dramWritesPerInstr;
    }

    /** All bus traffic per instruction, including prefetches. */
    double
    trafficPerInstr() const
    {
        return dramPerInstr() + dramPrefetchPerInstr;
    }

    /**
     * Uncontended per-fill DRAM latency: the three row-buffer outcome
     * latencies weighted by how often each outcome occurs.
     */
    Seconds
    rowWeightedLatency(Seconds hit, Seconds closed, Seconds conflict) const
    {
        return rowHitFrac * hit + rowClosedFrac * closed +
               rowConflictFrac * conflict;
    }

    /**
     * DRAM transaction counts of a sample of @c instructions: the
     * per-instruction rates scaled back up, each rounded to the
     * nearest count (the DRAM energy model's input).
     */
    DramStats
    dramStats(Count instructions) const
    {
        const double n = static_cast<double>(instructions);
        const double reads = n * (dramReadsPerInstr + dramPrefetchPerInstr);
        const double writes = n * dramWritesPerInstr;
        const double total = reads + writes;
        DramStats stats;
        stats.reads = static_cast<Count>(std::llround(reads));
        stats.writes = static_cast<Count>(std::llround(writes));
        stats.rowHits = static_cast<Count>(std::llround(total * rowHitFrac));
        stats.rowClosed =
            static_cast<Count>(std::llround(total * rowClosedFrac));
        stats.rowConflicts =
            static_cast<Count>(std::llround(total * rowConflictFrac));
        return stats;
    }
};

/**
 * Every rate of a SampleProfile (all fields but phaseName), in the
 * grid codecs' order.  The GPU pair comes last: two-domain grids store
 * only the first kCpuProfileRates.
 */
inline constexpr std::array<double SampleProfile::*, 14> kProfileRates = {
    &SampleProfile::baseCpi,
    &SampleProfile::activity,
    &SampleProfile::mlp,
    &SampleProfile::l1Mpki,
    &SampleProfile::l2Mpki,
    &SampleProfile::l2PerInstr,
    &SampleProfile::dramReadsPerInstr,
    &SampleProfile::dramWritesPerInstr,
    &SampleProfile::dramPrefetchPerInstr,
    &SampleProfile::rowHitFrac,
    &SampleProfile::rowClosedFrac,
    &SampleProfile::rowConflictFrac,
    &SampleProfile::gpuWorkPerInstr,
    &SampleProfile::gpuActivity,
};

/** The rates before the GPU pair in kProfileRates. */
inline constexpr std::size_t kCpuProfileRates = 12;

static_assert(sizeof(SampleProfile) ==
                  sizeof(std::string) + kProfileRates.size() * sizeof(double),
              "a SampleProfile field is missing from kProfileRates");

/** The rates a grid stores: the GPU pair only on three-domain grids. */
constexpr std::span<double SampleProfile::*const>
storedProfileRates(bool has_gpu)
{
    return std::span(kProfileRates)
        .first(has_gpu ? kProfileRates.size() : kCpuProfileRates);
}

} // namespace mcdvfs

#endif // MCDVFS_SIM_SAMPLE_PROFILE_HH
