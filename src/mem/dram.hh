/**
 * @file
 * LPDDR3 DRAM device model: bank/row organization with an open-page
 * policy, row-buffer outcome classification, and frequency-dependent
 * timing.
 *
 * Like the caches, the row-buffer *classifier* is functional and
 * frequency-free: an access is a row hit, a closed-bank access, or a
 * row conflict purely as a function of the address stream.  Timing per
 * outcome is computed by DramTiming, which splits each latency into an
 * analog portion fixed in nanoseconds (tRP/tRCD/tCAS core timing, per
 * the Micron datasheet) and a synchronous portion counted in interface
 * clock cycles that scales with memory frequency (command/burst
 * transfer and controller/PHY pipeline), following the Micron technote
 * method the paper cites for scaling timing with frequency.
 */

#ifndef MCDVFS_MEM_DRAM_HH
#define MCDVFS_MEM_DRAM_HH

#include <cstdint>
#include <vector>

#include "common/units.hh"

namespace mcdvfs
{

/** Row-buffer outcome of one DRAM transaction. */
enum class RowOutcome : std::uint8_t
{
    Hit,       ///< open row matches
    Closed,    ///< bank had no open row (first touch after precharge)
    Conflict,  ///< different row open: precharge + activate needed
};

/** Organization of the simulated LPDDR3 part (single channel, 1 rank). */
struct DramConfig
{
    std::uint32_t banks = 8;
    std::uint32_t rowBytes = 4096;
    /** Data bus width in bytes (x32 LPDDR3). */
    std::uint32_t busBytes = 4;
    /** Transaction (cache line) size in bytes. */
    std::uint32_t lineBytes = 64;

    /** @throws FatalError on inconsistent organization. */
    void validate() const;
};

/** Transaction counters, split by row-buffer outcome. */
struct DramStats
{
    Count reads = 0;
    Count writes = 0;
    Count rowHits = 0;
    Count rowClosed = 0;
    Count rowConflicts = 0;

    Count accesses() const { return reads + writes; }

    /** Row-hit ratio in [0,1]; 0 when idle. */
    double rowHitRatio() const;
};

/**
 * Frequency-dependent LPDDR3 timing.
 *
 * All latencies are seconds for a single transaction of
 * DramConfig::lineBytes, given the memory interface clock.
 */
struct DramTiming
{
    /** Analog row-precharge time (fixed in ns across frequency). */
    Seconds tRp = nanoSeconds(18.0);
    /** Analog row-activate (RAS-to-CAS) time. */
    Seconds tRcd = nanoSeconds(18.0);
    /** Analog column access (CAS) time. */
    Seconds tCas = nanoSeconds(15.0);
    /**
     * Synchronous controller + PHY pipeline depth in interface cycles
     * (command queue, clock-domain crossing, read return path).
     */
    double interfaceCycles = 10.0;
    /** Fraction of peak bandwidth attainable by real request streams. */
    double maxUtilization = 0.70;

    /** Seconds to transfer one line at DDR rate. */
    Seconds burstSeconds(Hertz mem_freq, const DramConfig &config) const;

    /** Latency of a transaction with the given row outcome. */
    Seconds latency(RowOutcome outcome, Hertz mem_freq,
                    const DramConfig &config) const;

    /** Attainable bandwidth in bytes/second at @c mem_freq. */
    double usableBandwidth(Hertz mem_freq, const DramConfig &config) const;
};

/**
 * Open-page bank-state tracker that classifies each transaction.
 *
 * Address mapping is column-low / bank-mid / row-high, so a sequential
 * stream walks a full row before moving to the next bank — the mapping
 * open-page policies are designed for.
 */
class DramDevice
{
  public:
    /** @throws FatalError on invalid organization. */
    explicit DramDevice(const DramConfig &config);

    /** Classify one transaction and update bank state. */
    RowOutcome
    access(std::uint64_t addr, bool is_write)
    {
        // column-low / bank-mid / row-high mapping; the row size and
        // bank count are validated powers of two.
        const std::uint64_t row_addr = addr >> rowShift_;
        Bank &bank = banks_[row_addr & bankMask_];
        const std::uint64_t row = row_addr >> bankShift_;

        stats_.writes += is_write;
        stats_.reads += !is_write;

        RowOutcome outcome;
        if (!bank.rowOpen) {
            outcome = RowOutcome::Closed;
            ++stats_.rowClosed;
        } else if (bank.openRow == row) {
            outcome = RowOutcome::Hit;
            ++stats_.rowHits;
        } else {
            outcome = RowOutcome::Conflict;
            ++stats_.rowConflicts;
        }
        bank.rowOpen = true;
        bank.openRow = row;
        return outcome;
    }

    /** Precharge all banks and clear statistics. */
    void reset();

    /** Zero counters but keep bank state (sample boundary). */
    void clearStats() { stats_ = DramStats{}; }

    const DramStats &stats() const { return stats_; }
    const DramConfig &config() const { return config_; }

  private:
    struct Bank
    {
        std::uint64_t openRow = 0;
        bool rowOpen = false;
    };

    DramConfig config_;
    std::uint32_t rowShift_;
    std::uint32_t bankShift_;
    std::uint64_t bankMask_;
    std::vector<Bank> banks_;
    DramStats stats_;
};

} // namespace mcdvfs

#endif // MCDVFS_MEM_DRAM_HH
