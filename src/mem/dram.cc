#include "mem/dram.hh"

#include <bit>

#include "common/logging.hh"

namespace mcdvfs
{

void
DramConfig::validate() const
{
    if (banks == 0 || !std::has_single_bit(banks))
        fatal("dram: bank count must be a power of two");
    if (rowBytes == 0 || !std::has_single_bit(rowBytes))
        fatal("dram: row size must be a power of two");
    if (busBytes == 0 || lineBytes == 0 || lineBytes % busBytes != 0)
        fatal("dram: line size must be a multiple of the bus width");
}

double
DramStats::rowHitRatio() const
{
    const Count total = accesses();
    return total ? static_cast<double>(rowHits) /
                   static_cast<double>(total)
                 : 0.0;
}

Seconds
DramTiming::burstSeconds(Hertz mem_freq, const DramConfig &config) const
{
    MCDVFS_ASSERT(mem_freq > 0.0, "memory frequency must be positive");
    // DDR: two transfers of busBytes per interface clock.
    const double beats = static_cast<double>(config.lineBytes) /
                         static_cast<double>(config.busBytes);
    return (beats / 2.0) / mem_freq;
}

Seconds
DramTiming::latency(RowOutcome outcome, Hertz mem_freq,
                    const DramConfig &config) const
{
    const Seconds sync = interfaceCycles / mem_freq +
                         burstSeconds(mem_freq, config);
    switch (outcome) {
      case RowOutcome::Hit:
        return tCas + sync;
      case RowOutcome::Closed:
        return tRcd + tCas + sync;
      case RowOutcome::Conflict:
        return tRp + tRcd + tCas + sync;
    }
    MCDVFS_PANIC("unreachable row outcome");
}

double
DramTiming::usableBandwidth(Hertz mem_freq, const DramConfig &config) const
{
    // DDR peak is 2 transfers/cycle, derated by attainable utilization.
    return 2.0 * mem_freq * static_cast<double>(config.busBytes) *
           maxUtilization;
}

DramDevice::DramDevice(const DramConfig &config)
    : config_(config)
{
    config_.validate();
    rowShift_ = std::countr_zero(config_.rowBytes);
    bankShift_ = std::countr_zero(config_.banks);
    bankMask_ = config_.banks - 1;
    banks_.assign(config_.banks, Bank{});
}

void
DramDevice::reset()
{
    banks_.assign(config_.banks, Bank{});
    stats_ = DramStats{};
}

} // namespace mcdvfs
