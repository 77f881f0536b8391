#include "sim/timing_model.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mcdvfs
{

TimingModel::TimingModel(const TimingParams &params)
    : params_(params)
{
    params_.dramConfig.validate();
    if (params_.bwUtilizationCap <= 0.0 || params_.bwUtilizationCap >= 1.0)
        fatal("timing model: bwUtilizationCap must be in (0,1)");
    if (params_.fixedPointIterations < 1)
        fatal("timing model: need at least one fixed-point iteration");
}

SampleTiming
TimingModel::evaluate(const SampleProfile &profile,
                      const FrequencySetting &setting,
                      Count instructions) const
{
    if (setting.cpu <= 0.0 || setting.mem <= 0.0)
        fatal("timing model: frequencies must be positive, got ",
              setting.label());

    const double n = static_cast<double>(instructions);

    const double core_cpi = coreCpi(profile);
    const Seconds core_time = n * core_cpi / setting.cpu;

    SampleTiming timing;
    timing.busy = core_time;

    const double dram_per_instr = profile.dramPerInstr();
    if (dram_per_instr <= 0.0 || instructions == 0) {
        timing.total = core_time;
        timing.stall = 0.0;
        timing.bwUtil = 0.0;
        return timing;
    }

    // Uncontended per-fill latency, weighted by row-buffer outcome.
    const DramTiming &dt = params_.dramTiming;
    const DramConfig &dc = params_.dramConfig;
    const Seconds base_latency = profile.rowWeightedLatency(
        dt.latency(RowOutcome::Hit, setting.mem, dc),
        dt.latency(RowOutcome::Closed, setting.mem, dc),
        dt.latency(RowOutcome::Conflict, setting.mem, dc));

    const double demand_fills = n * profile.dramReadsPerInstr;
    const double traffic_bytes =
        n * profile.trafficPerInstr() * static_cast<double>(dc.lineBytes);
    const double usable_bw = dt.usableBandwidth(setting.mem, dc);

    // Damped fixed point: utilization depends on total time, total
    // time depends on queueing inflation, which depends on
    // utilization.
    Seconds total = core_time + demand_fills * base_latency / profile.mlp;

    if (!params_.modelBandwidth) {
        // Ablation: pure latency model, no saturation.
        timing.total = total;
        timing.stall = total - core_time;
        timing.bwUtil =
            std::min(1.0, traffic_bytes / (total * usable_bw));
        return timing;
    }

    double rho = 0.0;
    for (int iter = 0; iter < params_.fixedPointIterations; ++iter) {
        rho = std::min(params_.bwUtilizationCap,
                       traffic_bytes / (total * usable_bw));
        // M/D/1-flavoured inflation of the service latency.
        const Seconds inflated =
            base_latency * (1.0 + 0.5 * rho * rho / (1.0 - rho));
        const Seconds next =
            core_time + demand_fills * inflated / profile.mlp;
        total = 0.5 * (total + next);
    }

    // The stream can never move faster than the usable bandwidth.
    total = std::max(total, traffic_bytes / usable_bw);

    timing.total = total;
    timing.stall = total - core_time;
    timing.bwUtil = std::min(1.0, traffic_bytes / (total * usable_bw));
    return timing;
}

double
TimingModel::coreCpi(const SampleProfile &profile) const
{
    // Core component: issue-limited cycles plus the exposed share of
    // L2 hit latency, all in the CPU clock domain.
    return profile.baseCpi + profile.l2PerInstr *
                                 static_cast<double>(
                                     params_.l2LatencyCycles) *
                                 params_.l2StallExposure;
}

std::vector<MemTimingPoint>
TimingModel::memTable(const FrequencyLadder &ladder) const
{
    const DramTiming &dt = params_.dramTiming;
    const DramConfig &dc = params_.dramConfig;
    std::vector<MemTimingPoint> table;
    table.reserve(ladder.size());
    for (const Hertz mem : ladder.steps()) {
        if (mem <= 0.0)
            fatal("timing model: frequencies must be positive");
        MemTimingPoint point;
        point.latencyHit = dt.latency(RowOutcome::Hit, mem, dc);
        point.latencyClosed = dt.latency(RowOutcome::Closed, mem, dc);
        point.latencyConflict = dt.latency(RowOutcome::Conflict, mem, dc);
        point.usableBandwidth = dt.usableBandwidth(mem, dc);
        table.push_back(point);
    }
    return table;
}

} // namespace mcdvfs
