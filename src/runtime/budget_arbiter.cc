#include "runtime/budget_arbiter.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace mcdvfs
{
namespace runtime
{

namespace
{

/** Process-wide arbiter metrics (all arbiters share them). */
struct ArbiterMetrics
{
    obs::Counter decisions;
    obs::Counter kept;
    obs::Counter retunes;
    obs::Counter capped;
    /** Labeled views of `capped` by active priority variant. */
    obs::Counter cappedCpuPriority;
    obs::Counter cappedGpuPriority;
    obs::Counter rowSwitches;

    ArbiterMetrics()
    {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
        decisions = reg.counter("runtime.arbiter.decisions");
        kept = reg.counter("runtime.arbiter.kept");
        retunes = reg.counter("runtime.arbiter.retunes");
        capped = reg.counter("runtime.arbiter.capped");
        cappedCpuPriority =
            reg.counter("runtime.arbiter.capped", {{"priority", "cpu"}});
        cappedGpuPriority =
            reg.counter("runtime.arbiter.capped", {{"priority", "gpu"}});
        rowSwitches = reg.counter("runtime.arbiter.row_switches");
    }
};

ArbiterMetrics &
arbiterMetrics()
{
    static ArbiterMetrics metrics;
    return metrics;
}

bool
capsAdmit(const DomainCaps &caps, const FrequencySetting &setting,
          bool has_gpu)
{
    return setting.cpu <= caps.cpu && setting.mem <= caps.mem &&
           (!has_gpu || setting.gpu <= caps.gpu);
}

void
validateVariant(const DomainCaps &caps, const FrequencySetting &min,
                bool has_gpu, const char *variant)
{
    if (!(caps.cpu > 0.0) || !(caps.mem > 0.0) ||
        (has_gpu && !(caps.gpu > 0.0)))
        fatal("budget arbiter: ", variant, " caps must be positive");
    if (!capsAdmit(caps, min, has_gpu))
        fatal("budget arbiter: ", variant,
              " caps exclude the minimum setting — the arbiter would "
              "have no legal choice");
}

} // namespace

BudgetArbiter::BudgetArbiter(const ClusterFinder &clusters, double budget,
                             double threshold, std::vector<CapRow> table,
                             Priority priority)
    : clusters_(clusters), budget_(budget), threshold_(threshold),
      table_(std::move(table)), priority_(priority)
{
    if (!(budget >= 1.0))  // NaN fails too
        fatal("budget arbiter: inefficiency budget must be >= 1");
    if (!(threshold >= 0.0))  // NaN fails too
        fatal("budget arbiter: threshold must be >= 0");

    const SettingsSpace &spc = space();
    const bool has_gpu = spc.hasGpu();
    const FrequencySetting min = spc.minSetting();
    for (std::size_t i = 0; i < table_.size(); ++i) {
        const CapRow &row = table_[i];
        if (!std::isfinite(row.budget) || row.budget < 0.0)
            fatal("budget arbiter: row budgets must be finite and "
                  ">= 0");
        if (i > 0 && !(row.budget > table_[i - 1].budget))
            fatal("budget arbiter: cap rows must be strictly "
                  "ascending in budget");
        validateVariant(row.cpuPriority, min, has_gpu, "cpu-priority");
        validateVariant(row.gpuPriority, min, has_gpu, "gpu-priority");
        // A cpu-priority row keeps the CPU at least as fast as its
        // gpu-priority sibling, and vice versa — anything else would
        // invert the meaning of the priority switch.
        if (row.cpuPriority.cpu < row.gpuPriority.cpu ||
            row.gpuPriority.gpu < row.cpuPriority.gpu)
            fatal("budget arbiter: priority inversion in cap row ", i);
        if (i > 0) {
            // More available power must never tighten a cap.
            const CapRow &prev = table_[i - 1];
            const auto monotone = [](const DomainCaps &lo,
                                     const DomainCaps &hi) {
                return hi.cpu >= lo.cpu && hi.mem >= lo.mem &&
                       hi.gpu >= lo.gpu;
            };
            if (!monotone(prev.cpuPriority, row.cpuPriority) ||
                !monotone(prev.gpuPriority, row.gpuPriority))
                fatal("budget arbiter: caps must not tighten as the "
                      "budget grows (row ", i, ")");
        }
    }

    settings_ = spc.all();
    rebuildAllowed();
}

const SettingsSpace &
BudgetArbiter::space() const
{
    return clusters_.finder().analysis().grid().space();
}

std::size_t
BudgetArbiter::activeRow() const
{
    if (table_.empty())
        return 0;
    // Floor-wise row match (sysedp style): the last row whose budget
    // does not exceed the available power; below the first row the
    // most restrictive row stays in force.
    std::size_t row = 0;
    for (std::size_t i = 0; i < table_.size(); ++i) {
        if (table_[i].budget <= systemBudget_)
            row = i;
        else
            break;
    }
    return row;
}

DomainCaps
BudgetArbiter::activeCaps() const
{
    if (table_.empty()) {
        DomainCaps unconstrained;
        unconstrained.cpu = kUnconstrainedBudget;
        unconstrained.mem = kUnconstrainedBudget;
        unconstrained.gpu = kUnconstrainedBudget;
        return unconstrained;
    }
    const CapRow &row = table_[activeRow()];
    return priority_ == Priority::Cpu ? row.cpuPriority
                                      : row.gpuPriority;
}

void
BudgetArbiter::rebuildAllowed()
{
    const DomainCaps caps = activeCaps();
    const bool has_gpu = space().hasGpu();
    allowed_ = SettingMask(settings_.size());
    for (std::size_t k = 0; k < settings_.size(); ++k) {
        if (capsAdmit(caps, settings_[k], has_gpu))
            allowed_.set(k);
    }
    MCDVFS_ASSERT(allowed_.any(),
                  "validated caps always admit the minimum setting");
}

void
BudgetArbiter::setSystemBudget(Watts budget)
{
    if (std::isnan(budget))
        fatal("budget arbiter: system budget must not be NaN");
    const std::size_t before = activeRow();
    systemBudget_ = budget;
    if (activeRow() != before) {
        arbiterMetrics().rowSwitches.add(1);
        rebuildAllowed();
    }
}

void
BudgetArbiter::setPriority(Priority priority)
{
    if (priority == priority_)
        return;
    priority_ = priority;
    rebuildAllowed();
}

FrequencySetting
BudgetArbiter::preferredIn(const SettingMask &mask) const
{
    bool have = false;
    FrequencySetting best{};
    for (const std::size_t k : mask) {
        if (!have || settingPreferred(settings_[k], best)) {
            have = true;
            best = settings_[k];
        }
    }
    MCDVFS_ASSERT(have, "preferredIn over an empty mask");
    return best;
}

FrequencySetting
BudgetArbiter::decide(const SampleObservation *last)
{
    obs::TraceSpan span("runtime.arbiter.decide");
    ArbiterMetrics &metrics = arbiterMetrics();
    metrics.decisions.add(1);
    ++decisions_;

    if (!last) {
        // Nothing observed yet: the fastest setting the caps admit
        // (the space maximum when unconstrained, exactly like the
        // plain inefficiency governor).
        current_ = preferredIn(allowed_);
        haveCurrent_ = true;
        return current_;
    }

    // Last-value phase prediction, same as InefficiencyGovernor: the
    // cluster of the sample that just finished.
    const PerformanceCluster cluster = clusters_.clusterForSample(
        last->sampleIndex, budget_, threshold_);

    if (haveCurrent_) {
        const std::size_t current_idx = space().indexOf(current_);
        if (cluster.contains(current_idx) &&
            allowed_.test(current_idx)) {
            // Still near-optimal and still affordable: no transition.
            metrics.kept.add(1);
            ++kept_;
            return current_;
        }
    }

    if (allowed_.test(cluster.optimal.settingIndex)) {
        metrics.retunes.add(1);
        ++retuned_;
        current_ = cluster.optimal.setting;
        haveCurrent_ = true;
        return current_;
    }

    // The caps vetoed the cluster optimum: fall back to the
    // most-preferred affordable cluster member, or — if power is so
    // short the whole cluster is out of reach — the most-preferred
    // affordable setting anywhere (the validated caps always admit at
    // least the minimum setting).
    metrics.capped.add(1);
    if (priority_ == Priority::Cpu)
        metrics.cappedCpuPriority.add(1);
    else
        metrics.cappedGpuPriority.add(1);
    ++capped_;
    bool have = false;
    FrequencySetting best{};
    for (const std::size_t k : cluster.settings) {
        if (!allowed_.test(k))
            continue;
        if (!have || settingPreferred(settings_[k], best)) {
            have = true;
            best = settings_[k];
        }
    }
    current_ = have ? best : preferredIn(allowed_);
    haveCurrent_ = true;
    return current_;
}

} // namespace runtime
} // namespace mcdvfs
