/**
 * @file
 * mcdvfs command-line tool: run any of the library's analyses from
 * the shell.
 *
 *   mcdvfs_cli list
 *   mcdvfs_cli characterize <workload> [--csv]
 *   mcdvfs_cli grid <workload> [--fine] [--out FILE]
 *   mcdvfs_cli optimal <workload> [--budget B] [--csv]
 *   mcdvfs_cli regions <workload> [--budget B] [--threshold PCT]
 *   mcdvfs_cli tradeoff <workload> [--budget B] [--threshold PCT]
 *   mcdvfs_cli profile <workload> [--budget B] [--threshold PCT]
 *   mcdvfs_cli tune <wl[:budget]> ... [--threshold PCT] [--jobs N]
 *   mcdvfs_cli serve [--store-dir DIR] [--jobs N]
 *   mcdvfs_cli stats [wl[:budget]] ...
 *
 * Workloads are the twelve SPEC-like profiles; grids come from the
 * paper's coarse 70-setting space unless --fine is given.  Every
 * grid-building command accepts --jobs N to spread the per-setting
 * model evaluation over N worker threads (results are bit-identical
 * to --jobs 1); grids are served through the characterization
 * service, so repeated grids within one invocation hit its cache.
 *
 * "serve" runs the long-lived tuning daemon (docs/FLEET.md): it reads
 * newline-delimited wl[:budget] specs from stdin, answers them through
 * the async request pipeline, and drains cleanly at EOF.  With
 * --store-dir DIR the daemon persists grid/analysis snapshots there
 * and warm-loads them on the next start.  "tune" and the "stats"
 * batch submit through the same daemon, in memory only unless
 * --store-dir is given.  A serve line that fails to parse or to tune
 * becomes an "error" row (reason on stderr) and the rest are answered;
 * any such line makes the exit status 1.
 *
 * Every command accepts --metrics-out FILE to dump the process
 * metrics snapshot (docs/OBSERVABILITY.md) as JSON on exit; the
 * "stats" command prints the same snapshot to stdout, optionally
 * after running a batch of tuning requests to generate activity.
 * "stats --watch SECS [--watch-count N]" runs a live telemetry
 * pipeline instead: each tick prints the counters that moved to
 * stderr and, after N ticks (default 5), the windowed timeseries
 * JSON (schema mcdvfs-timeseries-v1) goes to stdout.  "serve
 * --telemetry-out FILE [--telemetry-period-ms MS]" samples the
 * daemon the same way for its whole life — SLO watchdog armed —
 * and writes the timeseries JSON at exit.
 *
 * Every command also accepts --trace-out FILE to record an execution
 * trace (Chrome trace_event JSON, loadable in Perfetto or
 * chrome://tracing), --log-level LEVEL to set the advisory logging
 * threshold (debug, info, warn, error, silent), and — for tradeoff
 * and tune — --trace-journal FILE to dump the per-sample tuning
 * decision journal (JSONL, schema mcdvfs-trace-v1).
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>

#include "obs/telemetry.hh"

#include "common/args.hh"
#include "daemon/tuning_daemon.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "obs/journal.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "core/pareto.hh"
#include "repro/analyses.hh"
#include "repro/suite.hh"
#include "runtime/offline_profile.hh"
#include "runtime/tuning_loop.hh"
#include "sched/scheduler.hh"
#include "sim/grid_io.hh"
#include "svc/characterization_service.hh"
#include "trace/workloads.hh"

using namespace mcdvfs;

namespace
{

int
usage()
{
    std::cerr
        << "usage: mcdvfs_cli <command> [args]\n"
           "  list                                  workloads\n"
           "  characterize <workload> [--csv]       per-sample profile\n"
           "  grid <workload> [--fine] [--out F]    build + save a grid\n"
           "  optimal <workload> [--budget B]       optimal trajectory\n"
           "  regions <workload> [--budget B] [--threshold PCT]\n"
           "  tradeoff <workload> [--budget B] [--threshold PCT]\n"
           "  profile <workload> [--budget B] [--threshold PCT]\n"
           "  pareto <workload> [--fine]\n"
           "  schedule <wl[:budget]> <wl[:budget]> ... [--budget B]\n"
           "  tune <wl[:budget]> <wl[:budget]> ... [--threshold PCT]\n"
           "  serve [--store-dir DIR]               tuning daemon on stdin\n"
           "  stats [wl[:budget]] ...               metrics snapshot\n"
           "options: --jobs N parallelizes grid construction;\n"
           "         --store-dir DIR persists grid/analysis snapshots\n"
           "           (serve and tune) and warm-loads them on start;\n"
           "         --watch SECS samples a live timeseries instead\n"
           "           (stats; per-tick deltas on stderr, timeseries\n"
           "           JSON on stdout after --watch-count ticks);\n"
           "         --telemetry-out FILE samples the daemon at\n"
           "           --telemetry-period-ms (serve; default 250) and\n"
           "           writes the timeseries JSON on exit;\n"
           "         --metrics-out FILE dumps metrics JSON on exit;\n"
           "         --trace-out FILE dumps a Chrome/Perfetto trace;\n"
           "         --trace-journal FILE dumps the per-sample tuning\n"
           "           decision journal (tradeoff and tune);\n"
           "         --log-level LEVEL sets the advisory threshold\n"
           "           (debug, info, warn, error, silent)\n";
    return 2;
}

/**
 * Run the four online re-tune schedules over @c grid with a decision
 * journal attached, appending one record per (policy, sample) pair.
 */
void
journalSchedules(obs::DecisionJournal &journal, const MeasuredGrid &grid,
                 double budget, double threshold)
{
    GridAnalyses a(grid);
    TuningLoop loop(a.clusters, a.regions, a.costModel);
    loop.setJournal(&journal);
    loop.runOracle(budget, threshold);
    loop.runEverySample(budget, threshold);
    loop.runPredictive(budget, threshold);
    loop.runReactive(budget, threshold);
}

std::size_t
jobsFrom(const ArgParser &args)
{
    return static_cast<std::size_t>(args.getInt("jobs", 1, 1, 1024));
}

svc::CharacterizationService::Options
serviceOptions(const ArgParser &args)
{
    svc::CharacterizationService::Options options;
    options.jobs = jobsFrom(args);
    options.profileCacheCapacity = static_cast<std::size_t>(
        args.getInt("profile-cache", 0, 0, 1 << 20));
    return options;
}

SettingsSpace
spaceFrom(const ArgParser &args)
{
    return args.flag("fine") ? SettingsSpace::fine()
                             : SettingsSpace::coarse();
}

std::shared_ptr<const MeasuredGrid>
buildGrid(svc::CharacterizationService &service, const std::string &workload,
          const ArgParser &args)
{
    return service.grid(workloadByName(workload), spaceFrom(args));
}

// Parses the budget half of a "workload:budget" positional.
double
budgetFromSpec(const std::string &spec, std::size_t colon,
               const ArgParser &args)
{
    if (colon == std::string::npos)
        return args.getDouble("budget", 1.3);
    const std::string text = spec.substr(colon + 1);
    try {
        std::size_t used = 0;
        const double budget = std::stod(text, &used);
        if (used != text.size())
            throw std::invalid_argument(text);
        return budget;
    } catch (const std::exception &) {
        fatal("bad budget '", text, "' in '", spec, "' (expected e.g. ",
              spec.substr(0, colon), ":1.3)");
    }
}

int
cmdList()
{
    Table table({"workload", "samples", "flavour"});
    table.setTitle("available workloads");
    for (const auto &w : extendedWorkloads()) {
        const bool reported =
            std::find(ReproSuite::benchmarkNames().begin(),
                      ReproSuite::benchmarkNames().end(),
                      w.name()) != ReproSuite::benchmarkNames().end();
        table.addRow({w.name(),
                      Table::num(static_cast<long long>(
                          w.sampleCount())),
                      reported ? "paper-reported" : "extended"});
    }
    table.print(std::cout);
    return 0;
}

int
cmdCharacterize(const ArgParser &args)
{
    const std::string workload = args.positionals().at(1);
    SampleSimulator simulator;
    const WorkloadProfile profile = workloadByName(workload);
    const auto samples = simulator.characterize(profile);

    Table table({"sample", "phase", "baseCPI", "L1 MPKI", "L2 MPKI",
                 "dram/ki", "rowhit%", "mlp"});
    table.setTitle("characterization: " + workload);
    for (std::size_t s = 0; s < samples.size(); ++s) {
        const SampleProfile &p = samples[s];
        table.addRow({Table::num(static_cast<long long>(s)),
                      p.phaseName, Table::num(p.baseCpi, 2),
                      Table::num(p.l1Mpki, 1), Table::num(p.l2Mpki, 1),
                      Table::num(p.dramPerInstr() * 1000.0, 1),
                      Table::num(p.rowHitFrac * 100.0, 0),
                      Table::num(p.mlp, 1)});
    }
    if (args.flag("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    return 0;
}

int
cmdGrid(const ArgParser &args)
{
    const std::string workload = args.positionals().at(1);
    svc::CharacterizationService service(SystemConfig::paperDefault(),
                                         serviceOptions(args));
    const auto grid = buildGrid(service, workload, args);
    const std::string out = args.get("out");
    if (out.empty()) {
        saveGrid(*grid, std::cout);
        return 0;
    }
    std::ofstream file(out);
    if (!file)
        fatal("cannot open '", out, "' for writing");
    saveGrid(*grid, file);
    std::cerr << "wrote " << grid->sampleCount() << "x"
              << grid->settingCount() << " grid to " << out << "\n";
    return 0;
}

int
cmdOptimal(const ArgParser &args)
{
    const std::string workload = args.positionals().at(1);
    const double budget = args.getDouble("budget", 1.3);
    svc::CharacterizationService service(SystemConfig::paperDefault(),
                                         serviceOptions(args));
    svc::TuningRequest request{workloadByName(workload), spaceFrom(args),
                               budget,
                               args.getDouble("threshold", 3.0) / 100.0};
    const svc::TuningResult result = service.submit(request);

    Table table({"sample", "cpu MHz", "mem MHz", "speedup",
                 "inefficiency"});
    table.setTitle(workload + " optimal settings at budget " +
                   Table::num(budget, 2));
    std::size_t s = 0;
    for (const OptimalChoice &choice : result.optimal) {
        table.addRow({Table::num(static_cast<long long>(s++)),
                      Table::num(toMegaHertz(choice.setting.cpu), 0),
                      Table::num(toMegaHertz(choice.setting.mem), 0),
                      Table::num(choice.speedup, 3),
                      Table::num(choice.inefficiency, 3)});
    }
    if (args.flag("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    return 0;
}

int
cmdRegions(const ArgParser &args)
{
    const std::string workload = args.positionals().at(1);
    const double budget = args.getDouble("budget", 1.3);
    const double threshold = args.getDouble("threshold", 3.0) / 100.0;
    svc::CharacterizationService service(SystemConfig::paperDefault(),
                                         serviceOptions(args));
    svc::TuningRequest request{workloadByName(workload), spaceFrom(args),
                               budget, threshold};
    const svc::TuningResult result = service.submit(request);

    Table table({"region", "samples", "length", "cpu MHz", "mem MHz"});
    table.setTitle(workload + " stable regions (budget " +
                   Table::num(budget, 2) + ", threshold " +
                   Table::num(threshold * 100.0, 0) + "%)");
    const auto &regions = result.regions;
    for (std::size_t r = 0; r < regions.size(); ++r) {
        table.addRow(
            {Table::num(static_cast<long long>(r)),
             Table::num(static_cast<long long>(regions[r].first)) +
                 "-" +
                 Table::num(static_cast<long long>(regions[r].last)),
             Table::num(static_cast<long long>(regions[r].length())),
             Table::num(toMegaHertz(regions[r].chosenSetting.cpu), 0),
             Table::num(toMegaHertz(regions[r].chosenSetting.mem), 0)});
    }
    table.print(std::cout);
    return 0;
}

int
cmdTradeoff(const ArgParser &args)
{
    const std::string workload = args.positionals().at(1);
    const double budget = args.getDouble("budget", 1.3);
    const double threshold = args.getDouble("threshold", 3.0) / 100.0;
    svc::CharacterizationService service(SystemConfig::paperDefault(),
                                         serviceOptions(args));
    const auto grid = buildGrid(service, workload, args);
    GridAnalyses a(*grid);

    const PolicyOutcome optimal = a.tradeoff.optimalTracking(budget);
    const PolicyOutcome cluster =
        a.tradeoff.clusterPolicy(budget, threshold);
    const TradeoffRow row = a.tradeoff.compare(budget, threshold);

    Table table({"policy", "time (ms)", "energy (mJ)", "achieved I",
                 "events", "transitions"});
    table.setTitle(workload + " trade-off at budget " +
                   Table::num(budget, 2));
    table.addRow({"optimal-tracking", Table::num(optimal.time * 1e3, 2),
                  Table::num(optimal.energy * 1e3, 2),
                  Table::num(optimal.achievedInefficiency, 3),
                  Table::num(static_cast<long long>(
                      optimal.tuningEvents)),
                  Table::num(static_cast<long long>(
                      optimal.transitions))});
    table.addRow({"cluster-policy", Table::num(cluster.time * 1e3, 2),
                  Table::num(cluster.energy * 1e3, 2),
                  Table::num(cluster.achievedInefficiency, 3),
                  Table::num(static_cast<long long>(
                      cluster.tuningEvents)),
                  Table::num(static_cast<long long>(
                      cluster.transitions))});
    table.print(std::cout);
    std::cout << "cluster vs optimal: perf " << Table::num(row.perfPct, 2)
              << "% / energy " << Table::num(row.energyPct, 2)
              << "%; with tuning overhead: perf "
              << Table::num(row.perfPctWithOverhead, 2) << "% / energy "
              << Table::num(row.energyPctWithOverhead, 2) << "%\n";

    if (args.has("trace-journal")) {
        obs::DecisionJournal journal;
        journalSchedules(journal, *grid, budget, threshold);
        journal.write(args.get("trace-journal"));
        std::cerr << "wrote " << journal.records().size()
                  << " journal records to " << args.get("trace-journal")
                  << "\n";
    }
    return 0;
}

int
cmdPareto(const ArgParser &args)
{
    const std::string workload = args.positionals().at(1);
    svc::CharacterizationService service(SystemConfig::paperDefault(),
                                         serviceOptions(args));
    const auto grid = buildGrid(service, workload, args);
    InefficiencyAnalysis analysis(*grid);
    ParetoAnalysis pareto(analysis);

    Table table({"cpu MHz", "mem MHz", "time (ms)", "energy (mJ)",
                 "speedup", "inefficiency"});
    table.setTitle(workload + " energy-performance Pareto frontier");
    for (const ParetoPoint &point : pareto.runFrontier()) {
        table.addRow({Table::num(toMegaHertz(point.setting.cpu), 0),
                      Table::num(toMegaHertz(point.setting.mem), 0),
                      Table::num(point.time * 1e3, 2),
                      Table::num(point.energy * 1e3, 2),
                      Table::num(point.speedup, 3),
                      Table::num(point.inefficiency, 3)});
    }
    table.print(std::cout);
    std::cout << Table::num(pareto.dominatedFraction() * 100.0, 0)
              << "% of the " << grid->settingCount()
              << " settings are dominated\n";
    return 0;
}

int
cmdSchedule(const ArgParser &args)
{
    // schedule <workload[:budget]> <workload[:budget]> ...
    ReproSuite suite(SystemConfig::paperDefault(), jobsFrom(args));
    std::vector<AppTask> apps;
    std::vector<std::string> names;
    for (std::size_t i = 1; i < args.positionals().size(); ++i) {
        const std::string &spec = args.positionals()[i];
        const std::size_t colon = spec.find(':');
        AppTask task;
        task.name = spec.substr(0, colon);
        task.budget = budgetFromSpec(spec, colon, args);
        task.threshold = args.getDouble("threshold", 3.0) / 100.0;
        names.push_back(task.name);
        apps.push_back(task);
    }
    // Grids must outlive the run; fetch after the vector is final.
    for (std::size_t i = 0; i < apps.size(); ++i)
        apps[i].grid = &suite.grid(names[i]);

    BudgetScheduler scheduler;
    for (const auto &[policy, label] :
         {std::pair{SchedPolicy::RoundRobin, "round-robin"},
          std::pair{SchedPolicy::RunToCompletion,
                    "run-to-completion"}}) {
        const ScheduleResult result = scheduler.run(apps, policy);
        Table table({"app", "budget", "achieved I", "busy (ms)",
                     "energy (mJ)"});
        table.setTitle(std::string("schedule: ") + label);
        for (std::size_t i = 0; i < apps.size(); ++i) {
            table.addRow(
                {result.apps[i].name, Table::num(apps[i].budget, 2),
                 Table::num(result.apps[i].achievedInefficiency, 3),
                 Table::num(result.apps[i].busyTime * 1e3, 1),
                 Table::num(result.apps[i].energy * 1e3, 1)});
        }
        table.print(std::cout);
        std::cout << "makespan "
                  << Table::num(result.makespan * 1e3, 1)
                  << " ms, transitions "
                  << result.frequencyTransitions << "\n\n";
    }
    return 0;
}

int
cmdProfile(const ArgParser &args)
{
    const std::string workload = args.positionals().at(1);
    const double budget = args.getDouble("budget", 1.3);
    const double threshold = args.getDouble("threshold", 3.0) / 100.0;
    svc::CharacterizationService service(SystemConfig::paperDefault(),
                                         serviceOptions(args));
    svc::TuningRequest request{workloadByName(workload), spaceFrom(args),
                               budget, threshold};
    const svc::TuningResult result = service.submit(request);
    const OfflineProfile profile = OfflineProfile::fromRegions(
        workload, result.regions, result.grid->space());
    std::cout << profile.serialize();
    return 0;
}

daemon::DaemonOptions
daemonOptions(const ArgParser &args)
{
    daemon::DaemonOptions options;
    options.service = serviceOptions(args);
    if (args.has("store-dir"))
        options.storeDir = args.get("store-dir");
    return options;
}

/** The tuning request of one wl[:budget] spec. */
svc::TuningRequest
requestFrom(const std::string &spec, const ArgParser &args)
{
    const std::size_t colon = spec.find(':');
    return svc::TuningRequest{workloadByName(spec.substr(0, colon)),
                              spaceFrom(args),
                              budgetFromSpec(spec, colon, args),
                              args.getDouble("threshold", 3.0) / 100.0};
}

/** The requests of every wl[:budget] positional after the command. */
std::vector<svc::TuningRequest>
requestsFrom(const ArgParser &args)
{
    std::vector<svc::TuningRequest> requests;
    for (std::size_t i = 1; i < args.positionals().size(); ++i)
        requests.push_back(requestFrom(args.positionals()[i], args));
    return requests;
}

/**
 * Submit every request to @c server, drain it, and return the results
 * in request order.
 *
 * @throws FatalError when a request is shed or fails
 */
std::vector<svc::TuningResult>
tuneAll(daemon::TuningDaemon &server,
        const std::vector<svc::TuningRequest> &requests)
{
    std::vector<std::future<daemon::DaemonResponse>> futures;
    futures.reserve(requests.size());
    for (const svc::TuningRequest &request : requests)
        futures.push_back(server.submit(request));
    std::vector<svc::TuningResult> results;
    results.reserve(requests.size());
    for (std::future<daemon::DaemonResponse> &future : futures) {
        daemon::DaemonResponse response = future.get();
        if (!response.ok())
            fatal("request shed (", daemon::shedReasonName(response.shed),
                  ")");
        results.push_back(std::move(response.result));
    }
    server.drain();
    return results;
}

int
cmdTune(const ArgParser &args)
{
    // tune <workload[:budget]> <workload[:budget]> ... — one batch
    // through the tuning daemon (with --store-dir, snapshots are
    // written and warm-loaded).
    const std::vector<svc::TuningRequest> requests = requestsFrom(args);
    daemon::TuningDaemon server(SystemConfig::paperDefault(),
                                daemonOptions(args));
    const std::vector<svc::TuningResult> results =
        tuneAll(server, requests);
    svc::CharacterizationService &service = server.service();

    Table table({"workload", "budget", "samples", "regions",
                 "mean length", "cached"});
    table.setTitle("batched tuning (" +
                   Table::num(static_cast<long long>(service.jobs())) +
                   " jobs)");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const svc::TuningResult &result = results[i];
        const double mean_length =
            result.regions.empty()
                ? 0.0
                : static_cast<double>(result.grid->sampleCount()) /
                      static_cast<double>(result.regions.size());
        table.addRow(
            {requests[i].workload.name(),
             Table::num(result.budget, 2),
             Table::num(static_cast<long long>(
                 result.grid->sampleCount())),
             Table::num(static_cast<long long>(result.regions.size())),
             Table::num(mean_length, 1),
             result.cacheHit ? "yes" : "no"});
    }
    table.print(std::cout);
    const svc::GridCache::Stats stats = service.cacheStats();
    std::cout << "grid cache: " << stats.hits << " hits, "
              << stats.misses << " misses, " << stats.evictions
              << " evictions\n";
    const svc::AnalysisCache::Stats analysis_stats =
        service.analysisStats();
    const svc::CheckpointCache::Stats checkpoint_stats =
        service.checkpointStats();
    std::cout << "analysis cache: " << analysis_stats.hits << " hits, "
              << analysis_stats.misses << " misses, "
              << analysis_stats.evictions << " evictions; checkpoints: "
              << checkpoint_stats.hits << " hits, "
              << checkpoint_stats.misses << " misses\n";
    if (service.profileCacheEnabled()) {
        const ProfileCache::Stats profile_stats =
            service.profileStats();
        std::cout << "profile cache: " << profile_stats.hits
                  << " hits, " << profile_stats.misses << " misses, "
                  << profile_stats.evictions << " evictions, "
                  << profile_stats.entries << " resident\n";
    }
    const daemon::DaemonStats daemon_stats = server.stats();
    std::cout << "daemon: " << daemon_stats.completed << " completed, "
              << daemon_stats.coalesced << " coalesced";
    if (server.store() != nullptr) {
        std::cout << ", " << daemon_stats.warmGrids << "+"
                  << daemon_stats.warmAnalyses
                  << " snapshots warm-loaded from '"
                  << server.store()->directory() << "'";
    }
    std::cout << "\n";

    if (args.has("trace-journal")) {
        obs::DecisionJournal journal;
        for (const svc::TuningResult &result : results) {
            journalSchedules(journal, *result.grid, result.budget,
                             result.threshold);
        }
        journal.write(args.get("trace-journal"));
        std::cerr << "wrote " << journal.records().size()
                  << " journal records to " << args.get("trace-journal")
                  << "\n";
    }
    return 0;
}

int
cmdServe(const ArgParser &args)
{
    // serve — long-lived daemon loop: one wl[:budget] spec per stdin
    // line ('#' comments and blank lines skipped), answered through
    // the async pipeline; EOF drains and prints the summary.  A line
    // that fails to parse or to tune is one "error" row, and the exit
    // status is 1 once the table and summary are out.  With
    // --telemetry-out FILE a background pipeline samples the metrics
    // registry (SLO watchdog armed) for the daemon's whole life and
    // writes the timeseries JSON on exit.
    std::unique_ptr<obs::TelemetryPipeline> telemetry;
    if (args.has("telemetry-out")) {
        obs::TelemetryConfig config;
        config.period = std::chrono::milliseconds(args.getInt(
            "telemetry-period-ms", 250, 1, 3600000));
        telemetry = std::make_unique<obs::TelemetryPipeline>(config);
        telemetry->start();
    }
    daemon::TuningDaemon server(SystemConfig::paperDefault(),
                                daemonOptions(args));
    struct Submitted
    {
        std::string spec;
        /** Invalid when the line failed to parse. */
        std::future<daemon::DaemonResponse> future;
        std::string error;
    };
    std::vector<Submitted> submitted;
    std::string line;
    while (std::getline(std::cin, line)) {
        const std::size_t start = line.find_first_not_of(" \t");
        if (start == std::string::npos || line[start] == '#')
            continue;
        Submitted entry;
        entry.spec =
            line.substr(start, line.find_last_not_of(" \t\r") - start + 1);
        try {
            entry.future = server.submit(requestFrom(entry.spec, args));
        } catch (const std::exception &err) {
            entry.error = err.what();
        }
        submitted.push_back(std::move(entry));
    }
    server.drain();

    Table table({"request", "regions", "grid hit", "analysis hit",
                 "status", "total ms"});
    table.setTitle("tuning daemon (" +
                   Table::num(static_cast<long long>(
                       server.service().jobs())) +
                   " jobs)");
    std::size_t failed = 0;
    for (Submitted &entry : submitted) {
        daemon::DaemonResponse response;
        if (entry.future.valid()) {
            try {
                response = entry.future.get();
            } catch (const std::exception &err) {
                entry.error = err.what();
            }
        }
        if (!entry.error.empty()) {
            std::cerr << "error: " << entry.spec << ": " << entry.error
                      << "\n";
            table.addRow({entry.spec, "-", "-", "-", "error", "-"});
            ++failed;
        } else if (response.ok()) {
            table.addRow(
                {entry.spec,
                 Table::num(static_cast<long long>(
                     response.result.regions.size())),
                 response.result.cacheHit ? "yes" : "no",
                 response.result.analysisCacheHit ? "yes" : "no", "ok",
                 Table::num(static_cast<double>(response.totalNs) / 1e6,
                            3)});
        } else {
            table.addRow({entry.spec, "-", "-", "-",
                          daemon::shedReasonName(response.shed), "-"});
        }
    }
    table.print(std::cout);

    const daemon::DaemonStats stats = server.stats();
    std::cout << "daemon: " << stats.admitted << " admitted, "
              << stats.completed << " completed, "
              << stats.shedQueueFull + stats.shedDraining << " shed, "
              << failed << " failed, " << stats.batches << " batches, "
              << stats.coalesced << " coalesced\n";
    if (server.store() != nullptr) {
        const daemon::SnapshotStore::Stats store_stats =
            server.store()->stats();
        std::cout << "store '" << server.store()->directory() << "': "
                  << stats.warmGrids << "+" << stats.warmAnalyses
                  << " snapshots warm-loaded, "
                  << store_stats.gridStores << "+"
                  << store_stats.analysisStores << " written, "
                  << store_stats.loadErrors << " rejected\n";
    }
    if (telemetry != nullptr) {
        telemetry->stop();
        telemetry->writeJson(args.get("telemetry-out"));
        std::cerr << "wrote " << telemetry->ticks()
                  << " telemetry ticks to "
                  << args.get("telemetry-out") << "\n";
    }
    return failed == 0 ? 0 : 1;
}

void
runStatsBatch(const ArgParser &args)
{
    daemon::TuningDaemon server(SystemConfig::paperDefault(),
                                daemonOptions(args));
    tuneAll(server, requestsFrom(args));
}

int
cmdStats(const ArgParser &args)
{
    // stats [workload[:budget]] ... — optionally run a tuning batch
    // first so the snapshot reflects real activity, then print the
    // process-wide metrics snapshot as JSON.  With --watch SECS, a
    // telemetry pipeline samples at that period instead: each tick
    // prints the counters that moved to stderr, and after
    // --watch-count ticks (default 5) the timeseries JSON goes to
    // stdout.
    if (!args.has("watch")) {
        if (args.positionals().size() > 1)
            runStatsBatch(args);
        std::cout << obs::toJson(
            obs::MetricsRegistry::global().snapshot());
        return 0;
    }

    const double period_s = args.getDouble("watch", 1.0);
    if (!(period_s > 0.0))
        fatal("stats: --watch period must be > 0 seconds");
    const long long want = args.getInt("watch-count", 5, 1, 1000000);

    obs::TelemetryConfig config;
    config.period = std::chrono::milliseconds(
        std::max(1LL, static_cast<long long>(period_s * 1000.0)));
    obs::TelemetryPipeline pipeline(config);

    std::promise<void> done;
    auto previous = std::make_shared<
        std::vector<std::pair<std::string, std::uint64_t>>>();
    pipeline.setTickCallback(
        [&done, previous, want](const obs::MetricsSnapshot &snapshot,
                                std::uint64_t tick) {
            // Only the single sampler thread runs this, so the
            // captured previous-snapshot state needs no lock.
            std::string moved;
            std::size_t shown = 0;
            for (const auto &[name, value] : snapshot.counters) {
                std::uint64_t before = 0;
                for (const auto &[old_name, old_value] : *previous) {
                    if (old_name == name) {
                        before = old_value;
                        break;
                    }
                }
                if (value == before)
                    continue;
                if (shown++ == 6) {
                    moved += " ...";
                    break;
                }
                moved += " " + name + "+" +
                         std::to_string(value - before);
            }
            *previous = snapshot.counters;
            std::cerr << "tick " << tick << ":"
                      << (moved.empty() ? " (idle)" : moved) << "\n";
            if (tick == static_cast<std::uint64_t>(want))
                done.set_value();
        });
    pipeline.start();
    if (args.positionals().size() > 1)
        runStatsBatch(args);
    done.get_future().wait();
    pipeline.setTickCallback(nullptr); // stop()'s flush tick is quiet
    pipeline.stop();
    std::cout << pipeline.exportJson();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("mcdvfs_cli");
    args.addOption("budget");
    args.addOption("threshold");
    args.addOption("out");
    args.addOption("jobs");
    args.addOption("profile-cache");
    args.addOption("metrics-out");
    args.addOption("trace-out");
    args.addOption("trace-journal");
    args.addOption("log-level");
    args.addOption("store-dir");
    args.addOption("watch");
    args.addOption("watch-count");
    args.addOption("telemetry-out");
    args.addOption("telemetry-period-ms");
    args.addFlag("fine");
    args.addFlag("csv");

    try {
        args.parse(argc, argv);
        if (args.has("log-level"))
            setLogLevel(logLevelFromString(args.get("log-level")));
        if (args.has("trace-out"))
            obs::TraceCollector::global().enable();
        if (args.positionals().empty())
            return usage();
        const std::string &command = args.positionals().front();

        int rc = 2;
        bool known = true;
        if (command == "list")
            rc = cmdList();
        else if (command == "stats")
            rc = cmdStats(args);
        else if (command == "serve")
            rc = cmdServe(args);
        else if (args.positionals().size() < 2)
            return usage();
        else if (command == "characterize")
            rc = cmdCharacterize(args);
        else if (command == "grid")
            rc = cmdGrid(args);
        else if (command == "optimal")
            rc = cmdOptimal(args);
        else if (command == "regions")
            rc = cmdRegions(args);
        else if (command == "tradeoff")
            rc = cmdTradeoff(args);
        else if (command == "profile")
            rc = cmdProfile(args);
        else if (command == "pareto")
            rc = cmdPareto(args);
        else if (command == "schedule")
            rc = cmdSchedule(args);
        else if (command == "tune")
            rc = cmdTune(args);
        else
            known = false;
        if (!known)
            return usage();

        if (args.has("metrics-out"))
            obs::writeMetricsJson(args.get("metrics-out"));
        if (args.has("trace-out"))
            obs::writeChromeTraceJson(args.get("trace-out"));
        return rc;
    } catch (const FatalError &err) {
        std::cerr << "error: " << err.what() << '\n';
        return 1;
    }
}
