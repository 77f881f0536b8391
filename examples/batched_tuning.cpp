/**
 * @file
 * Batched tuning through the tuning daemon.
 *
 * A device vendor profiling its app catalog wants stable-region tables
 * for many (workload, budget) pairs.  Instead of driving GridRunner
 * and the analysis chain by hand, this example submits the catalog to
 * an in-memory TuningDaemon: its batcher groups requests by grid, grid
 * builds fan out over a thread pool, requests sharing a workload reuse
 * one characterization, and a second round over the same catalog is
 * served entirely from the grid cache.
 *
 *   ./batched_tuning [--jobs N] [--threshold PCT]
 */

#include <future>
#include <iostream>

#include "common/args.hh"
#include "common/table.hh"
#include "daemon/tuning_daemon.hh"
#include "trace/workloads.hh"

using namespace mcdvfs;

namespace
{

void
report(const std::string &title,
       const std::vector<svc::TuningRequest> &requests,
       const std::vector<svc::TuningResult> &results)
{
    Table table({"workload", "budget", "regions", "mean length",
                 "transitions", "cached"});
    table.setTitle(title);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const svc::TuningResult &result = results[i];
        std::size_t transitions = 0;
        for (std::size_t r = 1; r < result.regions.size(); ++r) {
            if (result.regions[r].chosenSettingIndex !=
                result.regions[r - 1].chosenSettingIndex)
                ++transitions;
        }
        const double mean_length =
            result.regions.empty()
                ? 0.0
                : static_cast<double>(result.grid->sampleCount()) /
                      static_cast<double>(result.regions.size());
        table.addRow(
            {requests[i].workload.name(),
             Table::num(result.budget, 2),
             Table::num(static_cast<long long>(result.regions.size())),
             Table::num(mean_length, 1),
             Table::num(static_cast<long long>(transitions)),
             result.cacheHit ? "yes" : "no"});
    }
    table.print(std::cout);
}

/** Submit every request, then wait for all of them in order. */
std::vector<svc::TuningResult>
tune(daemon::TuningDaemon &server,
     const std::vector<svc::TuningRequest> &requests)
{
    std::vector<std::future<daemon::DaemonResponse>> futures;
    for (const svc::TuningRequest &request : requests)
        futures.push_back(server.submit(request));
    std::vector<svc::TuningResult> results;
    for (std::future<daemon::DaemonResponse> &future : futures) {
        daemon::DaemonResponse response = future.get();
        if (!response.ok())
            fatal("request shed (", daemon::shedReasonName(response.shed),
                  ")");
        results.push_back(std::move(response.result));
    }
    return results;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("batched_tuning");
    args.addOption("jobs");
    args.addOption("threshold");
    try {
        args.parse(argc, argv);

        daemon::DaemonOptions options;
        options.service.jobs =
            static_cast<std::size_t>(args.getInt("jobs", 4, 1, 1024));
        daemon::TuningDaemon server(SystemConfig::paperDefault(),
                                    options);
        svc::CharacterizationService &service = server.service();
        const double threshold =
            args.getDouble("threshold", 3.0) / 100.0;

        // The catalog: every paper benchmark at a tight and a relaxed
        // budget.  Both budgets of one workload share a grid build.
        std::vector<svc::TuningRequest> requests;
        for (const WorkloadProfile &workload : standardWorkloads()) {
            for (const double budget : {1.1, 1.5}) {
                requests.push_back(svc::TuningRequest{
                    workload, SettingsSpace::coarse(), budget,
                    threshold});
            }
        }

        report("first round: characterize + tune (" +
                   Table::num(static_cast<long long>(service.jobs())) +
                   " jobs)",
               requests, tune(server, requests));

        // Second round over the same catalog: pure cache hits.
        report("second round: same catalog, served from cache",
               requests, tune(server, requests));
        server.drain();

        const svc::GridCache::Stats stats = service.cacheStats();
        std::cout << "\ngrid cache: " << stats.hits << " hits, "
                  << stats.misses << " misses, " << stats.evictions
                  << " evictions, " << stats.entries
                  << " grids resident\n";
        return 0;
    } catch (const FatalError &err) {
        std::cerr << "error: " << err.what() << '\n';
        return 1;
    }
}
