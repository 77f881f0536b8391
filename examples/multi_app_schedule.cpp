/**
 * @file
 * Multi-application device scenario: three apps with priority-derived
 * inefficiency budgets time-share one CPU + memory system.
 *
 * Shows the system-level interaction the single-app analyses imply:
 * each app's budget picks different frequency settings, so
 * sample-granular round robin forces a hardware transition at almost
 * every context switch, while run-to-completion batching pays
 * transitions only inside and between apps.
 *
 * Usage: multi_app_schedule
 */

#include <iostream>

#include "common/table.hh"
#include "repro/suite.hh"
#include "sched/scheduler.hh"

using namespace mcdvfs;

int
main()
{
    ReproSuite suite;

    std::vector<AppTask> apps(3);
    apps[0].name = "game (gobmk)";
    apps[0].grid = &suite.grid("gobmk");
    apps[0].budget = 1.5;
    apps[0].threshold = 0.01;
    apps[1].name = "compressor (bzip2)";
    apps[1].grid = &suite.grid("bzip2");
    apps[1].budget = 1.1;
    apps[1].threshold = 0.05;
    apps[2].name = "indexer (lbm)";
    apps[2].grid = &suite.grid("lbm");
    apps[2].budget = 1.15;
    apps[2].threshold = 0.05;

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
        std::cout << "makespan " << Table::num(result.makespan * 1e3, 1)
                  << " ms, total energy "
                  << Table::num(result.totalEnergy * 1e3, 1)
                  << " mJ, context switches " << result.contextSwitches
                  << ", frequency transitions "
                  << result.frequencyTransitions << " ("
                  << Table::num(result.transitionLatency * 1e3, 2)
                  << " ms in PLL relocks)\n\n";
    }

    std::cout << "Every app meets its own budget under both policies; "
                 "batching spends far less time in frequency "
                 "transitions.\n";
    return 0;
}
