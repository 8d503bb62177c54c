/**
 * @file
 * Tab-2: workload characterization — task counts, dependence-edge
 * kinds, shared groups, and the distribution of per-task work
 * (mean and coefficient of variation), computed from the built task
 * graphs without simulating.
 *
 * Each workload's graph is built and characterized in turn; the
 * columns (edge kinds, work spread) come from the graph itself, not
 * from any run's stats dump.
 */

#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_util.hh"

namespace
{

using namespace ts;
using namespace ts::bench;

/** Build @p w's graph and print its characterization row. */
void
printRow(Wk w, const SuiteParams& sp)
{
    auto wl = makeWorkload(w, sp);
    Delta delta(DeltaConfig::delta(8));
    TaskGraph g;
    wl->build(delta, g);

    std::size_t barriers = 0;
    for (const DepEdge& e : g.edges())
        barriers += e.kind == DepKind::Barrier ? 1 : 0;
    double sum = 0, sum2 = 0;
    for (const TaskInstance& t : g.tasks()) {
        const double wk =
            delta.registry().estimateWork(delta.image(), t);
        sum += wk;
        sum2 += wk * wk;
    }
    const auto n = static_cast<double>(g.numTasks());
    const double mean = sum / n;
    const double var = sum2 / n - mean * mean;
    std::printf("%-10s %7zu %9zu %9zu %7zu %11.0f %7.2f\n", wkName(w),
                g.numTasks(), barriers, g.edges().size() - barriers,
                g.groups().size(), mean,
                mean > 0 ? std::sqrt(std::max(0.0, var)) / mean : 0.0);
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        const driver::RunOptions opt =
            driver::parseCommandLine(argc, argv, /*strict=*/true);

        const SuiteParams sp = opt.suiteParams();
        std::puts("");
        std::puts("Tab-2  Workload characterization (default scale)");
        rule(78);
        std::printf("%-10s %7s %9s %9s %7s %11s %7s\n", "workload",
                    "tasks", "barriers", "pipelines", "groups",
                    "mean work", "CV");
        rule(78);
        for (const Wk w : opt.workloads)
            printRow(w, sp);
        rule(78);
        std::puts("CV = per-task work variation; the workloads with "
                  "high CV are the ones where work-aware balancing "
                  "pays off");
        return 0;
    } catch (const ts::FatalError& e) {
        std::cerr << "tab_workloads: " << e.what() << "\n";
        return 2;
    }
}
