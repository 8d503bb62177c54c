/**
 * @file
 * Fig-6: load balance.  Per-lane busy-cycle distribution under each
 * scheduling policy for the skew-heavy workloads; imbalance is
 * max/mean lane busy time (1.0 = perfect).  The last series adds NoC
 * work stealing on top of work-aware placement — what dispatch-time
 * estimates get wrong, run-time stealing claws back.
 */

#include <benchmark/benchmark.h>

#include <map>

#include "bench_util.hh"

namespace
{

using namespace ts;
using namespace ts::bench;

const std::vector<Wk> kWorkloads = {Wk::Spmv, Wk::Join, Wk::Tricount};

/** One policy series of the figure. */
struct Series
{
    const char* label;
    SchedPolicy policy;
    StealPolicy steal;
};

const std::vector<Series> kSeries = {
    {"static", SchedPolicy::Static, StealPolicy::None},
    {"dyn-count", SchedPolicy::DynCount, StealPolicy::None},
    {"work-aware", SchedPolicy::WorkAware, StealPolicy::None},
    {"work+steal", SchedPolicy::WorkAware, StealPolicy::StealHalf},
};

struct Row
{
    double minBusy = 0, meanBusy = 0, maxBusy = 0, imbalance = 0,
           stolen = 0, cycles = 0;
};

std::map<std::pair<Wk, const Series*>, Row> gRows;

Row
measure(Wk w, const Series& s)
{
    DeltaConfig cfg = DeltaConfig::delta(8);
    cfg.policy = s.policy;
    cfg.steal = s.steal;
    cfg.enablePipeline = false; // isolate the balancing effect
    cfg.enableMulticast = false;
    if (s.policy == SchedPolicy::Static)
        cfg.bulkSynchronous = true;
    const RunResult res = runOnce(w, cfg, SuiteParams{});
    TS_ASSERT(res.correct);

    Row r;
    r.cycles = res.cycles;
    r.meanBusy = res.stats.get("delta.busyMean");
    r.maxBusy = res.stats.get("delta.busyMax");
    r.imbalance = res.stats.get("delta.imbalance");
    r.stolen = res.stats.get("dispatcher.attrib.steal.tasksStolen");
    double mn = r.maxBusy;
    for (unsigned l = 0; l < 8; ++l) {
        mn = std::min(mn, res.stats.get("lane" + std::to_string(l) +
                                        ".tu.busyCycles"));
    }
    r.minBusy = mn;
    return r;
}

void
runWorkload(benchmark::State& state, Wk w)
{
    for (auto _ : state) {
        for (const Series& s : kSeries)
            gRows[{w, &s}] = measure(w, s);
        state.counters["imbalance_static"] =
            gRows[{w, &kSeries[0]}].imbalance;
        state.counters["imbalance_workaware"] =
            gRows[{w, &kSeries[2]}].imbalance;
        state.counters["imbalance_steal"] =
            gRows[{w, &kSeries[3]}].imbalance;
    }
}

void
printTable()
{
    std::puts("");
    std::puts("Fig-6  Per-lane busy cycles by policy (8 lanes; "
              "pipeline/multicast off to isolate balancing)");
    rule(84);
    std::printf("%-10s %-11s %10s %10s %10s %9s %7s %12s\n",
                "workload", "policy", "min", "mean", "max", "imbal",
                "stolen", "cycles");
    rule(84);
    for (const Wk w : kWorkloads) {
        for (const Series& s : kSeries) {
            const Row& r = gRows.at({w, &s});
            std::printf("%-10s %-11s %10.0f %10.0f %10.0f %8.2fx "
                        "%7.0f %12.0f\n",
                        wkName(w), s.label, r.minBusy, r.meanBusy,
                        r.maxBusy, r.imbalance, r.stolen, r.cycles);
        }
    }
    rule(84);
    std::puts("expected shape: dynamic policies push imbalance "
              "toward 1.0x where static leaves lanes idle; stealing "
              "corrects the residual skew work estimates miss; on "
              "bandwidth-bound workloads (spmv) busy-cycle balance "
              "is set by DRAM sharing, not placement");
}

} // namespace

int
main(int argc, char** argv)
{
    bench::init(&argc, argv);
    for (const Wk w : kWorkloads) {
        benchmark::RegisterBenchmark(
            (std::string("fig6/") + wkName(w)).c_str(),
            [w](benchmark::State& s) { runWorkload(s, w); })
            ->Iterations(1);
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    printTable();
    return 0;
}
