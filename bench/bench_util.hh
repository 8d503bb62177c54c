/**
 * @file
 * Shared infrastructure for the experiment benchmarks: run one
 * workload under one configuration, verify correctness, and collect
 * the statistics the paper-style tables report.
 *
 * All knobs come from the shared options layer (ts::driver
 * RunOptions): call bench::init(&argc, argv) first thing in main()
 * to consume the shared flags (--workloads, --scale, --seed,
 * --trace, --bench-json, --log, -j) and hand the untouched remainder
 * to benchmark::Initialize().  Nothing reads the environment.
 */

#ifndef TS_BENCH_BENCH_UTIL_HH
#define TS_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>

#include "driver/options.hh"
#include "driver/run_one.hh"
#include "workloads/workload.hh"

namespace ts::bench
{

/** This process's run options.  Defaults to RunOptions{} until
 *  init() overwrites them with parsed flags. */
inline driver::RunOptions&
options()
{
    static driver::RunOptions opt;
    return opt;
}

/** Parse the shared flags out of argv (call before
 *  benchmark::Initialize, which consumes the rest). */
inline void
init(int* argc, char** argv)
{
    options() = driver::parseCommandLine(*argc, argv);
}

/** Suite scaling knobs (--scale problem-size multiplier, --seed) —
 *  small CI runs use --scale 0.25 without rebuilding. */
inline SuiteParams
suiteParams()
{
    return options().suiteParams();
}

/** Outcome of one simulated run (driver::runOne's result type;
 *  bench-JSON emission now lives there too). */
using RunResult = driver::RunResult;

/** Build and simulate one workload under one configuration (trace,
 *  stats, timeline, and bench-JSON outputs injected from the shared
 *  options via driver::runOne). */
inline RunResult
runOnce(Wk w, const DeltaConfig& cfg, const SuiteParams& sp)
{
    auto wl = makeWorkload(w, sp);
    return driver::runOne(options(), *wl, cfg);
}

/** Print a horizontal rule sized for our tables. */
inline void
rule(int width = 72)
{
    std::puts(std::string(static_cast<std::size_t>(width), '-').c_str());
}

} // namespace ts::bench

#endif // TS_BENCH_BENCH_UTIL_HH
