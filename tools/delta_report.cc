/**
 * @file
 * delta-report: human-readable diagnosis of a Delta run.
 *
 * Ingests the flat stats JSON a run writes (--stats-json, or a
 * --bench-json per-bench file) and prints the cycle-accounting
 * waterfall, per-mechanism speedup attribution, the critical-path
 * bound, and the slowest task types with latency percentiles (flags:
 * see usage()).  With several runs, a side-by-side comparison table
 * follows, against --baseline when given and the first run
 * otherwise.
 *
 * Given a delta-sweep report (`delta-sweep --out`) instead, it prints
 * the Markdown headline tables — cycles, speedup over the grid's
 * baseline, and modeled energy per workload x config — and exits 1
 * when any run failed or was incorrect.  The input's shape decides;
 * there is no flag.
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/report.hh"
#include "sim/logging.hh"

namespace
{

[[noreturn]] void
usage(const char* argv0)
{
    std::cerr
        << "usage: " << argv0 << " RUN.json [MORE.json ...] [options]\n"
        << "       " << argv0 << " SWEEP.json   (delta-sweep --out:\n"
        << "   Markdown cycles/speedup/energy tables)\n"
        << "  (several runs print a side-by-side comparison table;\n"
        << "   the baseline column is --baseline when given, else\n"
        << "   the first run)\n"
        << "  --baseline FILE.json     compare against another run\n"
        << "  --trace TRACE.json       summarize a Perfetto trace\n"
        << "  --timeline               render the delta.timeline.*\n"
        << "                           series (lane waterfall and\n"
        << "                           queue-depth sparklines)\n"
        << "  --topk N                 task-type rows (default 5)\n"
        << "  --assert-speedup-min X   exit 1 unless speedup >= X\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace ts;
    using namespace ts::analysis;

    std::vector<std::string> runPaths;
    std::string baselinePath;
    std::string tracePath;
    std::size_t topk = 5;
    double speedupMin = -1.0;
    bool timeline = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--baseline") {
            baselinePath = next();
        } else if (arg == "--trace") {
            tracePath = next();
        } else if (arg == "--timeline") {
            timeline = true;
        } else if (arg == "--topk") {
            topk = static_cast<std::size_t>(
                std::strtoul(next().c_str(), nullptr, 10));
        } else if (arg == "--assert-speedup-min") {
            speedupMin = std::strtod(next().c_str(), nullptr);
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "unknown option '" << arg << "'\n";
            usage(argv[0]);
        } else {
            runPaths.push_back(arg);
        }
    }
    if (runPaths.empty())
        usage(argv[0]);
    if (speedupMin >= 0 && baselinePath.empty()) {
        std::cerr << "--assert-speedup-min requires --baseline\n";
        return 2;
    }

    auto label = [](const RunStats& s, const std::string& path) {
        if (!s.policy.empty())
            return s.policy;
        const std::size_t slash = path.find_last_of('/');
        return slash == std::string::npos ? path
                                          : path.substr(slash + 1);
    };

    try {
        const Json first = loadJson(runPaths.front());
        if (isSweepReport(first)) {
            if (runPaths.size() > 1 || !baselinePath.empty() ||
                !tracePath.empty() || speedupMin >= 0 || timeline)
                fatal("a sweep report takes no other runs or options");
            return printSweepTables(std::cout, first) ? 0 : 1;
        }
        std::vector<RunStats> runs{statsFromJson(first)};
        for (std::size_t i = 1; i < runPaths.size(); ++i)
            runs.push_back(loadStats(runPaths[i]));
        const RunStats& run = runs.front();

        RunStats baseline;
        Json trace;
        ReportOptions opt;
        opt.topk = topk;
        opt.timeline = timeline;
        if (!baselinePath.empty()) {
            baseline = loadStats(baselinePath);
            opt.baseline = &baseline;
        }
        if (!tracePath.empty()) {
            trace = loadJson(tracePath);
            opt.trace = &trace;
        }

        printReport(std::cout, run, opt);

        if (runs.size() > 1 || (opt.baseline != nullptr && !runs.empty())) {
            std::vector<const RunStats*> cols;
            std::vector<std::string> labels;
            if (opt.baseline != nullptr) {
                cols.push_back(opt.baseline);
                labels.push_back(label(baseline, baselinePath));
            }
            for (std::size_t i = 0; i < runs.size(); ++i) {
                cols.push_back(&runs[i]);
                labels.push_back(label(runs[i], runPaths[i]));
            }
            if (cols.size() > 1)
                printComparison(std::cout, cols, labels, std::cerr);
        }

        if (speedupMin >= 0) {
            const double x =
                seriesSpeedup(run, baseline, "delta.cycles",
                              std::cerr);
            if (x <= 0) {
                std::cerr << "FAIL: cannot score speedup gate: "
                             "series 'delta.cycles' missing\n";
                return 1;
            }
            if (x < speedupMin) {
                std::cerr << "FAIL: speedup " << x
                          << "x below required minimum " << speedupMin
                          << "x\n";
                return 1;
            }
            std::cout << "speedup gate passed: " << x
                      << "x >= " << speedupMin << "x\n";
        }
    } catch (const FatalError& e) {
        std::cerr << "delta-report: " << e.what() << "\n";
        return 2;
    }
    return 0;
}
