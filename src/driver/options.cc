#include "driver/options.hh"

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/logging.hh"

namespace ts
{
namespace driver
{

namespace
{

/** Insert @p tag before the extension of @p path ("a.json" + "3" ->
 *  "a.3.json"; extensionless paths get the tag appended). */
std::string
suffixPath(const std::string& path, const std::string& tag)
{
    std::string out = path;
    const std::size_t dot = out.rfind('.');
    const std::string insert = "." + tag;
    if (dot == std::string::npos || dot == 0)
        out += insert;
    else
        out.insert(dot, insert);
    return out;
}

double
parseScale(const std::string& s, const char* what)
{
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0' || !(v > 0))
        fatal(what, " must be a positive number, got '", s, "'");
    return v;
}

std::uint64_t
parseCount(const std::string& s, const char* what)
{
    std::uint64_t v = 0;
    if (!parseUnsigned(s, v))
        fatal(what, " must be a non-negative integer, got '", s, "'");
    return v;
}

int
parseLogLevel(const std::string& s, const char* what)
{
    char* end = nullptr;
    const long v = std::strtol(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0' || v < 0 || v > 2)
        fatal(what, " must be 0, 1, or 2, got '", s, "'");
    return static_cast<int>(v);
}

unsigned
parseJobs(const std::string& s, const char* what)
{
    std::uint64_t v = 0;
    if (!parseUnsigned(s, v) || v < 1 || v > UINT_MAX)
        fatal(what, " must be a positive integer, got '", s, "'");
    return static_cast<unsigned>(v);
}

std::string
parseProgress(const std::string& s, const char* what)
{
    if (s != "auto" && s != "always" && s != "never")
        fatal(what, " must be auto, always, or never, got '", s, "'");
    return s;
}

StealPolicy
parseSteal(const std::string& s, const char* what)
{
    StealPolicy p = StealPolicy::None;
    if (!stealPolicyFromName(s, p))
        fatal(what, " must be none, steal-one, or steal-half, got '",
              s, "'");
    return p;
}

SchedPolicy
parseSched(const std::string& s, const char* what)
{
    SchedPolicy p = SchedPolicy::WorkAware;
    if (!schedPolicyFromName(s, p))
        fatal(what,
              " must be static, dyncount, workaware, or spatial, "
              "got '",
              s, "'");
    return p;
}

} // namespace

SuiteParams
RunOptions::suiteParams() const
{
    SuiteParams sp;
    sp.scale = scale;
    sp.seed = seed;
    return sp;
}

DeltaConfig
RunOptions::applyTo(DeltaConfig cfg) const
{
    if (!cfg.trace.enabled && !tracePath.empty())
        cfg.trace = nextTraceConfig(tracePath);
    if (cfg.statsJsonPath.empty())
        cfg.statsJsonPath = statsJsonPath;
    if (noFastForward)
        cfg.noFastForward = true;
    if (cfg.steal == StealPolicy::None)
        cfg.steal = steal;
    if (schedSet)
        cfg.policy = sched;
    if (cfg.timelineInterval == 0)
        cfg.timelineInterval = timelineInterval;
    if (cfg.timelineSeries.empty())
        cfg.timelineSeries = timelineSeries;
    if (hostProfile)
        cfg.hostProfile = true;
    if (cfg.flightRecorder == 0)
        cfg.flightRecorder = flightRecorder;
    return cfg;
}

bool
RunOptions::progressEnabled() const
{
    if (progress == "always")
        return true;
    if (progress == "never")
        return false;
    return ::isatty(fileno(stderr)) != 0;
}

void
RunOptions::applyLogLevel() const
{
    setLogVerbosity(logLevel);
}

bool
parseUnsigned(const std::string& s, std::uint64_t& out, bool allowUnit)
{
    // strtoull skips whitespace and accepts a sign (wrapping "-1" to
    // 2^64-1), so insist on a leading digit.
    if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])))
        return false;
    errno = 0;
    char* end = nullptr;
    const std::uint64_t v = std::strtoull(s.c_str(), &end, 10);
    if (errno == ERANGE)
        return false;
    unsigned shift = 0;
    if (allowUnit && *end != '\0' && end[1] == '\0') {
        switch (*end++) {
          case 'K': case 'k': shift = 10; break;
          case 'M': case 'm': shift = 20; break;
          case 'G': case 'g': shift = 30; break;
          default: return false;
        }
    }
    if (*end != '\0' || v > (UINT64_MAX >> shift))
        return false;
    out = v << shift;
    return true;
}

const char*
optionsHelp()
{
    return
        "shared run options:\n"
        "  --workloads LIST   comma-separated workloads, 'all' = suite\n"
        "  --scale X          problem-size multiplier, > 0\n"
        "  --seed N           base RNG seed\n"
        "  --trace PATH       Perfetto trace output\n"
        "  --stats-json PATH  flat StatSet JSON dump\n"
        "  --bench-json DIR   per-run wrapper dumps\n"
        "  --log N            stderr verbosity 0|1|2\n"
        "  --no-fast-forward  naive per-cycle ticking (bit-identical\n"
        "                     reference mode)\n"
        "  --steal P          lane work stealing over the NoC:\n"
        "                     none|steal-one|steal-half (behaviour-\n"
        "                     relevant: part of run-cache keys)\n"
        "  --sched P          scheduling policy override:\n"
        "                     static|dyncount|workaware|spatial\n"
        "                     (behaviour-relevant: part of run-cache\n"
        "                     keys)\n"
        "  --progress[=]MODE  sweep progress lines: auto|always|never\n"
        "                     (auto = only when stderr is a TTY)\n"
        "  --timeline N       sample a delta.timeline.* time series\n"
        "                     every N simulated cycles (0 = off)\n"
        "  --timeline-series LIST\n"
        "                     probe-group subset out of\n"
        "                     lanes,ready,noc,dram (default: all)\n"
        "  --host-profile     attribute host wall time per component\n"
        "                     class and phase (sim.host.profile.*)\n"
        "  --flight-recorder N\n"
        "                     keep a ring of the last N sleep/wake/\n"
        "                     commit/event records, dumped on\n"
        "                     deadlock (0 = off)\n"
        "  -j N, --jobs N     host worker threads (default: hardware\n"
        "                     concurrency)\n";
}

RunOptions
parseCommandLine(int& argc, char** argv, bool strict)
{
    RunOptions opt;

    std::vector<char*> keep;
    keep.reserve(static_cast<std::size_t>(argc));
    if (argc > 0)
        keep.push_back(argv[0]);

    int i = 1;
    const auto value = [&](const char* flag) -> std::string {
        if (i + 1 >= argc)
            fatal("option '", flag, "' requires a value\n",
                  optionsHelp());
        return argv[++i];
    };

    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workloads") {
            opt.workloads = workloadsFromList(value("--workloads"));
        } else if (arg == "--scale") {
            opt.scale = parseScale(value("--scale"), "--scale");
        } else if (arg == "--seed") {
            opt.seed = parseCount(value("--seed"), "--seed");
        } else if (arg == "--log") {
            opt.logLevel = parseLogLevel(value("--log"), "--log");
        } else if (arg == "--trace") {
            opt.tracePath = value("--trace");
        } else if (arg == "--stats-json") {
            opt.statsJsonPath = value("--stats-json");
        } else if (arg == "--bench-json") {
            opt.benchJsonDir = value("--bench-json");
        } else if (arg == "--no-fast-forward") {
            opt.noFastForward = true;
        } else if (arg == "--steal") {
            opt.steal = parseSteal(value("--steal"), "--steal");
        } else if (arg == "--sched") {
            opt.sched = parseSched(value("--sched"), "--sched");
            opt.schedSet = true;
        } else if (arg == "--progress") {
            opt.progress =
                parseProgress(value("--progress"), "--progress");
        } else if (arg.rfind("--progress=", 0) == 0) {
            opt.progress = parseProgress(
                arg.substr(std::strlen("--progress=")), "--progress");
        } else if (arg == "--timeline") {
            opt.timelineInterval =
                parseCount(value("--timeline"), "--timeline");
        } else if (arg == "--timeline-series") {
            opt.timelineSeries = value("--timeline-series");
        } else if (arg == "--host-profile") {
            opt.hostProfile = true;
        } else if (arg == "--flight-recorder") {
            opt.flightRecorder = static_cast<std::size_t>(parseCount(
                value("--flight-recorder"), "--flight-recorder"));
        } else if (arg == "-j" || arg == "--jobs") {
            opt.jobs = parseJobs(value("--jobs"), "--jobs");
        } else if (strict && (arg == "--help" || arg == "-h")) {
            std::fputs(optionsHelp(), stdout);
            std::exit(0);
        } else if (strict && !arg.empty() && arg[0] == '-') {
            fatal("unknown option '", arg, "'\n", optionsHelp());
        } else {
            keep.push_back(argv[i]);
        }
    }

    argc = static_cast<int>(keep.size());
    for (std::size_t k = 0; k < keep.size(); ++k)
        argv[k] = keep[k];
    if (argc >= 0)
        argv[argc] = nullptr;

    opt.applyLogLevel();
    return opt;
}

RunOptions
parseCommandLineOrExit(int& argc, char** argv, bool strict)
{
    try {
        return parseCommandLine(argc, argv, strict);
    } catch (const FatalError& e) {
        std::fprintf(stderr, "%s: %s\n",
                     argc > 0 ? argv[0] : "run", e.what());
        std::exit(2);
    }
}

trace::TracerConfig
nextTraceConfig(const std::string& base)
{
    trace::TracerConfig cfg;
    if (base.empty())
        return cfg;

    // One process may run many accelerator instances (the benches);
    // suffix each instance after the first so traces coexist.
    static std::atomic<unsigned> instance{0};
    const unsigned idx =
        instance.fetch_add(1, std::memory_order_relaxed);
    cfg.enabled = true;
    cfg.path = idx == 0 ? base : suffixPath(base, std::to_string(idx));
    return cfg;
}

trace::TracerConfig
traceConfigTagged(const std::string& base, const std::string& tag)
{
    trace::TracerConfig cfg;
    if (base.empty())
        return cfg;
    cfg.enabled = true;
    cfg.path = suffixPath(base, tag);
    return cfg;
}

} // namespace driver
} // namespace ts
