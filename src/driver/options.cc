#include "driver/options.hh"

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

#include "driver/grid.hh"
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
    if (cfg.timelineInterval > 0 && cfg.timelineSeries.empty())
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

namespace
{

using G = GridSettings;
using V = const std::string&;

// Setters for the common option shapes, by member.
template <auto F>
bool
text(V v, G& g)
{
    g.*F = v;
    return true;
}

template <auto F>
bool
onOff(V v, G& g)
{
    g.*F = v == "1";
    return v == "0" || v == "1";
}

bool
parsePositive(V s, double& out)
{
    char* end = nullptr;
    out = std::strtod(s.c_str(), &end);
    return end != s.c_str() && *end == '\0' && out > 0;
}

/** Parse a non-empty comma list, entry by entry, into @p out. */
template <class T>
bool
parseList(V v, std::vector<T>& out, bool (*one)(V, T&))
{
    out.clear();
    for (const std::string& s : splitList(v)) {
        out.emplace_back();
        if (!one(s, out.back()))
            return false;
    }
    return !out.empty();
}

template <auto F>
bool
count(V v, G& g)
{
    std::uint64_t n = 0;
    if (!parseUnsigned(v, n))
        return false;
    g.*F = static_cast<std::remove_reference_t<decltype(g.*F)>>(n);
    return true;
}

const std::vector<OptionKey> kOptionKeys = {
    {"workloads", "comma list of workloads, or all",
     "workloads to run: a sweep's workload axis (default: the whole "
     "suite)",
     false, false,
     [](V v, G& g) {
         g.workloads = workloadsFromList(v);
         return true;
     }},
    {"configs",
     "comma list of static, dyn, work, work-steal, pipe, delta, "
     "spatial",
     "accelerator-config axis (default: static,delta)", false, true,
     [](V v, G& g) {
         g.configs = sweepConfigsFromList(v);
         return true;
     }},
    {"seed", "non-negative integer", "base RNG seed", false, false,
     count<&G::seed>},
    {"seeds", "comma list of non-negative integers",
     "RNG-seed axis (default: seed)", false, true,
     [](V v, G& g) {
         return parseList<std::uint64_t>(
             v, g.seeds, [](V s, std::uint64_t& x) {
                 return parseUnsigned(s, x);
             });
     }},
    {"scale", "positive number", "problem-size multiplier", false, false,
     [](V v, G& g) { return parsePositive(v, g.scale); }},
    {"scales", "comma list of positive numbers",
     "problem-size axis (default: scale)", false, true,
     [](V v, G& g) { return parseList(v, g.scales, parsePositive); }},
    {"lanes", "comma list of integers in 1..62",
     "lane-count axis (default 8)", false, true,
     [](V v, G& g) {
         return parseList<std::uint32_t>(
             v, g.laneCounts, [](V s, std::uint32_t& x) {
                 std::uint64_t n = 0;
                 if (!parseUnsigned(s, n) || n < 1 || n > 62)
                     return false;
                 x = static_cast<std::uint32_t>(n);
                 return true;
             });
     }},
    {"baseline", "a name from configs",
     "config paired speedups are measured against (default: the "
     "first)",
     false, true, text<&G::baseline>},
    {"steal", "none|steal-one|steal-half",
     "NoC work stealing for configs whose preset leaves it off "
     "(cache-key relevant)",
     false, false,
     [](V v, G& g) { return stealPolicyFromName(v, g.steal); }},
    {"sched", "static|dyncount|workaware|spatial",
     "scheduling-policy override for every config (cache-key "
     "relevant)",
     false, false,
     [](V v, G& g) {
         g.schedSet = true;
         return schedPolicyFromName(v, g.sched);
     }},
    {"no-fast-forward", "0|1",
     "naive per-cycle ticking (bit-identical reference mode)", true,
     false, onOff<&G::noFastForward>},
    {"timeline", "cycles, 0 = off",
     "sample a delta.timeline.* time series at this interval", false,
     false, count<&G::timelineInterval>},
    {"timeline-series", "subset of lanes,ready,noc,dram",
     "timeline probe groups (default: all)", false, false,
     text<&G::timelineSeries>},
    {"host-profile", "0|1",
     "attribute host wall time per component class and phase "
     "(sim.host.profile.*)",
     true, false, onOff<&G::hostProfile>},
    {"flight-recorder", "records, 0 = off",
     "keep a ring of the last sleep/wake/commit/event records, "
     "dumped on deadlock",
     false, false, count<&G::flightRecorder>},
    {"trace", "path",
     "Perfetto trace output (a sweep writes one per point)", false,
     false, text<&G::tracePath>},
    {"stats-json", "path",
     "flat StatSet JSON dump of a single run (a sweep refuses it)",
     false, false, text<&G::statsJsonPath>},
    {"bench-json", "directory", "per-run bench-JSON wrapper dumps",
     false, false, text<&G::benchJsonDir>},
    {"out", "path", "aggregate JSON report (default: stdout)", false,
     true, text<&G::out>},
    {"cache", "directory",
     "content-addressed run cache: consult before running, publish "
     "after",
     false, true, text<&G::cacheDir>},
    {"cache-cap", "BYTES[K|M|G]", "run-cache size budget", false, true,
     [](V v, G& g) {
         return parseUnsigned(v, g.cacheCapBytes, /*allowUnit=*/true);
     }},
    {"dry-run", "0|1",
     "print each point's tag, cache key and predicted hit/miss; run "
     "nothing",
     true, true, onOff<&G::dryRun>},
    {"log", "0|1|2", "stderr verbosity", false, false,
     [](V v, G& g) {
         g.logLevel = v[0] - '0';
         return v == "0" || v == "1" || v == "2";
     }},
    {"progress", "auto|always|never",
     "sweep progress lines (auto: only when stderr is a TTY)", false,
     false,
     [](V v, G& g) {
         g.progress = v;
         return v == "auto" || v == "always" || v == "never";
     }},
    {"quiet", "0|1",
     "no progress, run-count or dry-run summary lines on stderr", true,
     true, onOff<&G::quiet>},
    {"jobs", "positive integer",
     "host worker threads, also -j N (default: hardware concurrency)",
     false, false,
     [](V v, G& g) {
         std::uint64_t n = 0;
         if (!parseUnsigned(v, n) || n < 1 || n > UINT_MAX)
             return false;
         g.jobs = static_cast<unsigned>(n);
         return true;
     }},
};

const OptionKey*
findOptionKey(const std::string& key)
{
    for (const OptionKey& k : kOptionKeys) {
        if (key == k.key)
            return &k;
    }
    return nullptr;
}

void
applyKey(const OptionKey& k, const std::string& value, GridSettings& g)
{
    if (!k.set(value, g))
        fatal("option '", k.key, "' expects ", k.values, ", got '",
              value, "'");
}

} // namespace

const std::vector<OptionKey>&
optionKeys()
{
    return kOptionKeys;
}

void
applyOptionKey(const std::string& key, const std::string& value,
               GridSettings& g)
{
    const OptionKey* k = findOptionKey(key);
    if (k == nullptr) {
        std::string valid;
        for (const OptionKey& def : kOptionKeys)
            valid += (valid.empty() ? "" : ", ") + std::string(def.key);
        fatal("unknown key '", key, "'; valid keys: ", valid);
    }
    applyKey(*k, value, g);
}

bool
consumeOptionArg(int argc, char** argv, int& i, GridSettings& g,
                 bool sweep)
{
    std::string arg = argv[i];
    if (arg == "-j")
        arg = "--jobs";
    if (arg.rfind("--", 0) != 0)
        return false;
    const std::size_t eq = arg.find('=');
    const OptionKey* k = findOptionKey(
        arg.substr(2, eq == std::string::npos ? eq : eq - 2));
    if (k == nullptr || (k->sweepOnly && !sweep))
        return false;
    std::string value = "1";
    if (eq != std::string::npos) {
        value = arg.substr(eq + 1);
    } else if (!k->isSwitch) {
        if (i + 1 >= argc)
            fatal("option '--", k->key, "' requires a value");
        value = argv[++i];
    }
    applyKey(*k, value, g);
    return true;
}

std::string
renderOptionKeys(bool sweep, bool fileForm)
{
    std::string out;
    for (const OptionKey& k : kOptionKeys) {
        if (k.sweepOnly && !sweep)
            continue;
        out += std::string("  ") + (fileForm ? "" : "--") + k.key;
        if (fileForm)
            out += std::string(" = <") + k.values + ">";
        else if (!k.isSwitch)
            out += std::string(" <") + k.values + ">";
        out += std::string("\n      ") + k.help + "\n";
    }
    return out;
}

std::string
optionsHelp()
{
    return "shared run options:\n" + renderOptionKeys(false, false);
}

RunOptions
parseCommandLine(int& argc, char** argv, bool strict)
{
    GridSettings g;

    std::vector<char*> keep;
    keep.reserve(static_cast<std::size_t>(argc));
    if (argc > 0)
        keep.push_back(argv[0]);

    for (int i = 1; i < argc; ++i) {
        if (consumeOptionArg(argc, argv, i, g, /*sweep=*/false))
            continue;
        const std::string arg = argv[i];
        if (strict && (arg == "--help" || arg == "-h")) {
            std::fputs(optionsHelp().c_str(), stdout);
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

    g.applyLogLevel();
    return RunOptions(g);
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
