/**
 * @file
 * perfbench: one benchmark invocation over the simulator's public API.
 *
 *   perfbench --workload dyn-stream|dense-tiled|sweep-small --seed N
 *             --seconds S [--traced 0|1] [--scale X] [--tmp DIR]
 *             [--trace-out PATH]
 *
 * Repeats whole passes of the workload back to back (a closed loop:
 * each simulation starts when the previous one finishes) until S
 * seconds have elapsed, then prints one JSON document of raw
 * per-pass, per-run measurements on stdout.  run.py turns those into
 * the named metrics.  With --traced 1 the passes alternate between
 * untraced and traced (host profiler on, spans recorded); the spans
 * go to --trace-out as Chrome trace-event JSON.
 *
 * Every run's modeled statistics (the StatSet dump without the
 * host-side sim.host.* counters) must match the first pass's dump of
 * the same run: this checks determinism across passes and that
 * tracing is results-neutral.  A mismatch, a failed golden check or
 * a thrown error counts as one failed run and does not stop the
 * benchmark.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "driver/sweep.hh"
#include "sim/logging.hh"
#include "spatial/mapper.hh"
#include "workloads/workload.hh"

using namespace ts;
namespace fs = std::filesystem;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------
// Spans: recorded in memory, written once at exit as Chrome
// trace-event JSON (Perfetto opens it like src/trace output).

struct Span
{
    std::string name;
    std::int64_t startNs = 0, endNs = 0;
    int id = 0, parent = -1, run = -1;
    unsigned tid = 0;
};

class SpanLog
{
  public:
    bool enabled = false;

    /** Open a span on the calling thread's stack; returns its id. */
    int
    begin(const std::string& name, int run = -1)
    {
        if (!enabled)
            return -1;
        Span s;
        s.name = name;
        s.startNs = nowNs();
        s.id = static_cast<int>(spans_.size());
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.run = run >= 0 || stack_.empty() ? run
                                            : spans_[stack_.back()].run;
        spans_.push_back(s);
        stack_.push_back(s.id);
        return s.id;
    }

    void
    end(int id)
    {
        if (id < 0)
            return;
        spans_[id].endNs = nowNs();
        stack_.pop_back();
    }

    /** A span opened and closed on another thread (sweep cells),
     *  parented to the span open on this thread. */
    void
    add(const std::string& name, std::int64_t startNs,
        std::int64_t endNs, int run, unsigned tid)
    {
        if (!enabled)
            return;
        Span s;
        s.name = name;
        s.startNs = startNs;
        s.endNs = endNs;
        s.id = static_cast<int>(spans_.size());
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.run = run;
        s.tid = tid;
        spans_.push_back(s);
    }

    static std::int64_t
    nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now().time_since_epoch())
            .count();
    }

    void
    write(const std::string& path) const
    {
        std::ofstream os(path);
        os << std::fixed << std::setprecision(3)
           << "{\"traceEvents\":[\n";
        os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
              "\"args\":{\"name\":\"perfbench\"}}";
        std::set<unsigned> tids;
        for (const Span& s : spans_)
            tids.insert(s.tid);
        for (unsigned t : tids)
            os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
               << "\"tid\":" << t << ",\"args\":{\"name\":\""
               << (t == 0 ? std::string("benchmark")
                          : "sweep worker " + std::to_string(t - 1))
               << "\"}}";
        for (const Span& s : spans_) {
            os << ",\n{\"name\":\"" << jsonEscape(s.name)
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
               << ",\"ts\":" << (s.startNs - origin()) / 1000.0
               << ",\"dur\":" << (s.endNs - s.startNs) / 1000.0
               << ",\"args\":{\"id\":" << s.id
               << ",\"parent\":" << s.parent << ",\"run\":" << s.run
               << "}}";
        }
        os << "\n]}\n";
    }

  private:
    std::int64_t
    origin() const
    {
        return spans_.empty() ? 0 : spans_.front().startNs;
    }

    std::vector<Span> spans_;
    std::vector<int> stack_;
};

SpanLog gSpans;

/** Times one call into a layer: wall seconds into @p acc and, when
 *  tracing, a span of the same name. */
template <typename F>
auto
timed(const std::string& span, double& acc, F&& f)
{
    const int id = gSpans.begin(span);
    const auto t0 = Clock::now();
    struct Close
    {
        int id;
        Clock::time_point t0;
        double& acc;
        ~Close()
        {
            acc += secondsSince(t0);
            gSpans.end(id);
        }
    } close{id, t0, acc};
    return f();
}

// ---------------------------------------------------------------
// Per-run records.

/** Host timings of one run, seconds. */
struct Timings
{
    double make = 0, construct = 0, build = 0, restore = 0, map = 0,
           run = 0, runCpu = 0, check = 0, dump = 0, cell = 0;
};

struct RunRecord
{
    std::string kernel, config;
    std::uint64_t seed = 0;
    bool ok = false;
    std::string error;
    Timings t;
    std::map<std::string, double> stats;
};

/** Stat keys kept per run, by exact name. */
const std::vector<std::string> kKeep = {
    "delta.cycles",
    "delta.imbalance",
    "delta.critpath.utilization",
    "delta.accounting.busy",
    "delta.accounting.memWait",
    "delta.accounting.nocWait",
    "delta.accounting.idle",
    "delta.lanes",
    "delta.spatial.forwards",
    "delta.spatial.spills",
    "delta.spatial.remaps",
    "delta.attrib.spatial.dramLinesSaved",
    "delta.attrib.multicast.dramLinesSaved",
    "dispatcher.tasksCompleted",
    "dispatcher.tasksSpawned",
    "dispatcher.pipesActivated",
    "dispatcher.readyWait.p99",
    "dispatcher.attrib.steal.tasksStolen",
    "noc.pktLatency.p50",
    "noc.pktLatency.p99",
    "noc.wordHops",
    "noc.mcast.packets",
    "mem.linesRead",
    "mem.linesWritten",
    "mem.bankConflictStalls",
    "dram.queueWait.p99",
    "sim.host.wallNs",
    "sim.host.ticksExecuted",
    "sim.host.cyclesFastForwarded",
    "sim.host.avgActiveComponents",
};

/** Per-lane stats summed over lanes, as lane.<suffix>; rdN/wrN
 *  engines fold into lane.rd.<x> / lane.wr.<x>. */
std::map<std::string, double>
extractStats(const StatSet& s)
{
    std::map<std::string, double> out;
    for (const auto& k : kKeep)
        out[k] = s.getOr(k, 0.0);
    for (const auto& [name, v] : s.matchPrefix("sim.host.profile."))
        out[name] = v;
    for (const auto& [name, v] : s.matchPrefix("lane")) {
        const auto dot = name.find('.');
        std::string rest = name.substr(dot + 1);
        if (rest.rfind("rd", 0) == 0 || rest.rfind("wr", 0) == 0)
            rest = rest.substr(0, 2) + rest.substr(rest.find('.'));
        static const std::vector<std::string> want = {
            "fabric.firings", "fabric.reconfigs", "rd.tokens",
            "rd.lines",       "rd.spmReads",      "wr.lines",
            "pipeTokens",     "spm.portStalls"};
        if (std::find(want.begin(), want.end(), rest) != want.end())
            out["lane." + rest] += v;
    }
    return out;
}

std::string
modeledDump(const StatSet& s)
{
    std::ostringstream os;
    s.dumpJson(os, "sim.host.");
    return os.str();
}

/** First-pass modeled dumps by run key, for the determinism and
 *  trace-neutrality checks. */
std::map<std::string, std::string> gReference;

/** Compare @p dump with the first pass's dump of the same run; an
 *  empty return means they agree (or this is the first pass). */
std::string
checkReference(const std::string& key, const std::string& dump)
{
    auto [it, fresh] = gReference.emplace(key, dump);
    if (fresh || it->second == dump)
        return "";
    return "modeled stats differ from the first pass";
}

void
writeRecord(std::ostream& os, const RunRecord& r)
{
    os << "{\"kernel\":\"" << r.kernel << "\",\"config\":\""
       << r.config << "\",\"seed\":" << r.seed
       << ",\"ok\":" << (r.ok ? "true" : "false") << ",\"error\":\""
       << jsonEscape(r.error) << "\",\"t\":{\"make\":"
       << jsonNumber(r.t.make)
       << ",\"construct\":" << jsonNumber(r.t.construct)
       << ",\"build\":" << jsonNumber(r.t.build)
       << ",\"restore\":" << jsonNumber(r.t.restore)
       << ",\"map\":" << jsonNumber(r.t.map)
       << ",\"run\":" << jsonNumber(r.t.run)
       << ",\"run_cpu\":" << jsonNumber(r.t.runCpu)
       << ",\"check\":" << jsonNumber(r.t.check)
       << ",\"dump\":" << jsonNumber(r.t.dump)
       << ",\"cell\":" << jsonNumber(r.t.cell) << "},\"stats\":{";
    bool first = true;
    for (const auto& [k, v] : r.stats) {
        os << (first ? "" : ",") << "\"" << k
           << "\":" << jsonNumber(v);
        first = false;
    }
    os << "}}";
}

// ---------------------------------------------------------------
// Workloads.

struct Args
{
    std::string workload;
    std::uint64_t seed = 7;
    double seconds = 10;
    bool traced = false;
    double scale = 0; ///< 0: the workload's own scale
    std::string tmp = ".";
    std::string traceOut = "perfbench_trace.json";
};

struct Pass
{
    bool traced = false;
    double wall = 0, setup = 0;
    std::vector<RunRecord> runs;
    /** sweep-small only. */
    double coldWall = 0, warmWall = 0, reportWrite = 0;
    std::uint64_t hits = 0, misses = 0, warmHits = 0, cacheBytes = 0;
    int checksFailed = 0, checks = 0;
};

const std::vector<std::string> kSingleConfigs = {"static", "delta",
                                                 "spatial"};

std::vector<Wk>
kernelsOf(const std::string& workload)
{
    if (workload == "dyn-stream")
        return {Wk::Msort, Wk::MsortDyn, Wk::Tricount, Wk::Join};
    if (workload == "dense-tiled")
        return {Wk::Cholesky, Wk::Lu, Wk::Centroid, Wk::Spmv};
    return allWorkloads();
}

std::vector<std::uint64_t>
sweepSeeds(std::uint64_t seed)
{
    // >= 1000 and never equal to @p seed: held out from the seed the
    // single-run workloads use for the same invocation.
    std::vector<std::uint64_t> s;
    for (std::uint64_t i = 0; i < 4; ++i)
        s.push_back(1000 + 4 * seed + i);
    return s;
}

void
mapSpatial(Delta& d, const TaskGraph& g, double& acc)
{
    std::vector<std::uint32_t> nodes;
    for (std::uint32_t i = 0; i < d.numLanes(); ++i)
        nodes.push_back(d.laneNode(i));
    timed("spatial.mapTaskGraph", acc, [&] {
        return spatial::mapTaskGraph(g, d.image(), d.registry(),
                                     d.noc(), nodes,
                                     d.config().nocLinks.linkWords);
    });
}

/** One run of a single-run workload: fresh Delta, build, run, check. */
RunRecord
singleRun(Wk w, const std::string& config, const SuiteParams& sp,
          bool traced, int runId)
{
    RunRecord r;
    r.kernel = wkName(w);
    r.config = config;
    r.seed = sp.seed;
    const auto t0 = Clock::now();
    const int span = gSpans.begin(r.kernel + "/" + config, runId);
    try {
        DeltaConfig cfg = driver::sweepConfig(config).cfg;
        cfg.hostProfile = traced;
        auto wl = timed("workloads.makeWorkload", r.t.make,
                        [&] { return makeWorkload(w, sp); });
        auto delta = timed("accel.Delta", r.t.construct, [&] {
            return std::make_unique<Delta>(cfg);
        });
        TaskGraph graph;
        timed("workloads.build", r.t.build, [&] {
            wl->build(*delta, graph);
            return 0;
        });
        if (traced && cfg.policy == SchedPolicy::Spatial)
            mapSpatial(*delta, graph, r.t.map);
        const double cpu0 = threadCpuSeconds();
        StatSet stats = timed("accel.run", r.t.run,
                              [&] { return delta->run(graph); });
        r.t.runCpu = threadCpuSeconds() - cpu0;
        const bool correct = timed("workloads.check", r.t.check, [&] {
            return wl->check(delta->image());
        });
        const std::string dump = timed("analysis.dumpJson", r.t.dump,
                                       [&] { return modeledDump(stats); });
        r.stats = extractStats(stats);
        r.error = correct ? checkReference(r.kernel + "/" + config, dump)
                          : "golden check failed";
        r.ok = r.error.empty();
    } catch (const std::exception& e) {
        r.error = e.what();
    }
    gSpans.end(span);
    r.t.cell = secondsSince(t0);
    return r;
}

Pass
singlePass(const Args& a, std::vector<Wk> kernels, double scale,
           bool traced, int& runId)
{
    Pass p;
    p.traced = traced;
    const auto t0 = Clock::now();
    SuiteParams sp;
    sp.seed = a.seed;
    sp.scale = scale;
    for (Wk w : kernels) {
        for (const auto& c : kSingleConfigs) {
            p.runs.push_back(singleRun(w, c, sp, traced, runId++));
            const Timings& t = p.runs.back().t;
            p.setup += t.make + t.construct + t.build;
        }
    }
    p.wall = secondsSince(t0);
    return p;
}

std::uint64_t
dirBytes(const fs::path& dir)
{
    std::uint64_t n = 0;
    for (const auto& e : fs::recursive_directory_iterator(dir))
        if (e.is_regular_file())
            n += e.file_size();
    return n;
}

/**
 * The set-up a sweep does per cell, timed from outside: one Delta
 * construction and snapshot per preset, then makeWorkload, fork
 * restore and build for every (kernel, preset) at the first seed.
 */
double
sweepSetupProbe(const std::vector<driver::ConfigVariant>& presets,
                const SuiteParams& sp, bool traced, Timings& t)
{
    const int span = gSpans.begin("sweep.setup");
    for (const auto& preset : presets) {
        double c = 0;
        auto delta = timed("accel.Delta", c, [&] {
            return std::make_unique<Delta>(preset.cfg);
        });
        auto snap = timed("accel.snapshot", c,
                          [&] { return delta->snapshot(); });
        t.construct += c;
        for (Wk w : allWorkloads()) {
            auto wl = timed("workloads.makeWorkload", t.make,
                            [&] { return makeWorkload(w, sp); });
            timed("accel.restore", t.restore, [&] {
                delta->restore(*snap);
                return 0;
            });
            TaskGraph graph;
            timed("workloads.build", t.build, [&] {
                wl->build(*delta, graph);
                return 0;
            });
            if (traced && preset.cfg.policy == SchedPolicy::Spatial)
                mapSpatial(*delta, graph, t.map);
        }
    }
    gSpans.end(span);
    return t.construct + t.make + t.restore + t.build;
}

thread_local Clock::time_point tCellStart;
thread_local unsigned tCellWorker = 0;

Pass
sweepPass(const Args& a, double scale, bool traced, int& runId,
          int passNo)
{
    Pass p;
    p.traced = traced;
    const auto t0 = Clock::now();
    const auto presets = driver::sweepConfigsFromList(
        "static,dyn,work,work-steal,pipe,delta,spatial");

    SuiteParams sp;
    sp.seed = sweepSeeds(a.seed).front();
    sp.scale = scale;
    Timings setupT;
    p.setup = sweepSetupProbe(presets, sp, traced, setupT);

    const fs::path cacheDir =
        fs::path(a.tmp) / ("perfbench-cache-" + std::to_string(passNo));
    fs::remove_all(cacheDir);

    driver::SweepSpec spec;
    spec.workloads = allWorkloads();
    spec.configs = presets;
    spec.seeds = sweepSeeds(a.seed);
    spec.scales = {scale};
    spec.baseline = "static";
    spec.jobs = 2;
    spec.cacheDir = cacheDir.string();
    spec.hostProfile = traced;

    std::map<std::string, double> cellSeconds;
    spec.onCellStart = [](unsigned worker, const driver::RunPoint&) {
        tCellWorker = worker;
        tCellStart = Clock::now();
    };
    std::map<std::string, int> runIds;
    const driver::Sweep grid(spec);
    for (const auto& pt : grid.points())
        runIds[pt.tag()] = runId++;

    auto runSweep = [&](const char* name, bool record,
                        std::string& reportJson) {
        driver::SweepSpec s = spec;
        if (record) {
            s.onResult = [&](const driver::RunOutcome& out, bool) {
                const std::string tag = out.point.tag();
                const auto endNs = SpanLog::nowNs();
                cellSeconds[tag] = secondsSince(tCellStart);
                gSpans.add("cell " + tag,
                           endNs - static_cast<std::int64_t>(
                                       cellSeconds[tag] * 1e9),
                           endNs, runIds[tag], 1 + tCellWorker);
            };
        }
        const int span = gSpans.begin(name);
        double wall = 0;
        driver::SweepReport rep = timed("driver.Sweep.run", wall, [&] {
            return driver::Sweep(s).run();
        });
        timed("analysis.writeJson", p.reportWrite, [&] {
            std::ostringstream os;
            rep.writeJson(os);
            reportJson = os.str();
            return 0;
        });
        gSpans.end(span);
        return std::make_pair(std::move(rep), wall);
    };

    std::string coldJson, warmJson;
    auto [cold, coldWall] = runSweep("sweep.cold", true, coldJson);
    p.coldWall = coldWall;
    p.cacheBytes = dirBytes(cacheDir);
    auto [warm, warmWall] = runSweep("sweep.warm", false, warmJson);
    p.warmWall = warmWall;
    p.hits = cold.cacheHits + warm.cacheHits;
    p.misses = cold.cacheMisses + warm.cacheMisses;
    p.warmHits = warm.cacheHits;
    p.checks = 2;
    if (warmJson != coldJson) {
        ++p.checksFailed;
        std::cerr << "perfbench: warm sweep report differs from cold\n";
    }
    if (warm.cacheHits != warm.runs.size()) {
        ++p.checksFailed;
        std::cerr << "perfbench: warm sweep hit " << warm.cacheHits
                  << " of " << warm.runs.size() << " cells\n";
    }
    fs::remove_all(cacheDir);

    for (const driver::RunOutcome& out : cold.runs) {
        RunRecord r;
        r.kernel = wkName(out.point.workload);
        r.config = out.point.config;
        r.seed = out.point.seed;
        const std::string tag = out.point.tag();
        r.t.cell = cellSeconds[tag];
        const int span = gSpans.begin("record " + tag, runIds[tag]);
        if (out.failed) {
            r.error = out.error;
        } else {
            const std::string dump = timed(
                "analysis.dumpJson", r.t.dump,
                [&] { return modeledDump(out.stats); });
            r.stats = extractStats(out.stats);
            r.t.run = r.stats["sim.host.wallNs"] * 1e-9;
            r.error = out.correct ? checkReference(tag, dump)
                                  : "golden check failed";
        }
        r.ok = r.error.empty();
        gSpans.end(span);
        p.runs.push_back(std::move(r));
    }
    // The setup probe's timings ride on the first record so run.py
    // can sum them like the single-run workloads' per-run timings.
    if (!p.runs.empty()) {
        Timings& t = p.runs.front().t;
        t.make = setupT.make;
        t.construct = setupT.construct;
        t.build = setupT.build;
        t.restore = setupT.restore;
        t.map = setupT.map;
    }
    p.wall = secondsSince(t0);
    return p;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--traced")
            a.traced = v == "1";
        else if (k == "--scale")
            a.scale = std::stod(v);
        else if (k == "--tmp")
            a.tmp = v;
        else if (k == "--trace-out")
            a.traceOut = v;
        else
            fatal("perfbench: unknown argument '", k, "'");
    }
    if (a.workload != "dyn-stream" && a.workload != "dense-tiled" &&
        a.workload != "sweep-small")
        fatal("perfbench: --workload must be dyn-stream, dense-tiled "
              "or sweep-small");
    return a;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        const Args a = parseArgs(argc, argv);
        setLogVerbosity(0);
        const bool sweep = a.workload == "sweep-small";
        const double scale =
            a.scale > 0 ? a.scale : (sweep ? 0.25 : 4.0);

        std::vector<Pass> passes;
        int runId = 0;
        const auto t0 = Clock::now();
        bool traced = false;
        auto haveBoth = [&] {
            return !a.traced ||
                   (passes.size() >= 2 && passes.back().traced);
        };
        while (passes.empty() || secondsSince(t0) < a.seconds ||
               !haveBoth()) {
            const bool t = a.traced && traced;
            gSpans.enabled = t;
            const int span = gSpans.begin(
                std::string(t ? "pass.traced " : "pass.untraced ") +
                std::to_string(passes.size()));
            passes.push_back(
                sweep ? sweepPass(a, scale, t, runId,
                                  static_cast<int>(passes.size()))
                      : singlePass(a, kernelsOf(a.workload), scale, t,
                                   runId));
            gSpans.end(span);
            traced = !traced;
        }
        if (a.traced)
            gSpans.write(a.traceOut);

        std::ostream& os = std::cout;
        os << "{\"peak_rss_mb\":" << jsonNumber(peakRssMiB())
           << ",\"passes\":[";
        for (std::size_t i = 0; i < passes.size(); ++i) {
            const Pass& p = passes[i];
            os << (i ? ",\n" : "\n") << "{\"traced\":"
               << (p.traced ? "true" : "false")
               << ",\"wall\":" << jsonNumber(p.wall)
               << ",\"setup\":" << jsonNumber(p.setup)

               << ",\"cold_wall\":" << jsonNumber(p.coldWall)
               << ",\"warm_wall\":" << jsonNumber(p.warmWall)
               << ",\"report_write\":" << jsonNumber(p.reportWrite)
               << ",\"hits\":" << p.hits << ",\"misses\":" << p.misses
               << ",\"warm_hits\":" << p.warmHits
               << ",\"cache_bytes\":" << p.cacheBytes
               << ",\"checks\":" << p.checks
               << ",\"checks_failed\":" << p.checksFailed
               << ",\"runs\":[";
            for (std::size_t j = 0; j < p.runs.size(); ++j) {
                os << (j ? ",\n" : "\n");
                writeRecord(os, p.runs[j]);
            }
            os << "]}";
        }
        os << "]}\n";
        return 0;
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
}
