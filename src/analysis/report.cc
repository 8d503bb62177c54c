#include "analysis/report.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <sstream>
#include <tuple>

#include "analysis/energy_model.hh"
#include "sim/logging.hh"

namespace ts
{
namespace analysis
{

namespace
{

/** Fixed-width number rendering: integers plain, fractions short. */
std::string
fmt(double v)
{
    std::ostringstream os;
    if (std::floor(v) == v && std::abs(v) < 1e15)
        os << static_cast<long long>(v);
    else
        os << std::fixed << std::setprecision(1) << v;
    return os.str();
}

std::string
pct(double frac)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(1) << frac * 100.0 << "%";
    return os.str();
}

std::string
bar(double frac, std::size_t width = 32)
{
    frac = std::clamp(frac, 0.0, 1.0);
    const auto n =
        static_cast<std::size_t>(std::lround(frac * width));
    return std::string(n, '#');
}

} // namespace

std::vector<std::pair<std::string, double>>
RunStats::matchPrefix(const std::string& prefix) const
{
    std::vector<std::pair<std::string, double>> out;
    for (auto it = values.lower_bound(prefix); it != values.end();
         ++it) {
        if (it->first.compare(0, prefix.size(), prefix) != 0)
            break;
        out.push_back(*it);
    }
    return out;
}

RunStats
statsFromJson(const Json& doc)
{
    RunStats out;
    if (!doc.isObj())
        fatal("stats document is not a JSON object");

    const Json* flat = &doc;
    if (doc.has("stats") && doc.at("stats").isObj()) {
        // --bench-json wrapper: metadata + nested stats object.
        flat = &doc.at("stats");
        if (doc.has("workload"))
            out.workload = doc.at("workload").str;
        if (doc.has("policy"))
            out.policy = doc.at("policy").str;
        // The sweep's bench dumps label the grid point "config".
        if (out.policy.empty() && doc.has("config"))
            out.policy = doc.at("config").str;
    }
    for (const auto& [name, v] : flat->obj) {
        if (v.isNum())
            out.values.emplace(name, v.num);
        else if (v.kind == Json::Kind::Bool)
            out.values.emplace(name, v.b ? 1.0 : 0.0);
        // null (non-finite) entries are dropped.
    }
    return out;
}

Json
loadJson(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open '", path, "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    Json doc;
    if (!parseJson(buf.str(), doc))
        fatal("malformed JSON in '", path, "'");
    return doc;
}

RunStats
loadStats(const std::string& path)
{
    return statsFromJson(loadJson(path));
}

std::vector<TaskTypeRow>
slowestTaskTypes(const RunStats& s, std::size_t topk)
{
    std::vector<TaskTypeRow> rows;
    for (const auto& [name, value] : s.matchPrefix("task.")) {
        // task.<type>.serviceCycles.count anchors one row per type.
        const std::string suffix = ".serviceCycles.count";
        if (name.size() <= 5 + suffix.size() ||
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0) {
            continue;
        }
        const std::string type =
            name.substr(5, name.size() - 5 - suffix.size());
        const std::string base = "task." + type + ".serviceCycles.";
        TaskTypeRow r;
        r.type = type;
        r.count = value;
        r.mean = s.getOr(base + "mean");
        r.p50 = s.getOr(base + "p50");
        r.p95 = s.getOr(base + "p95");
        r.p99 = s.getOr(base + "p99");
        r.max = s.getOr(base + "max");
        rows.push_back(std::move(r));
    }
    std::sort(rows.begin(), rows.end(),
              [](const TaskTypeRow& a, const TaskTypeRow& b) {
                  return a.p95 > b.p95;
              });
    if (rows.size() > topk)
        rows.resize(topk);
    return rows;
}

double
speedupVs(const RunStats& run, const RunStats& baseline)
{
    const double mine = run.getOr("delta.cycles");
    const double theirs = baseline.getOr("delta.cycles");
    return mine > 0 && theirs > 0 ? theirs / mine : 0.0;
}

double
seriesSpeedup(const RunStats& run, const RunStats& baseline,
              const std::string& name, std::ostream& warn)
{
    const bool haveRun = run.getOr(name) > 0;
    const bool haveBase = baseline.getOr(name) > 0;
    if (!haveRun || !haveBase) {
        warn << "warn: speedup skipped: series '" << name
             << "' absent or zero in "
             << (!haveRun && !haveBase ? "both runs"
                 : !haveBase          ? "the baseline"
                                      : "the run")
             << "\n";
        return 0.0;
    }
    return baseline.getOr(name) / run.getOr(name);
}

void
printComparison(std::ostream& os,
                const std::vector<const RunStats*>& runs,
                const std::vector<std::string>& labels,
                std::ostream& warn)
{
    if (runs.size() < 2 || runs.size() != labels.size())
        return;
    // The headline series worth lining up side by side; rows whose
    // series no run carries are dropped (e.g. spatial counters in a
    // static-vs-delta comparison).
    static const char* const series[] = {
        "delta.cycles",
        "delta.accounting.busy",
        "delta.accounting.memWait",
        "delta.accounting.nocWait",
        "delta.accounting.idle",
        "delta.critpath.boundCycles",
        "delta.attrib.pipeline.overlapCycles",
        "delta.attrib.multicast.dramLinesSaved",
        "dispatcher.attrib.steal.tasksStolen",
        "delta.attrib.spatial.dramLinesSaved",
        "delta.attrib.spatial.forwardWords",
        "delta.spatial.forwards",
        "delta.spatial.spills",
    };
    os << "Comparison (baseline = " << labels[0] << "):\n";
    os << "  " << std::left << std::setw(38) << "series"
       << std::right;
    for (const std::string& l : labels)
        os << std::setw(12) << (l.size() > 11 ? l.substr(0, 11) : l);
    os << "\n";
    for (const char* name : series) {
        bool any = false;
        for (const RunStats* r : runs)
            any = any || r->has(name);
        if (!any)
            continue;
        os << "  " << std::left << std::setw(38) << name
           << std::right;
        for (const RunStats* r : runs)
            os << std::setw(12)
               << (r->has(name) ? fmt(r->getOr(name)) : "-");
        os << "\n";
        if (std::string(name) == "delta.cycles") {
            std::string ref = labels[0];
            if (ref.size() > 24)
                ref.resize(24);
            os << "  " << std::left << std::setw(38)
               << ("  speedup vs " + ref) << std::right;
            for (const RunStats* r : runs) {
                const double x =
                    seriesSpeedup(*r, *runs[0], name, warn);
                std::ostringstream cell;
                if (x > 0)
                    cell << std::fixed << std::setprecision(2) << x
                         << "x";
                else
                    cell << "-";
                os << std::setw(12) << cell.str();
            }
            os << "\n";
        }
    }
    os << "\n";
}

void
printHeader(std::ostream& os, const RunStats& s)
{
    os << "delta-report";
    if (!s.workload.empty())
        os << " — workload " << s.workload;
    if (!s.policy.empty())
        os << " (" << s.policy << ")";
    os << "\n";
    os << "  cycles " << fmt(s.getOr("delta.cycles")) << ", lanes "
       << fmt(s.getOr("delta.lanes")) << ", imbalance "
       << std::fixed << std::setprecision(2)
       << s.getOr("delta.imbalance", 1.0) << "\n\n";
}

void
printWaterfall(std::ostream& os, const RunStats& s)
{
    static const char* const classes[] = {"busy", "memWait", "nocWait",
                                          "idle"};
    if (!s.has("delta.accounting.busy"))
        return;
    const double laneCycles =
        s.getOr("delta.cycles") * s.getOr("delta.lanes");
    os << "Cycle accounting (" << fmt(s.getOr("delta.lanes"))
       << " lanes x " << fmt(s.getOr("delta.cycles"))
       << " cycles = " << fmt(laneCycles) << " lane-cycles):\n";
    for (const char* cls : classes) {
        const double v =
            s.getOr(std::string("delta.accounting.") + cls);
        const double f =
            s.getOr(std::string("delta.accounting.frac.") + cls,
                    laneCycles > 0 ? v / laneCycles : 0.0);
        os << "  " << std::left << std::setw(8) << cls << std::right
           << std::setw(12) << fmt(v) << "  " << std::setw(6)
           << pct(f) << "  " << bar(f) << "\n";
    }
    os << "\n";
}

void
printAttribution(std::ostream& os, const RunStats& s)
{
    if (!s.has("delta.attrib.loadbalance.imbalanceCyclesAvoided"))
        return;
    // Balance attribution is signed: a negative value is imbalance
    // the policy cost relative to its shadow assignment.
    const double avoided =
        s.getOr("delta.attrib.loadbalance.imbalanceCyclesAvoided");
    os << "Mechanism attribution:\n";
    os << "  loadbalance  imbalance "
       << (avoided < 0 ? "cost     " : "avoided  ") << fmt(std::abs(avoided))
       << " cycles (shadow-static max service "
       << fmt(s.getOr(
              "delta.attrib.loadbalance.shadowStaticMaxService"))
       << " vs "
       << fmt(s.getOr("delta.attrib.loadbalance.actualMaxService"))
       << " actual)\n";
    os << "  pipeline     overlap recovered  "
       << fmt(s.getOr("delta.attrib.pipeline.overlapCycles"))
       << " cycles (" << fmt(s.getOr("dispatcher.pipesActivated"))
       << " pipes activated, "
       << fmt(s.getOr("delta.attrib.pipeline.pipesDegraded"))
       << " degraded)\n";
    os << "  multicast    DRAM lines saved   "
       << fmt(s.getOr("delta.attrib.multicast.dramLinesSaved"))
       << " (" << fmt(s.getOr("delta.attrib.multicast.dramBytesSaved"))
       << " bytes), word-hops saved "
       << fmt(s.getOr("delta.attrib.multicast.wordHopsSaved"))
       << " across " << fmt(s.getOr("delta.attrib.multicast.packets"))
       << " multicast packets\n";
    if (s.has("delta.attrib.steal.shadowMaxService")) {
        const double recovered =
            s.getOr("delta.attrib.steal.imbalanceCyclesRecovered");
        os << "  steal        imbalance "
           << (recovered < 0 ? "cost      " : "recovered ")
           << fmt(std::abs(recovered))
           << " cycles (no-steal shadow max service "
           << fmt(s.getOr("delta.attrib.steal.shadowMaxService"))
           << "): "
           << fmt(s.getOr("dispatcher.attrib.steal.tasksStolen"))
           << " tasks moved over "
           << fmt(s.getOr("delta.attrib.steal.hopsTraveled"))
           << " hops, "
           << fmt(s.getOr("delta.attrib.steal.grants")) << "/"
           << fmt(s.getOr("delta.attrib.steal.requests"))
           << " probes granted\n";
    }
    os << "\n";
}

void
printCritPath(std::ostream& os, const RunStats& s)
{
    if (!s.has("delta.critpath.boundCycles"))
        return;
    const double cycles = s.getOr("delta.cycles");
    const double bound = s.getOr("delta.critpath.boundCycles");
    os << "Critical path (dependence-weighted, measured spans):\n";
    os << "  critical path  " << fmt(s.getOr("delta.critpath.cycles"))
       << " cycles over " << fmt(s.getOr("delta.critpath.pathTasks"))
       << " tasks\n";
    os << "  serial work    "
       << fmt(s.getOr("delta.critpath.serialCycles")) << " cycles\n";
    os << "  lower bound    " << fmt(bound)
       << " cycles (max of path, serial/lanes)\n";
    os << "  achieved       " << fmt(cycles) << " cycles -> "
       << pct(cycles > 0 ? bound / cycles : 0.0)
       << " of bound utilization\n\n";
}

void
printHostPerf(std::ostream& os, const RunStats& s)
{
    if (!s.has("sim.host.wallNs"))
        return;
    const double wallNs = s.getOr("sim.host.wallNs");
    const double cycles = s.getOr("delta.cycles", s.getOr("sim.cycles"));
    const double ffwd = s.getOr("sim.host.cyclesFastForwarded");
    os << "Host simulation performance:\n";
    os << "  wall time        " << std::fixed << std::setprecision(2)
       << wallNs / 1e6 << " ms\n";
    os << "  ticks executed   " << fmt(s.getOr("sim.host.ticksExecuted"))
       << " (avg " << std::setprecision(2)
       << s.getOr("sim.host.avgActiveComponents")
       << " active components/cycle)\n";
    if (cycles > 0) {
        os << "  fast-forwarded   " << fmt(ffwd) << " of "
           << fmt(cycles) << " cycles (" << pct(ffwd / cycles)
           << ")\n";
    }
    if (wallNs > 0) {
        os << "  throughput       " << fmt(cycles / (wallNs / 1e9))
           << " simulated cycles/s\n";
    }
    os << "\n";
}

namespace
{

/** delta.timeline.* columns regrouped as series name -> per-sample
 *  values ("t" holds the sample ticks). */
std::map<std::string, std::vector<double>>
timelineSeries(const RunStats& s, std::size_t n)
{
    static const std::string prefix = "delta.timeline.";
    std::map<std::string, std::vector<double>> series;
    for (const auto& [name, v] : s.matchPrefix(prefix)) {
        const std::string tail = name.substr(prefix.size());
        if (tail == "interval" || tail == "samples")
            continue;
        const std::size_t dot = tail.rfind('.');
        if (dot == std::string::npos)
            continue;
        char* end = nullptr;
        const unsigned long k =
            std::strtoul(tail.c_str() + dot + 1, &end, 10);
        if (*end != '\0' || k >= n)
            continue;
        std::vector<double>& vec = series[tail.substr(0, dot)];
        if (vec.size() < n)
            vec.resize(n, 0.0);
        vec[k] = v;
    }
    return series;
}

/** One ASCII sparkline character per sample, scaled to the series
 *  peak (space = zero, '@' = peak). */
std::string
sparkline(const std::vector<double>& vals, double peak)
{
    static const char levels[] = " .:-=+*#%@";
    std::string out;
    for (const double v : vals) {
        if (!(v > 0) || !(peak > 0)) {
            out += ' ';
            continue;
        }
        const auto idx = static_cast<std::size_t>(
            std::ceil(v / peak * 9.0));
        out += levels[std::min<std::size_t>(idx, 9)];
    }
    return out;
}

} // namespace

void
printTimeline(std::ostream& os, const RunStats& s)
{
    const auto n = static_cast<std::size_t>(
        s.getOr("delta.timeline.samples"));
    if (n == 0)
        return;
    std::map<std::string, std::vector<double>> series =
        timelineSeries(s, n);

    os << "Timeline (" << n << " samples, every "
       << fmt(s.getOr("delta.timeline.interval")) << " cycles";
    const auto t = series.find("t");
    if (t != series.end() && !t->second.empty())
        os << ", @" << fmt(t->second.front()) << "..@"
           << fmt(t->second.back());
    os << "):\n";
    if (t != series.end())
        series.erase(t);

    // Per-lane waterfall: each column is one sample interval, marked
    // with the interval's dominant cycle class.
    static const char* const classes[] = {"busy", "memWait",
                                          "nocWait", "idle"};
    static const char classChar[] = {'#', 'm', 'n', '.'};
    std::vector<std::pair<unsigned long, std::string>> lanes;
    for (const auto& [name, vals] : series) {
        const std::string suffix = ".busy";
        if (name.compare(0, 4, "lane") == 0 &&
            name.size() > 4 + suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
            const std::string lane =
                name.substr(0, name.size() - suffix.size());
            lanes.emplace_back(
                std::strtoul(lane.c_str() + 4, nullptr, 10), lane);
        }
    }
    std::sort(lanes.begin(), lanes.end());
    if (!lanes.empty()) {
        os << "  lane activity (dominant class per interval: "
              "# busy, m memWait, n nocWait, . idle):\n";
        for (const auto& [num, lane] : lanes) {
            (void)num;
            std::string row;
            for (std::size_t k = 0; k < n; ++k) {
                std::size_t best = 0;
                double bestV = 0.0, sum = 0.0;
                for (std::size_t c = 0; c < 4; ++c) {
                    const auto it = series.find(
                        lane + "." + classes[c]);
                    const double v =
                        it == series.end() ? 0.0 : it->second[k];
                    sum += v;
                    if (v > bestV) {
                        bestV = v;
                        best = c;
                    }
                }
                // Sample 0 is the pre-run baseline: nothing elapsed.
                row += sum > 0 ? classChar[best] : ' ';
            }
            os << "    " << std::left << std::setw(8) << lane
               << std::right << " |" << row << "|\n";
        }
        for (std::size_t c = 0; c < 4; ++c)
            for (const auto& [num, lane] : lanes) {
                (void)num;
                series.erase(lane + "." + classes[c]);
            }
    }

    // Everything else (ready queue, NoC in flight, DRAM queue, any
    // lane class kept when lanes were filtered out) as sparklines.
    for (const auto& [name, vals] : series) {
        const double peak =
            *std::max_element(vals.begin(), vals.end());
        os << "  " << std::left << std::setw(12) << name
           << std::right << " |" << sparkline(vals, peak)
           << "|  peak " << fmt(peak) << "\n";
    }
    os << "\n";
}

void
printHostProfile(std::ostream& os, const RunStats& s)
{
    std::vector<std::pair<std::string, double>> rows =
        s.matchPrefix("sim.host.profile.");
    if (rows.empty())
        return;
    double total = 0.0;
    for (const auto& [name, v] : rows)
        total += v;
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) {
                  return a.second > b.second;
              });
    os << "Host hotspots (profiled wall time per component "
          "class/phase):\n";
    for (const auto& [name, v] : rows) {
        std::string label = name.substr(17); // "sim.host.profile."
        if (label.size() > 2 &&
            label.compare(label.size() - 2, 2, "Ns") == 0)
            label.resize(label.size() - 2);
        const double f = total > 0 ? v / total : 0.0;
        os << "  " << std::left << std::setw(16) << label
           << std::right << std::setw(10) << std::fixed
           << std::setprecision(2) << v / 1e6 << " ms  "
           << std::setw(6) << pct(f) << "  " << bar(f) << "\n";
    }
    os << "  " << std::left << std::setw(16) << "total"
       << std::right << std::setw(10) << std::fixed
       << std::setprecision(2) << total / 1e6 << " ms";
    const double wallNs = s.getOr("sim.host.wallNs");
    if (wallNs > 0)
        os << "  (" << pct(total / wallNs) << " of wall time)";
    os << "\n\n";
}

void
printTaskTypes(std::ostream& os, const RunStats& s, std::size_t topk)
{
    const std::vector<TaskTypeRow> rows = slowestTaskTypes(s, topk);
    if (rows.empty())
        return;
    os << "Slowest task types (by p95 service cycles):\n";
    os << "  " << std::left << std::setw(16) << "type" << std::right
       << std::setw(8) << "count" << std::setw(10) << "mean"
       << std::setw(10) << "p50" << std::setw(10) << "p95"
       << std::setw(10) << "p99" << std::setw(10) << "max" << "\n";
    for (const TaskTypeRow& r : rows) {
        os << "  " << std::left << std::setw(16) << r.type
           << std::right << std::setw(8) << fmt(r.count)
           << std::setw(10) << fmt(r.mean) << std::setw(10)
           << fmt(r.p50) << std::setw(10) << fmt(r.p95)
           << std::setw(10) << fmt(r.p99) << std::setw(10)
           << fmt(r.max) << "\n";
    }
    os << "\n";
}

void
printTraceSummary(std::ostream& os, const Json& trace)
{
    // Perfetto/chrome trace: {"traceEvents": [...]} or a bare array.
    const Json* events = nullptr;
    if (trace.isObj() && trace.has("traceEvents") &&
        trace.at("traceEvents").isArr()) {
        events = &trace.at("traceEvents");
    } else if (trace.isArr()) {
        events = &trace;
    }
    if (events == nullptr) {
        os << "Trace: unrecognized format\n\n";
        return;
    }
    std::map<std::string, std::size_t> perTrack;
    for (const Json& e : events->arr) {
        if (e.isObj() && e.has("name") &&
            e.at("name").kind == Json::Kind::Str) {
            ++perTrack[e.at("name").str];
        }
    }
    os << "Trace: " << events->arr.size() << " events, "
       << perTrack.size() << " distinct names; busiest:\n";
    std::vector<std::pair<std::string, std::size_t>> tracks(
        perTrack.begin(), perTrack.end());
    std::sort(tracks.begin(), tracks.end(),
              [](const auto& a, const auto& b) {
                  return a.second > b.second;
              });
    for (std::size_t i = 0; i < tracks.size() && i < 5; ++i) {
        os << "  " << std::left << std::setw(24) << tracks[i].first
           << std::right << std::setw(10) << tracks[i].second
           << " events\n";
    }
    os << "\n";
}

void
printReport(std::ostream& os, const RunStats& s,
            const ReportOptions& opt)
{
    printHeader(os, s);
    printWaterfall(os, s);
    printAttribution(os, s);
    printCritPath(os, s);
    printHostPerf(os, s);
    printHostProfile(os, s);
    if (opt.timeline)
        printTimeline(os, s);
    printTaskTypes(os, s, opt.topk);
    if (opt.baseline != nullptr) {
        const double x = speedupVs(s, *opt.baseline);
        if (x > 0) {
            os << "Speedup vs baseline: " << std::fixed
               << std::setprecision(2) << x << "x ("
               << fmt(s.getOr("delta.cycles")) << " vs "
               << fmt(opt.baseline->getOr("delta.cycles"))
               << " cycles)\n\n";
        } else {
            os << "Speedup vs baseline: skipped — series "
                  "'delta.cycles' absent or zero in "
               << (opt.baseline->getOr("delta.cycles") <= 0
                       ? "the baseline"
                       : "the run")
               << "\n\n";
        }
    }
    if (opt.trace != nullptr)
        printTraceSummary(os, *opt.trace);
}

bool
isSweepReport(const Json& doc)
{
    return doc.isObj() && doc.has("grid") && doc.has("runs");
}

namespace
{

using Cell = std::tuple<std::string, std::string, double>;

/** Fixed-point @p v plus @p unit; NaN (a failed run) reads FAIL. */
std::string
cell(double v, int precision, const char* unit = "")
{
    if (std::isnan(v))
        return "FAIL";
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v << unit;
    return os.str();
}

/**
 * A Markdown table of value(workload, config), a row per workload,
 * closed by each column's geomean — or, when @p ratioTo is a column,
 * by the geomean ratio of that column to each.  A failed (NaN) cell
 * fails its column's geomean.  A non-empty @p noteHeader adds a text
 * column filled by note(workload).
 */
void
markdownTable(std::ostream& os, const std::vector<std::string>& wks,
              const std::vector<std::string>& cfgs,
              const std::function<double(const std::string&,
                                         const std::string&)>& value,
              int precision, const char* unit,
              int ratioTo = -1, const std::string& noteHeader = "",
              const std::function<std::string(const std::string&)>&
                  note = {})
{
    const bool notes = !noteHeader.empty();
    os << "| workload |";
    for (const std::string& c : cfgs)
        os << " " << c << " |";
    if (notes)
        os << " " << noteHeader << " |";
    os << "\n|---|";
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        os << "---:|";
    os << (notes ? "---|\n" : "\n");
    std::vector<double> geo(cfgs.size(), 0.0);
    for (const std::string& w : wks) {
        os << "| " << w << " |";
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            const double v = value(w, cfgs[i]);
            geo[i] += std::log(v) / static_cast<double>(wks.size());
            os << " " << cell(v, precision, unit) << " |";
        }
        if (notes)
            os << " " << note(w) << " |";
        os << "\n";
    }
    os << "| **geomean";
    if (ratioTo >= 0)
        os << " " << cfgs[ratioTo] << "/config";
    os << "** |";
    for (const double g : geo) {
        os << " "
           << (ratioTo < 0 ? cell(std::exp(g), precision, unit)
                           : cell(std::exp(geo[ratioTo] - g), 2, "×"))
           << " |";
    }
    os << (notes ? "  |\n" : "\n");
}

} // namespace

bool
printSweepTables(std::ostream& os, const Json& report)
{
    const Json& grid = report.at("grid");
    const std::string base = grid.at("baseline").str;
    const auto seeds = static_cast<double>(grid.at("seeds").arr.size());
    std::vector<std::string> wks, cfgs, others;
    for (const Json& w : grid.at("workloads").arr)
        wks.push_back(w.str);
    for (const Json& c : grid.at("configs").arr) {
        cfgs.push_back(c.str);
        if (c.str != base)
            others.push_back(c.str);
    }
    const int baseCol = static_cast<int>(
        std::find(cfgs.begin(), cfgs.end(), base) - cfgs.begin());
    const auto cellOf = [](const Json& e) {
        return Cell{e.at("workload").str, e.at("config").str,
                    e.at("scale").num};
    };

    // A cell counts only when every seed's run is ok (aggregate n);
    // energy components sum over the cell's runs.
    std::map<Cell, double> cycles, speedup;
    for (const Json& a : report.at("aggregates").arr)
        cycles[cellOf(a)] =
            a.at("n").num == seeds ? a.at("meanCycles").num : NAN;
    for (const Json& sp : report.at("speedups").arr)
        speedup[cellOf(sp)] =
            sp.at("n").num == seeds ? sp.at("mean").num : NAN;
    bool allOk = true;
    std::map<Cell, std::vector<EnergyEntry>> energy;
    for (const Json& r : report.at("runs").arr) {
        allOk = allOk && r.at("correct").b && !r.at("failed").b;
        StatSet stats;
        for (const auto& [name, v] : r.at("stats").obj) {
            if (v.isNum())
                stats.set(name, v.num);
        }
        const EnergyReport run = computeEnergy(
            stats, static_cast<std::uint32_t>(r.at("lanes").num));
        std::vector<EnergyEntry>& sum = energy[cellOf(r)];
        sum.resize(run.entries.size());
        for (std::size_t i = 0; i < sum.size(); ++i) {
            sum[i].name = run.entries[i].name;
            sum[i].nanojoules += run.entries[i].nanojoules;
        }
    }

    os << "# Headline tables\n\nRendered by `delta-report` from a "
          "`delta-sweep` report; do not edit by hand.\nSeeds:";
    for (const Json& seed : grid.at("seeds").arr)
        os << " " << static_cast<std::uint64_t>(seed.num);
    os << "; lanes: " << report.at("runs").arr.at(0).at("lanes").num
       << "; baseline: " << (base.empty() ? "none" : "`" + base + "`")
       << ". Multi-seed cells are means "
       << "over seeds; FAIL marks a failed or incorrect run.\n";
    double scale = 0.0;
    const auto cyclesOf = [&](const auto& w, const auto& c) {
        return cycles.at({w, c, scale});
    };
    const auto speedupOf = [&](const auto& w, const auto& c) {
        return speedup.at({w, c, scale});
    };
    const auto microjoulesOf = [&](const auto& w, const auto& c) {
        double nj = std::isnan(cyclesOf(w, c)) ? NAN : 0.0;
        for (const EnergyEntry& e : energy.at({w, c, scale}))
            nj += e.nanojoules;
        return nj / seeds / 1000.0;
    };
    const auto largestBaseComponent = [&](const std::string& w) {
        const auto& parts = energy.at({w, base, scale});
        if (std::isnan(cyclesOf(w, base)))
            return std::string("FAIL");
        return std::max_element(parts.begin(), parts.end(),
                                [](const auto& a, const auto& b) {
                                    return a.nanojoules < b.nanojoules;
                                })
            ->name;
    };
    for (const Json& scaleJson : grid.at("scales").arr) {
        scale = scaleJson.num;
        os << "\n## Scale " << scale << "\n\n### Simulated cycles\n\n";
        markdownTable(os, wks, cfgs, cyclesOf, 0, "");
        if (base.empty())
            continue;
        os << "\n### Speedup over `" << base << "`\n\n";
        markdownTable(os, wks, others, speedupOf, 2, "×");
        os << "\n### Modeled energy (µJ)\n\n";
        markdownTable(os, wks, cfgs, microjoulesOf, 1, "", baseCol,
                      "largest `" + base + "` component",
                      largestBaseComponent);
    }
    return allOk;
}

} // namespace analysis
} // namespace ts
