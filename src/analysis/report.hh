/**
 * @file
 * Turning a run's statistics dump into a human-readable diagnosis.
 *
 * Ingests the flat JSON a run writes (--stats-json, or the
 * --bench-json wrapper objects the benchmarks emit) and renders the
 * top-down story: where the lane-cycles went (accounting waterfall),
 * what each recovered mechanism bought (attribution), how close the
 * run came to its dependence-structure bound (critical path), and
 * which task types dominate the tail (histogram percentiles).
 * A whole delta-sweep report renders instead as the Markdown
 * headline tables (cycles, speedup, energy per workload x config).
 * tools/delta-report is a thin CLI over these functions; tests call
 * them directly.
 */

#ifndef TS_ANALYSIS_REPORT_HH
#define TS_ANALYSIS_REPORT_HH

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/json.hh"

namespace ts
{
namespace analysis
{

/** A loaded statistics dump: flat dotted-path name -> value, plus
 *  the bench-wrapper metadata when present. */
struct RunStats
{
    std::map<std::string, double> values;

    // From the --bench-json wrapper, empty for raw dumps.
    std::string workload;
    std::string policy;

    bool has(const std::string& name) const
    {
        return values.count(name) != 0;
    }

    double
    getOr(const std::string& name, double fallback = 0.0) const
    {
        auto it = values.find(name);
        return it == values.end() ? fallback : it->second;
    }

    /** All (name, value) pairs whose name starts with the prefix. */
    std::vector<std::pair<std::string, double>>
    matchPrefix(const std::string& prefix) const;
};

/**
 * Interpret a parsed JSON document as a statistics dump.  Accepts
 * both shapes the simulator writes: a flat object of numbers (the
 * StatSet dump) and the bench wrapper
 * `{"workload":..., "policy":..., "lanes":..., "stats": {...}}`.
 * Non-numeric entries (nulls from non-finite statistics) are
 * dropped.
 */
RunStats statsFromJson(const Json& doc);

/** Read and parse a JSON file; fatal() on unreadable/malformed. */
Json loadJson(const std::string& path);

/** Read and parse a stats file; fatal() on unreadable/malformed. */
RunStats loadStats(const std::string& path);

/** Whether @p doc is a delta-sweep report (a top-level object with
 *  `grid` and `runs`) rather than one run's stats dump. */
bool isSweepReport(const Json& doc);

/**
 * Render a delta-sweep report as Markdown: per scale, simulated
 * cycles (`aggregates`), paired speedup over the baseline
 * (`speedups`) and modeled energy (computeEnergy), a row per
 * workload, configs in grid order, geomean last.  A cell with a
 * failed or incorrect run, and its column's geomean, read FAIL.
 * @return whether every run completed and passed its check.
 */
bool printSweepTables(std::ostream& os, const Json& report);

/** One task type's latency summary (from histogram statistics). */
struct TaskTypeRow
{
    std::string type;
    double count = 0;
    double mean = 0;
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
    double max = 0;
};

/** Task types sorted slowest-first by p95 service cycles. */
std::vector<TaskTypeRow> slowestTaskTypes(const RunStats& s,
                                          std::size_t topk);

/** baseline cycles / run cycles (0 when either is missing). */
double speedupVs(const RunStats& run, const RunStats& baseline);

/**
 * baseline/run ratio for one named series.  When the series is
 * absent (or zero) on either side the ratio is undefined; instead of
 * propagating an inf/nan speedup, warn on @p warn naming the series
 * and the missing side, and return 0.
 */
double seriesSpeedup(const RunStats& run, const RunStats& baseline,
                     const std::string& name, std::ostream& warn);

/**
 * Side-by-side comparison of two or more runs (index 0 is the
 * baseline): the headline series as rows, one column per run, plus a
 * speedup-vs-baseline row under delta.cycles.  A series absent from
 * every run is dropped; a cell absent from one run renders as "-";
 * speedups go through seriesSpeedup, so an absent baseline series is
 * warned about by name and skipped rather than rendered as inf/nan.
 */
void printComparison(std::ostream& os,
                     const std::vector<const RunStats*>& runs,
                     const std::vector<std::string>& labels,
                     std::ostream& warn);

/** Rendering options for printReport. */
struct ReportOptions
{
    std::size_t topk = 5;          ///< task-type rows to print
    const RunStats* baseline = nullptr; ///< optional comparison run
    const Json* trace = nullptr;   ///< optional parsed Perfetto trace
    bool timeline = false;         ///< render delta.timeline.* series
};

// Individual sections (each is a no-op when its stats are absent).
void printHeader(std::ostream& os, const RunStats& s);
void printWaterfall(std::ostream& os, const RunStats& s);
void printAttribution(std::ostream& os, const RunStats& s);
void printCritPath(std::ostream& os, const RunStats& s);
void printTaskTypes(std::ostream& os, const RunStats& s,
                    std::size_t topk);
void printTraceSummary(std::ostream& os, const Json& trace);

/**
 * Render the run's delta.timeline.* columns (see obs/timeline.hh):
 * a per-lane waterfall showing each sample interval's dominant cycle
 * class, then one ASCII sparkline per gauge series (ready-queue
 * depth, NoC packets in flight, DRAM queue depth), each scaled to
 * its own peak.  No-op when the run was sampled without a timeline.
 */
void printTimeline(std::ostream& os, const RunStats& s);

/** "Host hotspots": wall-ns attribution per component class and
 *  simulator phase (sim.host.profile.*), largest first.  No-op
 *  unless the run was profiled with --host-profile. */
void printHostProfile(std::ostream& os, const RunStats& s);

/** The full report: header, waterfall, attribution, critical path,
 *  slowest task types, optional baseline speedup and trace summary. */
void printReport(std::ostream& os, const RunStats& s,
                 const ReportOptions& opt = {});

} // namespace analysis
} // namespace ts

#endif // TS_ANALYSIS_REPORT_HH
