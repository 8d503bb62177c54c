/**
 * @file
 * Driver-layer tests: the RunOptions API (the shared flag parser,
 * the only input to a run) and the parallel sweep engine (grid
 * expansion, -j N determinism, failure surfacing, deterministic
 * aggregation).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/json.hh"
#include "analysis/report.hh"
#include "driver/grid.hh"
#include "driver/options.hh"
#include "driver/sweep.hh"
#include "sim/logging.hh"

using namespace ts;
using namespace ts::driver;

namespace
{

/** Owning argv builder for parser tests. */
struct Argv
{
    explicit Argv(std::vector<std::string> args) : strings(std::move(args))
    {
        for (std::string& s : strings)
            ptrs.push_back(s.data());
        ptrs.push_back(nullptr);
        argc = static_cast<int>(strings.size());
    }

    std::vector<std::string> strings;
    std::vector<char*> ptrs;
    int argc = 0;

    char** argv() { return ptrs.data(); }
};

/** A small, fast grid used by the determinism tests. */
SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.workloads = {Wk::Spmv, Wk::Msort};
    spec.configs = sweepConfigsFromList("static,delta");
    spec.seeds = {7, 11};
    spec.scales = {0.25};
    spec.baseline = "static";
    return spec;
}

} // namespace

// ---------------------------------------------------------------------
// RunOptions: the shared flag parser.
// ---------------------------------------------------------------------

TEST(RunOptionsTest, DefaultsSelectWholeSuite)
{
    Argv a({"prog"});
    const RunOptions opt = parseCommandLine(a.argc, a.argv());
    EXPECT_EQ(opt.workloads, allWorkloads());
    EXPECT_EQ(RunOptions{}.workloads, allWorkloads());
    EXPECT_DOUBLE_EQ(opt.scale, 1.0);
    EXPECT_EQ(opt.seed, 7u);
    EXPECT_EQ(opt.logLevel, 1);
    EXPECT_TRUE(opt.tracePath.empty());
    EXPECT_TRUE(opt.statsJsonPath.empty());
    EXPECT_TRUE(opt.benchJsonDir.empty());
    EXPECT_EQ(opt.jobs, 0u);
}

TEST(RunOptionsTest, FlagsSetRunOptions)
{
    Argv a({"prog", "--workloads", "spmv,msort", "--scale", "0.5",
            "--seed", "123", "--log", "2", "--stats-json",
            "/tmp/ts_stats.json", "--bench-json", "/tmp/ts_bench"});
    const RunOptions opt = parseCommandLine(a.argc, a.argv());
    setLogVerbosity(1); // --log 2 is process-wide

    EXPECT_EQ(opt.workloads,
              (std::vector<Wk>{Wk::Spmv, Wk::Msort}));
    EXPECT_DOUBLE_EQ(opt.scale, 0.5);
    EXPECT_EQ(opt.seed, 123u);
    EXPECT_EQ(opt.logLevel, 2);
    EXPECT_EQ(opt.statsJsonPath, "/tmp/ts_stats.json");
    EXPECT_EQ(opt.benchJsonDir, "/tmp/ts_bench");
    EXPECT_EQ(a.argc, 1) << "shared flags must be consumed";
}

TEST(RunOptionsTest, BadFlagValueFailsFast)
{
    const auto parse = [](std::vector<std::string> args) {
        args.insert(args.begin(), "prog");
        Argv a(std::move(args));
        return parseCommandLine(a.argc, a.argv());
    };
    EXPECT_THROW(parse({"--scale", "-1"}), FatalError);
    EXPECT_THROW(parse({"--scale", "abc"}), FatalError);

    // strtoull would wrap a sign to 2^64 - N and saturate on
    // overflow; every unsigned value must reject both instead.
    EXPECT_THROW(parse({"--seed", "-1"}), FatalError);
    EXPECT_THROW(parse({"--seed", "18446744073709551616"}),
                 FatalError);
    EXPECT_THROW(parse({"--timeline", "-1"}), FatalError);
    EXPECT_THROW(parse({"--flight-recorder", "-5"}), FatalError);
    EXPECT_THROW(parse({"-j", "4294967296"}), FatalError);
    EXPECT_EQ(parse({"--seed", "18446744073709551615"}).seed,
              18446744073709551615ull);

    EXPECT_THROW(parseSeedList("1,-3"), FatalError);
    EXPECT_THROW(parseCapBytes("-1"), FatalError);
    EXPECT_THROW(parseCapBytes("99999999999G"), FatalError);
    EXPECT_EQ(parseCapBytes("2G"), 2ull << 30);

    RunOptions opt;
    GridSettings grid;
    EXPECT_THROW(applyGridKey("timeline", "-1", opt, grid), FatalError);
    EXPECT_THROW(applyGridKey("jobs", "-2", opt, grid), FatalError);
    EXPECT_EQ(opt.timelineInterval, 0u);
}

TEST(RunOptionsTest, ParseUnsignedRejectsSignAndOverflow)
{
    std::uint64_t v = 42;
    for (const char* bad : {"", "-1", "+1", " 1", "1x", "0x10",
                            "18446744073709551616", "1K"})
        EXPECT_FALSE(parseUnsigned(bad, v)) << "'" << bad << "'";
    EXPECT_EQ(v, 42u) << "a rejected value must not be stored";

    ASSERT_TRUE(parseUnsigned("18446744073709551615", v));
    EXPECT_EQ(v, 18446744073709551615ull);
    ASSERT_TRUE(parseUnsigned("0", v));
    EXPECT_EQ(v, 0u);

    ASSERT_TRUE(parseUnsigned("3k", v, /*allowUnit=*/true));
    EXPECT_EQ(v, 3u << 10);
    ASSERT_TRUE(parseUnsigned("17179869183G", v, true));
    EXPECT_EQ(v, 17179869183ull << 30);
    for (const char* bad : {"17179869184G", "-1K", "1KB", "1T", "K"})
        EXPECT_FALSE(parseUnsigned(bad, v, true)) << "'" << bad << "'";
}

TEST(RunOptionsTest, EnvironmentIsIgnored)
{
    ASSERT_EQ(::setenv("TS_SCALE", "0.5", 1), 0);
    ASSERT_EQ(::setenv("TS_SEED", "123", 1), 0);
    Argv bare({"prog"});
    const RunOptions def = parseCommandLine(bare.argc, bare.argv());
    Argv a({"prog", "--scale", "2.0", "--seed", "9", "--workloads",
            "lu", "-j", "4"});
    const RunOptions opt = parseCommandLine(a.argc, a.argv());
    ::unsetenv("TS_SCALE");
    ::unsetenv("TS_SEED");

    EXPECT_DOUBLE_EQ(def.scale, 1.0);
    EXPECT_EQ(def.seed, 7u);
    EXPECT_DOUBLE_EQ(opt.scale, 2.0);
    EXPECT_EQ(opt.seed, 9u);
    EXPECT_EQ(opt.workloads, (std::vector<Wk>{Wk::Lu}));
    EXPECT_EQ(opt.jobs, 4u);
    EXPECT_EQ(a.argc, 1) << "shared flags must be consumed";
}

TEST(RunOptionsTest, NoFastForwardFlag)
{
    Argv none({"prog"});
    EXPECT_FALSE(parseCommandLine(none.argc, none.argv()).noFastForward);

    Argv a({"prog", "--no-fast-forward"});
    const RunOptions opt = parseCommandLine(a.argc, a.argv());
    EXPECT_TRUE(opt.noFastForward);
    EXPECT_EQ(a.argc, 1) << "the flag must be consumed";

    DeltaConfig cfg;
    EXPECT_FALSE(cfg.noFastForward);
    EXPECT_TRUE(opt.applyTo(cfg).noFastForward);
}

TEST(RunOptionsTest, LenientParserLeavesUnknownArgs)
{
    Argv a({"prog", "--benchmark_filter=fig1", "--seed", "3",
            "positional"});
    const RunOptions opt = parseCommandLine(a.argc, a.argv());
    EXPECT_EQ(opt.seed, 3u);
    ASSERT_EQ(a.argc, 3);
    EXPECT_STREQ(a.argv()[1], "--benchmark_filter=fig1");
    EXPECT_STREQ(a.argv()[2], "positional");
}

TEST(RunOptionsTest, StrictParserRejectsUnknownFlagListingValid)
{
    Argv a({"prog", "--no-such-flag"});
    try {
        parseCommandLine(a.argc, a.argv(), /*strict=*/true);
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("--no-such-flag"), std::string::npos);
        EXPECT_NE(what.find("--workloads"), std::string::npos)
            << "the error must list the valid flags";
    }
}

TEST(RunOptionsTest, UnknownWorkloadFailsListingValid)
{
    Argv a({"prog", "--workloads", "bogus"});
    try {
        parseCommandLine(a.argc, a.argv());
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("bogus"), std::string::npos);
        EXPECT_NE(what.find("spmv"), std::string::npos)
            << "the error must list the valid workloads";
    }
}

TEST(RunOptionsTest, MissingValueFailsFast)
{
    Argv a({"prog", "--scale"});
    EXPECT_THROW(parseCommandLine(a.argc, a.argv()), FatalError);
}

TEST(RunOptionsTest, ApplyToInjectsTraceAndStats)
{
    RunOptions opt;
    opt.tracePath = "/tmp/ts_applyto_trace.json";
    opt.statsJsonPath = "/tmp/ts_applyto_stats.json";

    const DeltaConfig cfg = opt.applyTo(DeltaConfig::delta(4));
    EXPECT_TRUE(cfg.trace.enabled);
    EXPECT_NE(cfg.trace.path.find("ts_applyto_trace"),
              std::string::npos);
    EXPECT_EQ(cfg.statsJsonPath, "/tmp/ts_applyto_stats.json");

    // An explicitly configured tracer wins over the option path.
    DeltaConfig pre = DeltaConfig::delta(4);
    pre.trace.enabled = true;
    pre.trace.path = "explicit.json";
    EXPECT_EQ(opt.applyTo(pre).trace.path, "explicit.json");
}

TEST(RunOptionsTest, TaggedTraceConfigIsDeterministic)
{
    const trace::TracerConfig a =
        traceConfigTagged("sweep.json", "spmv_delta_l8_s7_x1");
    EXPECT_TRUE(a.enabled);
    EXPECT_EQ(a.path, "sweep.spmv_delta_l8_s7_x1.json");
    EXPECT_FALSE(traceConfigTagged("", "t").enabled);
}

// ---------------------------------------------------------------------
// Sweep: config presets and grid expansion.
// ---------------------------------------------------------------------

TEST(SweepConfigTest, UnknownNameFailsListingValid)
{
    try {
        sweepConfig("bogus");
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("bogus"), std::string::npos);
        for (const std::string& name : sweepConfigNames())
            EXPECT_NE(what.find(name), std::string::npos)
                << "the error must list '" << name << "'";
    }
}

TEST(SweepConfigTest, PresetsFormTheAblationLadder)
{
    const ConfigVariant st = sweepConfig("static", 8);
    EXPECT_EQ(st.cfg.policy, SchedPolicy::Static);
    EXPECT_TRUE(st.cfg.bulkSynchronous);

    const ConfigVariant dyn = sweepConfig("dyn", 8);
    EXPECT_EQ(dyn.cfg.policy, SchedPolicy::DynCount);
    EXPECT_FALSE(dyn.cfg.enablePipeline);
    EXPECT_FALSE(dyn.cfg.enableMulticast);

    const ConfigVariant full = sweepConfig("delta", 16);
    EXPECT_EQ(full.cfg.policy, SchedPolicy::WorkAware);
    EXPECT_TRUE(full.cfg.enablePipeline);
    EXPECT_TRUE(full.cfg.enableMulticast);
    EXPECT_EQ(full.cfg.lanes, 16u);

    const ConfigVariant spat = sweepConfig("spatial", 8);
    EXPECT_EQ(spat.cfg.policy, SchedPolicy::Spatial);
    EXPECT_FALSE(spat.cfg.enablePipeline);
    EXPECT_TRUE(spat.cfg.enableMulticast);
    EXPECT_FALSE(spat.cfg.bulkSynchronous);

    const auto defaults = sweepConfigsFromList("");
    ASSERT_EQ(defaults.size(), 2u);
    EXPECT_EQ(defaults[0].name, "static");
    EXPECT_EQ(defaults[1].name, "delta");
}

TEST(SweepTest, GridExpandsInDeterministicOrder)
{
    SweepSpec spec = smallSpec();
    const Sweep sweep(spec);
    const auto& pts = sweep.points();
    // 2 workloads x 1 scale x 2 seeds x 2 configs.
    ASSERT_EQ(pts.size(), 8u);
    EXPECT_EQ(pts[0].tag(), "spmv_static_l8_s7_x0.25");
    EXPECT_EQ(pts[1].tag(), "spmv_delta_l8_s7_x0.25");
    EXPECT_EQ(pts[2].tag(), "spmv_static_l8_s11_x0.25");
    EXPECT_EQ(pts[3].tag(), "spmv_delta_l8_s11_x0.25");
    EXPECT_EQ(pts[4].tag(), "msort_static_l8_s7_x0.25");
}

TEST(SweepTest, EmptyAxisFailsFast)
{
    SweepSpec spec = smallSpec();
    spec.workloads.clear();
    EXPECT_THROW(Sweep{spec}, FatalError);

    spec = smallSpec();
    spec.seeds.clear();
    EXPECT_THROW(Sweep{spec}, FatalError);

    spec = smallSpec();
    spec.baseline = "nonexistent";
    EXPECT_THROW(Sweep{spec}, FatalError);
}

TEST(SweepTest, MissingBenchJsonDirFailsBeforeAnyRun)
{
    // A missing --bench-json directory would silently drop every
    // per-run dump; the engine refuses it up front, naming it.
    SweepSpec spec = smallSpec();
    spec.benchJsonDir = testing::TempDir() + "/no-such-bench-json-dir";
    bool started = false;
    spec.onCellStart = [&](unsigned, const RunPoint&) { started = true; };
    try {
        Sweep(spec).run();
        ADD_FAILURE() << "a missing bench-json directory was accepted";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find(spec.benchJsonDir),
                  std::string::npos)
            << e.what();
    }
    EXPECT_FALSE(started);
}

// ---------------------------------------------------------------------
// Sweep: parallel execution determinism (the core contract).
// ---------------------------------------------------------------------

TEST(SweepTest, ParallelSweepIsBitIdenticalToSerial)
{
    SweepSpec serialSpec = smallSpec();
    serialSpec.jobs = 1;
    SweepReport serial = Sweep(serialSpec).run();

    SweepSpec parallelSpec = smallSpec();
    parallelSpec.jobs = 4;
    SweepReport parallel = Sweep(parallelSpec).run();

    ASSERT_EQ(serial.runs.size(), parallel.runs.size());
    for (std::size_t i = 0; i < serial.runs.size(); ++i) {
        const RunOutcome& a = serial.runs[i];
        const RunOutcome& b = parallel.runs[i];
        EXPECT_EQ(a.point.tag(), b.point.tag());
        EXPECT_TRUE(a.ok()) << a.point.tag() << ": " << a.error;
        EXPECT_TRUE(b.ok()) << b.point.tag() << ": " << b.error;
        EXPECT_EQ(a.cycles, b.cycles) << a.point.tag();

        std::ostringstream ja, jb;
        a.stats.dumpJson(ja, "sim.host.");
        b.stats.dumpJson(jb, "sim.host.");
        EXPECT_EQ(ja.str(), jb.str())
            << a.point.tag()
            << ": per-run StatSets must be bit-identical";
    }

    std::ostringstream ra, rb;
    serial.writeJson(ra);
    parallel.writeJson(rb);
    EXPECT_EQ(ra.str(), rb.str())
        << "aggregate report JSON must be bit-identical";

    // Sanity on the aggregation itself: every cell saw both seeds,
    // and delta beats static on spmv at this scale.
    const auto aggs = serial.aggregates();
    ASSERT_EQ(aggs.size(), 4u);
    for (const CellAggregate& a : aggs) {
        EXPECT_EQ(a.n, 2u);
        EXPECT_GT(a.meanCycles, 0.0);
        EXPECT_GE(a.stddevCycles, 0.0);
    }
    const auto sps = serial.pairedSpeedups();
    ASSERT_EQ(sps.size(), 2u);
    EXPECT_EQ(sps[0].config, "delta");
    EXPECT_EQ(sps[0].n, 2u);
    EXPECT_GT(sps[0].mean, 1.0)
        << "delta must beat static on spmv";
}

TEST(SweepTest, FailedRunSurfacesInReport)
{
    SweepSpec spec;
    spec.workloads = {Wk::Spmv};
    spec.configs = sweepConfigsFromList("static,delta");
    // Starve the delta config so the simulation cannot finish: the
    // failure must surface per-run without sinking the whole sweep.
    for (ConfigVariant& c : spec.configs) {
        if (c.name == "delta")
            c.cfg.maxCycles = 10;
    }
    spec.seeds = {7};
    spec.scales = {0.25};
    spec.jobs = 2;

    SweepReport report = Sweep(spec).run();
    ASSERT_EQ(report.runs.size(), 2u);
    EXPECT_EQ(report.failures(), 1u);

    const RunOutcome* bad = report.find(Wk::Spmv, "delta", 7, 0.25);
    ASSERT_NE(bad, nullptr);
    EXPECT_TRUE(bad->failed);
    EXPECT_FALSE(bad->error.empty());

    const RunOutcome* good = report.find(Wk::Spmv, "static", 7, 0.25);
    ASSERT_NE(good, nullptr);
    EXPECT_TRUE(good->ok())
        << "an isolated failure must not poison other runs";

    std::ostringstream os;
    report.writeJson(os);
    EXPECT_NE(os.str().find("\"failed\": true"), std::string::npos);
    EXPECT_NE(os.str().find("\"error\": "), std::string::npos);

    // Failed cells drop out of aggregation instead of skewing it.
    for (const CellAggregate& a : report.aggregates()) {
        if (a.config == "delta")
            EXPECT_EQ(a.n, 0u);
        else
            EXPECT_EQ(a.n, 1u);
    }
    EXPECT_TRUE(report.pairedSpeedups().front().n == 0);
}

TEST(SweepTest, AggregationMathIsExact)
{
    // Synthetic outcomes: verify the cross-seed mean/stddev and the
    // paired speedups without simulating.
    SweepSpec spec;
    spec.workloads = {Wk::Spmv};
    spec.configs = sweepConfigsFromList("static,delta");
    spec.seeds = {1, 2};
    spec.scales = {1.0};
    spec.baseline = "static";

    SweepReport report;
    report.spec = spec;
    const auto add = [&](const char* config, std::uint64_t seed,
                         double cycles) {
        RunOutcome r;
        r.point.workload = Wk::Spmv;
        r.point.config = config;
        r.point.seed = seed;
        r.point.scale = 1.0;
        r.correct = true;
        r.cycles = cycles;
        report.runs.push_back(r);
    };
    add("static", 1, 1000.0);
    add("delta", 1, 500.0);
    add("static", 2, 1200.0);
    add("delta", 2, 400.0);

    const auto aggs = report.aggregates();
    ASSERT_EQ(aggs.size(), 2u);
    EXPECT_DOUBLE_EQ(aggs[0].meanCycles, 1100.0);
    // Sample stddev of {1000, 1200}.
    EXPECT_NEAR(aggs[0].stddevCycles, 141.4213562, 1e-6);
    EXPECT_DOUBLE_EQ(aggs[1].meanCycles, 450.0);

    const auto sps = report.pairedSpeedups();
    ASSERT_EQ(sps.size(), 1u);
    EXPECT_EQ(sps[0].config, "delta");
    EXPECT_EQ(sps[0].n, 2u);
    // Paired per-seed: 1000/500 = 2 and 1200/400 = 3.
    EXPECT_DOUBLE_EQ(sps[0].mean, 2.5);
    EXPECT_NEAR(sps[0].stddev, 0.7071067812, 1e-6);
}

TEST(SweepTest, ParallelForCoversEveryIndexOnce)
{
    constexpr unsigned kWorkers = 8;
    std::vector<std::atomic<int>> hits(257);
    std::vector<std::atomic<unsigned>> worker(hits.size());
    for (std::size_t i = 0; i < hits.size(); ++i) {
        hits[i] = 0;
        worker[i] = 0;
    }
    parallelForWorkers(hits.size(), kWorkers,
                       [&](unsigned w, std::size_t i) {
                           hits[i].fetch_add(1);
                           worker[i] = w;
                       });
    for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
        EXPECT_LT(worker[i].load(), kWorkers) << "index " << i;
    }
}

// ---------------------------------------------------------------------
// Headline tables: delta-report's Markdown rendering of a sweep report.
// ---------------------------------------------------------------------

/** Render @p report the way `delta-report REPORT.json` does. */
std::string
renderTables(const SweepReport& report, bool& allOk)
{
    std::ostringstream json;
    report.writeJson(json);
    analysis::Json doc;
    EXPECT_TRUE(analysis::parseJson(json.str(), doc));
    EXPECT_TRUE(analysis::isSweepReport(doc));
    std::ostringstream md;
    allOk = analysis::printSweepTables(md, doc);
    return md.str();
}

TEST(SweepTest, HeadlineTablesRenderFromReport)
{
    SweepSpec spec = smallSpec();
    spec.seeds = {7};
    spec.jobs = 2;
    const SweepReport report = Sweep(spec).run();
    bool allOk = false;
    const std::string md = renderTables(report, allOk);
    EXPECT_TRUE(allOk);
    EXPECT_NE(md.find("## Scale 0.25"), std::string::npos) << md;
    EXPECT_NE(md.find("### Speedup over `static`"), std::string::npos);
    EXPECT_EQ(md.find("FAIL |"), std::string::npos) << md;

    // Cycle and speedup cells come straight from the report.
    const double st = report.find(Wk::Spmv, "static", 7, 0.25)->cycles;
    const double dy = report.find(Wk::Spmv, "delta", 7, 0.25)->cycles;
    char row[96];
    std::snprintf(row, sizeof(row), "| spmv | %.0f | %.0f |", st, dy);
    EXPECT_NE(md.find(row), std::string::npos) << row << "\n" << md;
    std::snprintf(row, sizeof(row), "| spmv | %.2f× |", st / dy);
    EXPECT_NE(md.find(row), std::string::npos) << row << "\n" << md;

    // One geomean row per table: cycles, speedup, energy.
    std::size_t geomeans = 0;
    for (std::size_t at = md.find("| **geomean"); at != std::string::npos;
         at = md.find("| **geomean", at + 1))
        ++geomeans;
    EXPECT_EQ(geomeans, 3u);

    // A single run's stats dump is not a sweep report.
    analysis::Json run;
    ASSERT_TRUE(analysis::parseJson(
        "{\"workload\": \"spmv\", \"stats\": {}}", run));
    EXPECT_FALSE(analysis::isSweepReport(run));
}

TEST(SweepTest, HeadlineTablesMarkFailedRuns)
{
    SweepSpec spec = smallSpec();
    spec.seeds = {7};
    spec.jobs = 2;
    // Starve msort's delta run: its cells, and the geomeans they
    // feed, render FAIL and the renderer reports the failure.
    for (ConfigVariant& c : spec.configs) {
        if (c.name == "delta")
            c.cfg.maxCycles = 2000;
    }
    const SweepReport report = Sweep(spec).run();
    ASSERT_TRUE(report.find(Wk::Spmv, "delta", 7, 0.25)->ok());
    ASSERT_FALSE(report.find(Wk::Msort, "delta", 7, 0.25)->ok());

    bool allOk = true;
    const std::string md = renderTables(report, allOk);
    EXPECT_FALSE(allOk);
    EXPECT_EQ(md.find("| spmv | FAIL"), std::string::npos) << md;
    EXPECT_NE(md.find("| msort | FAIL |\n"), std::string::npos) << md;
    EXPECT_NE(md.find("| **geomean** | FAIL |\n"), std::string::npos)
        << md;
}

// ---------------------------------------------------------------------
// Canonical-config completeness: the run cache is only sound if every
// behaviour-relevant DeltaConfig field lands in canonicalConfig().
// Perturb each field one at a time and insist the canonical string
// moves; anyone adding a field without extending canonicalConfig()
// (and this list) trips the check the moment the field matters.
// ---------------------------------------------------------------------

namespace
{

template <typename Fn>
::testing::AssertionResult
canonicalChangesWhen(const char* field, Fn mutate)
{
    const std::string base = canonicalConfig(DeltaConfig{});
    DeltaConfig cfg;
    mutate(cfg);
    if (canonicalConfig(cfg) != base)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "perturbing DeltaConfig::" << field
           << " left canonicalConfig() unchanged — stale cache hits "
              "would alias distinct runs";
}

} // namespace

#define TS_EXPECT_CANONICAL(field, expr)                                \
    EXPECT_TRUE(canonicalChangesWhen(                                   \
        #field, [](DeltaConfig& c) { expr; }))

TEST(CanonicalConfigTest, EveryBehaviourFieldParticipates)
{
    TS_EXPECT_CANONICAL(lanes, c.lanes = 3);
    TS_EXPECT_CANONICAL(policy, c.policy = SchedPolicy::Static);
    TS_EXPECT_CANONICAL(steal, c.steal = StealPolicy::StealHalf);
    TS_EXPECT_CANONICAL(enablePipeline, c.enablePipeline = false);
    TS_EXPECT_CANONICAL(enableMulticast, c.enableMulticast = false);
    TS_EXPECT_CANONICAL(bulkSynchronous, c.bulkSynchronous = true);
    TS_EXPECT_CANONICAL(laneQueueCap, c.laneQueueCap = 9);
    TS_EXPECT_CANONICAL(lane.numReadEngines,
                        c.lane.numReadEngines = 7);
    TS_EXPECT_CANONICAL(lane.numWriteEngines,
                        c.lane.numWriteEngines = 7);
    TS_EXPECT_CANONICAL(lane.maxOutstandingLines,
                        c.lane.maxOutstandingLines = 99);
    TS_EXPECT_CANONICAL(lane.fabric.geom.rows,
                        c.lane.fabric.geom.rows = 9);
    TS_EXPECT_CANONICAL(lane.fabric.geom.cols,
                        c.lane.fabric.geom.cols = 9);
    TS_EXPECT_CANONICAL(lane.fabric.geom.linkMultiplicity,
                        c.lane.fabric.geom.linkMultiplicity = 9);
    TS_EXPECT_CANONICAL(lane.fabric.portFifoDepth,
                        c.lane.fabric.portFifoDepth = 99);
    TS_EXPECT_CANONICAL(lane.fabric.operandFifoDepth,
                        c.lane.fabric.operandFifoDepth = 99);
    TS_EXPECT_CANONICAL(lane.fabric.configBaseCycles,
                        c.lane.fabric.configBaseCycles = 999);
    TS_EXPECT_CANONICAL(lane.fabric.configPerNodeCycles,
                        c.lane.fabric.configPerNodeCycles = 999);
    TS_EXPECT_CANONICAL(lane.spm.sizeWords,
                        c.lane.spm.sizeWords = 12345);
    TS_EXPECT_CANONICAL(lane.spm.portsPerCycle,
                        c.lane.spm.portsPerCycle = 9);
    TS_EXPECT_CANONICAL(lane.read.deliverWidth,
                        c.lane.read.deliverWidth = 9);
    TS_EXPECT_CANONICAL(lane.read.genPerCycle,
                        c.lane.read.genPerCycle = 9);
    TS_EXPECT_CANONICAL(lane.read.fetcher.maxOutstanding,
                        c.lane.read.fetcher.maxOutstanding = 99);
    TS_EXPECT_CANONICAL(lane.read.fetcher.maxWindow,
                        c.lane.read.fetcher.maxWindow = 99);
    TS_EXPECT_CANONICAL(lane.read.fetcher.issuesPerCycle,
                        c.lane.read.fetcher.issuesPerCycle = 9);
    TS_EXPECT_CANONICAL(lane.write.width, c.lane.write.width = 9);
    TS_EXPECT_CANONICAL(lane.write.writeQueueDepth,
                        c.lane.write.writeQueueDepth = 99);
    TS_EXPECT_CANONICAL(mem.numBanks, c.mem.numBanks = 3);
    TS_EXPECT_CANONICAL(mem.serviceLatency, c.mem.serviceLatency = 99);
    TS_EXPECT_CANONICAL(mem.bankOccupancy, c.mem.bankOccupancy = 99);
    TS_EXPECT_CANONICAL(mem.issueWidth, c.mem.issueWidth = 9);
    TS_EXPECT_CANONICAL(mem.queueCapacity, c.mem.queueCapacity = 99);
    TS_EXPECT_CANONICAL(nocLinks.channelCapacity,
                        c.nocLinks.channelCapacity = 99);
    TS_EXPECT_CANONICAL(nocLinks.linkWords, c.nocLinks.linkWords = 9);
    TS_EXPECT_CANONICAL(spatialBufferWords,
                        c.spatialBufferWords = 4096);
    TS_EXPECT_CANONICAL(spatialRemapFactor,
                        c.spatialRemapFactor = 2.25);
    TS_EXPECT_CANONICAL(maxCycles, c.maxCycles = 1234);
    TS_EXPECT_CANONICAL(noFastForward, c.noFastForward = true);
    TS_EXPECT_CANONICAL(timelineInterval, c.timelineInterval = 100);
    TS_EXPECT_CANONICAL(timelineMaxSamples,
                        c.timelineMaxSamples = 9);
    TS_EXPECT_CANONICAL(timelineSeries, c.timelineSeries = "lanes");
}

TEST(CanonicalConfigTest, ResultsNeutralFieldsAreExcluded)
{
    const std::string base = canonicalConfig(DeltaConfig{});

    // Bit-identity across these is CI-gated, which is exactly what
    // lets a cached result answer for any value of them.
    DeltaConfig prof;
    prof.hostProfile = true;
    EXPECT_EQ(canonicalConfig(prof), base);

    DeltaConfig rec;
    rec.flightRecorder = 1024;
    EXPECT_EQ(canonicalConfig(rec), base);
}
