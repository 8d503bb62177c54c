/**
 * @file
 * Snapshot/fork tests (DESIGN.md §7).  Delta::restore() rebuilds the
 * accelerator from its config, so a Delta snapshotted at its pristine
 * post-construction point and restored before each run must produce
 * byte-identical statistics and functional results to a Delta built
 * from scratch — for every workload, under the static baseline, the
 * full TaskStream config, work stealing and spatial mapping, with the
 * delta.timeline.* series sampled, and across repeated restores of
 * one snapshot.  A restore also restarts the host profile, so a
 * forked run never reports its predecessors' host time.  A snapshot
 * of a Delta that is no longer as constructed is refused, since
 * restoring it would silently return to a different state.
 *
 * Also covers the shortest-round-trip JSON number formatting the
 * cache's byte-replay guarantee leans on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <tuple>

#include "accel/delta.hh"
#include "driver/sweep.hh"
#include "sim/stats.hh"
#include "workloads/workload.hh"

using namespace ts;

namespace
{

struct RunResult
{
    std::string statsJson; ///< full dump minus sim.host.*
    double cycles = 0.0;
    bool correct = false;
};

RunResult
resultOf(Delta& delta, Wk wk)
{
    SuiteParams sp;
    sp.scale = 0.25;
    sp.seed = 7;
    auto wl = makeWorkload(wk, sp);

    TaskGraph graph;
    wl->build(delta, graph);
    const StatSet stats = delta.run(graph);

    RunResult r;
    std::ostringstream os;
    stats.dumpJson(os, "sim.host.");
    r.statsJson = os.str();
    r.cycles = stats.get("sim.cycles");
    r.correct = wl->check(delta.image());
    return r;
}

class SnapshotForkDifferential
    : public ::testing::TestWithParam<std::tuple<Wk, std::string>>
{
};

} // namespace

TEST_P(SnapshotForkDifferential, ForkedRunsBitIdenticalToFresh)
{
    const Wk wk = std::get<0>(GetParam());
    const std::string& preset = std::get<1>(GetParam());
    DeltaConfig cfg = driver::sweepConfig(preset).cfg;
    // The timeline sampler's columns must survive a fork too.
    cfg.timelineInterval = 500;

    RunResult fresh;
    {
        Delta delta(cfg);
        fresh = resultOf(delta, wk);
    }
    ASSERT_TRUE(fresh.correct);
    ASSERT_NE(fresh.statsJson.find("delta.timeline.samples"),
              std::string::npos);

    Delta forked(cfg);
    const auto snap = forked.snapshot();
    for (int rep = 0; rep < 2; ++rep) {
        forked.restore(*snap);
        const RunResult r = resultOf(forked, wk);
        EXPECT_TRUE(r.correct);
        EXPECT_EQ(r.cycles, fresh.cycles) << "rep " << rep;
        EXPECT_EQ(r.statsJson, fresh.statsJson)
            << "forked run " << rep << " diverged for " << wkName(wk)
            << " (" << preset
            << "): some component state escaped the snapshot";
    }
}

namespace
{

std::string
snapName(
    const ::testing::TestParamInfo<std::tuple<Wk, std::string>>& info)
{
    std::string preset = std::get<1>(info.param);
    std::replace(preset.begin(), preset.end(), '-', '_');
    return wkIdent(std::get<0>(info.param)) + "_" + preset;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SnapshotForkDifferential,
    ::testing::Combine(::testing::ValuesIn(allWorkloads()),
                       ::testing::Values("static", "delta",
                                         "work-steal", "spatial")),
    snapName);

TEST(SnapshotHostProfileTest, RestoreRestartsTheProfile)
{
    // The profile buckets time sections inside one run, so they sum
    // to no more than that run's sim.host.wallNs — which restore()
    // rewinds.  Buckets carried over from earlier runs break that.
    DeltaConfig cfg = DeltaConfig::delta();
    cfg.hostProfile = true;
    Delta delta(cfg);
    const auto snap = delta.snapshot();
    for (int rep = 0; rep < 3; ++rep) {
        if (rep > 0)
            delta.restore(*snap);
        SuiteParams sp;
        sp.scale = 0.25;
        sp.seed = 7;
        auto wl = makeWorkload(Wk::Msort, sp);
        TaskGraph graph;
        wl->build(delta, graph);
        const StatSet stats = delta.run(graph);
        ASSERT_TRUE(stats.has("sim.host.profile.tickLaneNs"));
        EXPECT_LE(stats.sumPrefix("sim.host.profile."),
                  stats.get("sim.host.wallNs"))
            << "run " << rep
            << " reports host time spent before its restore";
    }
}

// ---------------------------------------------------------------------
// Snapshot point.
// ---------------------------------------------------------------------

TEST(SnapshotPointTest, SnapshotOfATouchedDeltaIsFatal)
{
    // restore() returns to the as-constructed state, so a snapshot
    // taken later would silently restore to the wrong state.
    SuiteParams sp;
    sp.scale = 0.25;
    sp.seed = 7;
    auto wl = makeWorkload(Wk::Spmv, sp);

    Delta built(DeltaConfig::delta());
    TaskGraph graph;
    wl->build(built, graph);
    EXPECT_THROW(built.snapshot(), FatalError) << "after a build";

    Delta ran(DeltaConfig::delta());
    ASSERT_TRUE(resultOf(ran, Wk::Spmv).correct);
    EXPECT_THROW(ran.snapshot(), FatalError) << "after a run";

    Delta stepped(DeltaConfig::delta());
    stepped.sim().step(3);
    EXPECT_THROW(stepped.snapshot(), FatalError) << "after 3 cycles";
}

// ---------------------------------------------------------------------
// JSON number canonicalization (cache byte-replay groundwork).
// ---------------------------------------------------------------------

TEST(JsonNumberTest, ShortestRoundTrip)
{
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(42.0), "42");
    EXPECT_EQ(jsonNumber(0.1), "0.1");
    EXPECT_EQ(jsonNumber(-3.5), "-3.5");
    // NaN/inf are not JSON numbers; the canonical form is null.
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
}

TEST(JsonNumberTest, DumpParseDumpIsIdempotent)
{
    const double values[] = {0.0,     1.0 / 3.0, 1e-9, 6.02214076e23,
                             12345.0, 0.30000000000000004};
    for (const double v : values) {
        const std::string once = jsonNumber(v);
        char* end = nullptr;
        const double parsed = std::strtod(once.c_str(), &end);
        ASSERT_EQ(*end, '\0') << once;
        EXPECT_EQ(jsonNumber(parsed), once)
            << "formatting must round-trip through parse exactly";
    }
}
