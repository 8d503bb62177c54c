/**
 * @file
 * NoC work-stealing tests (DESIGN.md §9): the steal protocol must be
 * a pure re-placement mechanism — it changes which lane runs a task,
 * never what the run computes — and it must be bit-identical across
 * every execution mode the simulator supports.
 *
 * For each steal policy on skewed workloads this byte-compares the
 * full stats dump (minus sim.host.*) between the reference run and:
 *   - naive per-cycle ticking (--no-fast-forward),
 *   - snapshot/fork warm-started runs (twice from one snapshot).
 * Any divergence means steal protocol state escaped a Snap or a probe
 * slept through a cycle it needed.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "accel/delta.hh"
#include "driver/sweep.hh"
#include "workloads/workload.hh"

using namespace ts;

namespace
{

struct RunResult
{
    std::string statsJson; ///< full dump minus sim.host.*
    double cycles = 0.0;
    bool correct = false;
    double stealRequests = 0.0;
    double tasksStolen = 0.0;
};

DeltaConfig
stealConfig(StealPolicy steal)
{
    DeltaConfig cfg = DeltaConfig::delta();
    cfg.steal = steal;
    return cfg;
}

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
    r.stealRequests = stats.getOr("delta.attrib.steal.requests", 0.0);
    r.tasksStolen =
        stats.get("dispatcher.attrib.steal.tasksStolen");
    return r;
}

RunResult
runOnce(Wk wk, StealPolicy steal, bool noFastForward)
{
    DeltaConfig cfg = stealConfig(steal);
    cfg.noFastForward = noFastForward;
    Delta delta(cfg);
    return resultOf(delta, wk);
}

class StealDifferential
    : public ::testing::TestWithParam<std::tuple<Wk, StealPolicy>>
{
};

std::string
stealName(
    const ::testing::TestParamInfo<std::tuple<Wk, StealPolicy>>& info)
{
    std::string name = wkIdent(std::get<0>(info.param));
    switch (std::get<1>(info.param)) {
      case StealPolicy::None: name += "_none"; break;
      case StealPolicy::StealOne: name += "_one"; break;
      case StealPolicy::StealHalf: name += "_half"; break;
    }
    return name;
}

} // namespace

TEST_P(StealDifferential, BitIdenticalAcrossExecutionModes)
{
    const Wk wk = std::get<0>(GetParam());
    const StealPolicy steal = std::get<1>(GetParam());

    const RunResult one = runOnce(wk, steal, false);
    ASSERT_TRUE(one.correct);
    if (steal != StealPolicy::None) {
        EXPECT_GT(one.stealRequests, 0.0)
            << "idle lanes never probed: the steal machine is inert";
    }

    const RunResult naive = runOnce(wk, steal, true);
    EXPECT_TRUE(naive.correct);
    EXPECT_EQ(naive.statsJson, one.statsJson)
        << "activity-driven and naive steal runs diverged for "
        << wkName(wk)
        << ": a probe or grant slept through a non-no-op cycle";
}

TEST_P(StealDifferential, ForkedRunsBitIdenticalToFresh)
{
    const Wk wk = std::get<0>(GetParam());
    const StealPolicy steal = std::get<1>(GetParam());

    RunResult fresh;
    {
        Delta delta(stealConfig(steal));
        fresh = resultOf(delta, wk);
    }
    ASSERT_TRUE(fresh.correct);

    Delta forked(stealConfig(steal));
    const auto snap = forked.snapshot();
    for (int rep = 0; rep < 2; ++rep) {
        forked.restore(*snap);
        const RunResult r = resultOf(forked, wk);
        EXPECT_TRUE(r.correct);
        EXPECT_EQ(r.statsJson, fresh.statsJson)
            << "forked steal run " << rep << " diverged for "
            << wkName(wk)
            << ": steal protocol state escaped the snapshot";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Skewed, StealDifferential,
    ::testing::Combine(::testing::Values(Wk::Tricount, Wk::Join,
                                         Wk::MsortDyn),
                       ::testing::Values(StealPolicy::None,
                                         StealPolicy::StealOne,
                                         StealPolicy::StealHalf)),
    stealName);

// ---------------------------------------------------------------------
// Policy accounting and cache-key coverage.
// ---------------------------------------------------------------------

TEST(Steal, StealingActuallyMovesTasksOnSkewedWork)
{
    const RunResult r =
        runOnce(Wk::Tricount, StealPolicy::StealHalf, false);
    ASSERT_TRUE(r.correct);
    EXPECT_GT(r.tasksStolen, 0.0)
        << "steal-half on tricount should relocate at least one task";
}

TEST(Steal, PolicyChangesTheCanonicalConfig)
{
    const std::string none =
        driver::canonicalConfig(stealConfig(StealPolicy::None));
    const std::string one =
        driver::canonicalConfig(stealConfig(StealPolicy::StealOne));
    const std::string half =
        driver::canonicalConfig(stealConfig(StealPolicy::StealHalf));
    EXPECT_NE(none, one);
    EXPECT_NE(none, half);
    EXPECT_NE(one, half);
}

TEST(Steal, PolicyNamesRoundTrip)
{
    for (const StealPolicy p :
         {StealPolicy::None, StealPolicy::StealOne,
          StealPolicy::StealHalf}) {
        StealPolicy back = StealPolicy::None;
        ASSERT_TRUE(stealPolicyFromName(stealPolicyName(p), back));
        EXPECT_EQ(back, p);
    }
    StealPolicy out = StealPolicy::None;
    EXPECT_FALSE(stealPolicyFromName("bogus", out));
}
