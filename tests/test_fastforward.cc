/**
 * @file
 * Differential tests for the activity-driven simulation core: every
 * workload, under both the TaskStream config and the static-parallel
 * baseline, must produce byte-identical statistics with and without
 * fast-forwarding (the `sim.host.*` wall-clock counters excluded).
 *
 * This is the enforcement arm of the bit-identity contract in
 * src/sim/simulator.hh: sleeping is only legal when the skipped ticks
 * are provably no-ops, so the naive reference mode (tick every
 * component every cycle) and the activity-driven mode must agree on
 * every architectural statistic, cycle count, and functional result
 * — also for a channel push made between step() calls.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "accel/delta.hh"
#include "noc/noc.hh"
#include "workloads/workload.hh"

using namespace ts;

namespace
{

struct RunResult
{
    std::string statsJson; ///< full dump minus sim.host.*
    double cycles = 0.0;
    std::uint64_t ticks = 0;
    bool correct = false;
};

RunResult
runOnce(Wk wk, bool staticConfig, bool noFastForward,
        Tick timelineInterval = 0)
{
    DeltaConfig cfg = staticConfig ? DeltaConfig::staticBaseline()
                                   : DeltaConfig::delta();
    cfg.noFastForward = noFastForward;
    cfg.timelineInterval = timelineInterval;

    SuiteParams sp;
    sp.scale = 0.25;
    sp.seed = 7;
    auto wl = makeWorkload(wk, sp);

    Delta delta(cfg);
    TaskGraph graph;
    wl->build(delta, graph);
    const StatSet stats = delta.run(graph);

    RunResult r;
    std::ostringstream os;
    stats.dumpJson(os, "sim.host.");
    r.statsJson = os.str();
    r.cycles = stats.get("sim.cycles");
    r.ticks =
        static_cast<std::uint64_t>(stats.get("sim.host.ticksExecuted"));
    r.correct = wl->check(delta.image());
    return r;
}

class FastForwardDifferential
    : public ::testing::TestWithParam<std::tuple<Wk, bool>>
{
};

TEST_P(FastForwardDifferential, BitIdenticalToNaiveTicking)
{
    const Wk wk = std::get<0>(GetParam());
    const bool staticConfig = std::get<1>(GetParam());

    const RunResult fast = runOnce(wk, staticConfig, false);
    const RunResult naive = runOnce(wk, staticConfig, true);

    EXPECT_TRUE(fast.correct);
    EXPECT_TRUE(naive.correct);
    EXPECT_EQ(fast.cycles, naive.cycles);
    EXPECT_EQ(fast.statsJson, naive.statsJson)
        << "activity-driven and naive runs diverged for "
        << wkName(wk) << " (" << (staticConfig ? "static" : "delta")
        << "): a component slept through a cycle that was not a "
           "no-op, or a wake source is missing";
    EXPECT_LT(fast.ticks, naive.ticks)
        << "the activity-driven core should actually skip ticks";
}

std::string
diffName(const ::testing::TestParamInfo<std::tuple<Wk, bool>>& info)
{
    return wkIdent(std::get<0>(info.param)) +
           (std::get<1>(info.param) ? "_static" : "_delta");
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, FastForwardDifferential,
    ::testing::Combine(::testing::ValuesIn(allWorkloads()),
                       ::testing::Bool()),
    diffName);

/**
 * The same contract with timeline sampling enabled: the sampler's
 * weak events must neither perturb the simulation (the skipped-ticks
 * proof still holds around catchUpAll) nor themselves observe
 * different values in the two execution modes.  The timeline columns
 * are part of the byte-compared dump, so any divergence shows up as
 * a stats mismatch.
 */
class TimelineDifferential
    : public ::testing::TestWithParam<std::tuple<Wk, bool>>
{
};

TEST_P(TimelineDifferential, SampledRunsBitIdenticalToNaiveTicking)
{
    const Wk wk = std::get<0>(GetParam());
    const bool staticConfig = std::get<1>(GetParam());

    const RunResult fast = runOnce(wk, staticConfig, false, 300);
    const RunResult naive = runOnce(wk, staticConfig, true, 300);

    EXPECT_TRUE(fast.correct);
    EXPECT_TRUE(naive.correct);
    EXPECT_NE(fast.statsJson.find("delta.timeline.samples"),
              std::string::npos)
        << "the sampled run must emit timeline columns";
    EXPECT_EQ(fast.statsJson, naive.statsJson)
        << "timeline columns diverged between activity-driven and "
           "naive runs for "
        << wkName(wk) << " (" << (staticConfig ? "static" : "delta")
        << "): a sampler fired at a different simulated time or "
           "observed un-caught-up counters";
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, TimelineDifferential,
    ::testing::Combine(::testing::ValuesIn(allWorkloads()),
                       ::testing::Bool()),
    diffName);

/**
 * A packet injected between step() calls, while every router sleeps,
 * is a channel push made outside any tick.  @return the cycle its
 * destination first sees it when stepping one cycle at a time (0 if
 * it never arrives), with @p totalDelivered the NoC's delivery count
 * after one long step in a second, identical setup.
 */
Tick
outsideTickDelivery(bool fastForward, std::uint64_t& totalDelivered)
{
    const auto injectIdle = [&](Simulator& sim, Noc& noc) {
        sim.setFastForward(fastForward);
        sim.step(10); // nothing to route: every router sleeps
        Packet pkt;
        pkt.src = 0;
        pkt.dstMask = Packet::unicast(3);
        EXPECT_TRUE(noc.inject(std::move(pkt)));
    };

    Simulator longSim;
    Noc longNoc(longSim, NocConfig{2, 2, 4, 2});
    injectIdle(longSim, longNoc);
    longSim.step(100);
    totalDelivered = longNoc.delivered();

    Simulator sim;
    Noc noc(sim, NocConfig{2, 2, 4, 2});
    injectIdle(sim, noc);
    for (int i = 0; i < 100; ++i) {
        sim.step(1);
        if (!noc.eject(3).empty())
            return sim.now();
    }
    return 0;
}

TEST(FastForwardOutsideTick, InjectedPacketIsCommittedLikeNaive)
{
    std::uint64_t naiveDelivered = 0, fastDelivered = 0;
    const Tick naive = outsideTickDelivery(false, naiveDelivered);
    const Tick fast = outsideTickDelivery(true, fastDelivered);
    ASSERT_GT(naive, 0u) << "the naive reference must deliver";
    EXPECT_EQ(fast, naive)
        << "idle fast-forward skipped the commit of a push made "
           "outside a tick";
    EXPECT_EQ(naiveDelivered, 1u);
    EXPECT_EQ(fastDelivered, naiveDelivered);
}

} // namespace
