/**
 * @file
 * Workload-suite integration tests: every workload must produce
 * golden-correct results on TaskStream/Delta, on the static-parallel
 * baseline, under the spatial mapper, and on the intermediate
 * policies, at several lane counts.
 */

#include <cstdint>

#include <gtest/gtest.h>

#include "driver/sweep.hh"
#include "workloads/workload.hh"

namespace ts
{
namespace
{

/** Sweep preset a case runs; values match the old delta flag
 *  (static 0, delta 1), so existing case names are unchanged. */
enum class Preset : std::int32_t
{
    Static,
    Delta,
    Spatial,
};

const char*
presetName(Preset p)
{
    switch (p) {
      case Preset::Static:
        return "static";
      case Preset::Delta:
        return "delta";
      case Preset::Spatial:
        return "spatial";
    }
    return "?";
}

/** Two 4-byte fields and no padding: gtest prints the param beside
 *  every test name as a raw byte dump, which is then deterministic. */
struct Case
{
    Wk wk;
    Preset preset;
};
static_assert(sizeof(Case) == 2 * sizeof(std::int32_t));

class WorkloadCorrectness
    : public ::testing::TestWithParam<Case>
{};

TEST_P(WorkloadCorrectness, GoldenMatch)
{
    const Case c = GetParam();
    SuiteParams sp;
    sp.scale = 0.5;
    auto wl = makeWorkload(c.wk, sp);

    Delta delta(driver::sweepConfig(presetName(c.preset)).cfg);
    TaskGraph graph;
    wl->build(delta, graph);
    const StatSet stats = delta.run(graph);

    EXPECT_TRUE(wl->check(delta.image())) << wl->name();
    EXPECT_GT(stats.get("delta.cycles"), 0);
    // Dynamic-spawn workloads grow the task set beyond what the host
    // submitted; completed must equal submitted plus spawned.
    EXPECT_EQ(stats.get("dispatcher.tasksCompleted"),
              static_cast<double>(graph.numTasks()) +
                  stats.get("dispatcher.tasksSpawned"));
}

std::string
caseName(const ::testing::TestParamInfo<Case>& info)
{
    return wkIdent(info.param.wk) + "_" + presetName(info.param.preset);
}

std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    for (const Wk w : allWorkloads()) {
        for (const Preset p :
             {Preset::Delta, Preset::Static, Preset::Spatial})
            cases.push_back({w, p});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Suite, WorkloadCorrectness,
                         ::testing::ValuesIn(allCases()), caseName);

/** Lane-count sweep: correctness must hold at any width. */
class WorkloadLanes : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(WorkloadLanes, SpmvAndMsortCorrectAtAnyWidth)
{
    const std::uint32_t lanes = GetParam();
    for (const Wk w : {Wk::Spmv, Wk::Msort, Wk::Tricount}) {
        SuiteParams sp;
        sp.scale = 0.25;
        auto wl = makeWorkload(w, sp);
        Delta delta(DeltaConfig::delta(lanes));
        TaskGraph graph;
        wl->build(delta, graph);
        delta.run(graph);
        EXPECT_TRUE(wl->check(delta.image()))
            << wl->name() << " lanes=" << lanes;
    }
}

INSTANTIATE_TEST_SUITE_P(Lanes, WorkloadLanes,
                         ::testing::Values(1, 2, 3, 4, 8, 12, 16));

} // namespace
} // namespace ts
