/**
 * @file
 * Ahead-of-time spatial mapping tests: the forwarding-eligibility
 * vocabulary shared by the mapper and the runtime, the lane-side
 * landing tracker, mapper determinism, and end-to-end behaviour of
 * SchedPolicy::Spatial — every workload stays golden-correct, the
 * pipeline-shaped ones actually save DRAM lines, repeated runs are
 * deterministic, and an undersized landing budget degrades to counted
 * spills instead of wrong answers.  A pinned task waiting for its
 * busy lane must not hold back ready tasks pinned to other lanes.
 */

#include <gtest/gtest.h>

#include "accel/delta.hh"
#include "noc/noc.hh"
#include "spatial/mapper.hh"
#include "spatial/spatial.hh"
#include "task/dispatcher.hh"
#include "workloads/workload.hh"

namespace ts
{
namespace
{

// --- forwarding-eligibility vocabulary ------------------------------------

TEST(SpatialVocab, LandingEligibleInput)
{
    const StreamDesc ok = StreamDesc::linear(Space::Dram, 64, 32);
    EXPECT_TRUE(spatial::landingEligibleInput(ok));

    StreamDesc spm = ok;
    spm.dataSpace = Space::Spm;
    EXPECT_FALSE(spatial::landingEligibleInput(spm));

    StreamDesc strided = ok;
    strided.strideWords = 2;
    EXPECT_FALSE(spatial::landingEligibleInput(strided));

    StreamDesc looped = ok;
    looped.loops = 2;
    EXPECT_FALSE(spatial::landingEligibleInput(looped));

    StreamDesc empty = ok;
    empty.count = 0;
    EXPECT_FALSE(spatial::landingEligibleInput(empty));

    EXPECT_FALSE(spatial::landingEligibleInput(
        StreamDesc::csr(Space::Dram, 64, 4, 512)));
}

TEST(SpatialVocab, ForwardableOutput)
{
    WriteDesc ok;
    ok.base = 4096;
    EXPECT_TRUE(spatial::forwardableOutput(ok));

    WriteDesc spm = ok;
    spm.space = Space::Spm;
    EXPECT_FALSE(spatial::forwardableOutput(spm));

    WriteDesc strided = ok;
    strided.strideWords = 4;
    EXPECT_FALSE(spatial::forwardableOutput(strided));

    // An output already claimed by pipeline forwarding keeps its
    // pipe; spatial forwarding must not double-claim it.
    WriteDesc piped = ok;
    piped.pipeDstMask = 0b10;
    EXPECT_FALSE(spatial::forwardableOutput(piped));
}

TEST(SpatialVocab, OutputFeedsInputByBaseContainment)
{
    const StreamDesc in = StreamDesc::linear(Space::Dram, 1024, 16);
    WriteDesc w;
    w.base = 1024;
    EXPECT_TRUE(spatial::outputFeedsInput(w, in));
    w.base = 1024 + 15 * wordBytes;
    EXPECT_TRUE(spatial::outputFeedsInput(w, in));
    w.base = 1024 + 16 * wordBytes;
    EXPECT_FALSE(spatial::outputFeedsInput(w, in));
    w.base = 0;
    EXPECT_FALSE(spatial::outputFeedsInput(w, in));
}

TEST(SpatialVocab, LandingBufWordsRoundsToLines)
{
    EXPECT_EQ(spatial::landingBufWords(
                  StreamDesc::linear(Space::Dram, 0, 1)),
              std::uint64_t{lineWords});
    EXPECT_EQ(spatial::landingBufWords(
                  StreamDesc::linear(Space::Dram, 0, lineWords)),
              std::uint64_t{lineWords});
    EXPECT_EQ(spatial::landingBufWords(
                  StreamDesc::linear(Space::Dram, 0, lineWords + 1)),
              std::uint64_t{2 * lineWords});
}

TEST(SpatialVocab, LandingGroupPacksUidAndPort)
{
    EXPECT_EQ(spatial::landingGroup(0, 0), 0u);
    EXPECT_EQ(spatial::landingGroup(5, 3),
              (std::uint64_t{5} << 3) | 3);
    // Distinct ports of the same consumer are distinct groups.
    EXPECT_NE(spatial::landingGroup(7, 0), spatial::landingGroup(7, 1));
}

// --- landing tracker ------------------------------------------------------

TEST(SpatialTracker, GatesOnDoneMarkersAndTracksPeak)
{
    spatial::LandingTracker t;
    const std::uint64_t g = spatial::landingGroup(3, 1);

    // Two producers forward into the group; the consumer may not
    // start until both done markers arrived.
    EXPECT_TRUE(t.complete(g, 0));
    EXPECT_FALSE(t.complete(g, 2));
    t.deliver(g, 16, false);
    t.deliver(g, 16, true);
    EXPECT_FALSE(t.complete(g, 2));
    t.deliver(g, 8, true);
    EXPECT_TRUE(t.complete(g, 2));

    EXPECT_EQ(t.chunksReceived(), 3u);
    EXPECT_EQ(t.wordsReceived(), 40u);

    // Unknown groups are simply incomplete, and release is
    // idempotent on them.
    EXPECT_FALSE(t.complete(spatial::landingGroup(9, 0), 1));
    t.release(g);
    t.release(g);
    EXPECT_FALSE(t.complete(g, 2));
}

// --- mapper ---------------------------------------------------------------

struct MapperFixture
{
    Simulator sim;
    Noc noc;
    TaskTypeRegistry reg;
    MemImage img;
    TaskGraph graph;
    std::vector<std::uint32_t> laneNodes;

    MapperFixture() : noc(sim, NocConfig{4, 4, 4, 2}), reg(FabricGeometry{})
    {
        for (std::uint32_t i = 0; i < 8; ++i)
            laneNodes.push_back(1 + i);
    }

    spatial::SpatialPlan
    map()
    {
        return spatial::mapTaskGraph(graph, img, reg, noc, laneNodes,
                                     2);
    }
};

TaskTypeId
addAddType(TaskTypeRegistry& reg, const std::string& name)
{
    auto dfg = std::make_unique<Dfg>(name);
    const auto x = dfg->addInput();
    const auto a =
        dfg->add(Op::Add, Operand::ref(x), Operand::immI(1));
    dfg->addOutput(a);
    return reg.addDfgType(name, std::move(dfg));
}

TEST(SpatialMapper, ProducerConsumerChainsColocateDeterministically)
{
    MapperFixture f;
    const auto ty = addAddType(f.reg, "scale");

    // Four independent producer->consumer chains through DRAM
    // staging buffers: each pair should land on one lane, and the
    // pairs should spread across lanes.
    std::vector<TaskId> producers, consumers;
    for (int c = 0; c < 4; ++c) {
        const Addr in = 0x1000 + c * 0x1000;
        const Addr mid = 0x10000 + c * 0x1000;
        WriteDesc toMid;
        toMid.base = mid;
        const auto p = f.graph.addTask(
            ty, {StreamDesc::linear(Space::Dram, in, 64)}, {toMid});
        WriteDesc out;
        out.base = 0x20000 + c * 0x1000;
        const auto q = f.graph.addTask(
            ty, {StreamDesc::linear(Space::Dram, mid, 64)}, {out});
        f.graph.addBarrier(p, q);
        producers.push_back(p);
        consumers.push_back(q);
    }

    const spatial::SpatialPlan plan = f.map();
    ASSERT_EQ(plan.lane.size(), f.graph.numTasks());
    EXPECT_EQ(plan.forwardableEdges, 4u);
    EXPECT_EQ(plan.forwardableWords, 4u * 64u);
    EXPECT_GT(plan.candidatesTried, 0u);

    for (std::size_t c = 0; c < producers.size(); ++c) {
        ASSERT_GE(plan.lane[producers[c]], 0);
        ASSERT_LT(plan.lane[producers[c]], 8);
        EXPECT_EQ(plan.lane[producers[c]], plan.lane[consumers[c]])
            << "chain " << c << " split across lanes";
    }

    // Same inputs, same plan — the bit-identity guarantees hang off
    // this.
    const spatial::SpatialPlan again = f.map();
    EXPECT_EQ(again.lane, plan.lane);
    EXPECT_EQ(again.predictedMakespan, plan.predictedMakespan);
    EXPECT_EQ(again.predictedCritPath, plan.predictedCritPath);
    EXPECT_EQ(again.balanceWeight, plan.balanceWeight);
}

TEST(SpatialMapper, IndependentTasksSpreadAcrossLanes)
{
    MapperFixture f;
    const auto ty = addAddType(f.reg, "scale");
    for (int i = 0; i < 8; ++i) {
        WriteDesc out;
        out.base = 0x20000 + i * 0x1000;
        f.graph.addTask(
            ty,
            {StreamDesc::linear(Space::Dram, 0x1000 + i * 0x1000, 64)},
            {out});
    }
    const spatial::SpatialPlan plan = f.map();
    std::set<std::int32_t> used(plan.lane.begin(), plan.lane.end());
    // Equal independent tasks must not pile up: at least half the
    // lanes participate (the balance term guarantees it).
    EXPECT_GE(used.size(), 4u);
}

// --- pinned dispatch: no head-of-line blocking ---------------------------
//
// A bare dispatcher on a 2x2 mesh (dispatcher node 0, lanes on nodes
// 1 and 2, memory on 3) with a hand-set plan.  Nothing executes the
// tasks: the test reads the dispatch packets off the lane nodes and
// sends completions itself, so "before any lane-0 task completes" is
// exact.

struct PinnedFixture
{
    static constexpr std::uint32_t kDispNode = 0;
    static constexpr std::uint32_t kMemNode = 3;

    Simulator sim;
    Noc noc;
    TaskTypeRegistry reg;
    MemImage img;
    std::vector<std::uint32_t> laneNodes{1, 2};
    std::unique_ptr<Dispatcher> disp;

    PinnedFixture() : noc(sim, NocConfig{2, 2, 4, 2}), reg(FabricGeometry{})
    {
        DispatcherConfig cfg;
        cfg.policy = SchedPolicy::Spatial;
        cfg.enablePipeline = false;
        cfg.laneQueueCap = 2;
        cfg.selfNode = kDispNode;
        cfg.memNode = kMemNode;
        cfg.laneNodes = laneNodes;
        disp = std::make_unique<Dispatcher>(
            noc, img, reg, cfg,
            SpatialPolicy(laneNodes, DeltaConfig{}.spatialBufferWords,
                          DeltaConfig{}.spatialRemapFactor));
        sim.add(disp.get());
    }

    /** uids dispatched to @p lane since the last call, in arrival
     *  order. */
    std::vector<TaskId>
    dispatchedTo(std::uint32_t lane)
    {
        std::vector<TaskId> uids;
        auto& ej = noc.eject(laneNodes[lane]);
        while (!ej.empty()) {
            const Packet pkt = ej.pop();
            EXPECT_EQ(pkt.kind, PktKind::TaskDispatch);
            uids.push_back(std::any_cast<DispatchMsg>(pkt.payload).uid);
        }
        return uids;
    }

    void
    complete(TaskId uid, std::uint32_t lane)
    {
        Packet pkt;
        pkt.src = laneNodes[lane];
        pkt.dstMask = Packet::unicast(kDispNode);
        pkt.kind = PktKind::TaskComplete;
        pkt.sizeWords = 1;
        pkt.payload = CompleteMsg{uid, lane};
        ASSERT_TRUE(noc.inject(std::move(pkt)));
    }
};

TEST(SpatialPinnedDispatch, BusyLaneDoesNotBlockOtherLanes)
{
    PinnedFixture f;
    const auto ty = addAddType(f.reg, "scale");
    TaskGraph graph;
    for (int i = 0; i < 4; ++i) {
        WriteDesc out;
        out.base = 0x20000 + i * 0x1000;
        graph.addTask(
            ty,
            {StreamDesc::linear(Space::Dram, 0x1000 + i * 0x1000, 64)},
            {out});
    }
    // Three independent ready tasks pinned to lane 0, one to lane 1;
    // lane 0 takes two (laneQueueCap), so task 2 must wait.
    f.disp->setSpatialPlan({0, 0, 0, 1});
    f.disp->loadGraph(graph);

    f.sim.step(200);
    // The lane-1 task is behind a blocked lane-0 task in ready order,
    // yet dispatches before any lane-0 task completes.
    EXPECT_EQ(f.dispatchedTo(1), (std::vector<TaskId>{3}));
    EXPECT_EQ(f.dispatchedTo(0), (std::vector<TaskId>{0, 1}));

    // A lane-0 slot frees: the oldest waiting lane-0 task follows.
    f.complete(0, 0);
    f.sim.step(200);
    EXPECT_EQ(f.dispatchedTo(0), (std::vector<TaskId>{2}));
    EXPECT_TRUE(f.dispatchedTo(1).empty());
}

// --- end-to-end: SchedPolicy::Spatial -------------------------------------

StatSet
runSpatial(Wk wk, DeltaConfig cfg, bool* correct = nullptr)
{
    SuiteParams sp;
    sp.scale = 0.25;
    auto wl = makeWorkload(wk, sp);
    Delta delta(cfg);
    TaskGraph graph;
    wl->build(delta, graph);
    StatSet stats = delta.run(graph);
    if (correct != nullptr)
        *correct = wl->check(delta.image());
    return stats;
}

TEST(SpatialEndToEnd, EveryWorkloadStaysGoldenCorrect)
{
    for (const Wk w : allWorkloads()) {
        bool correct = false;
        const StatSet stats =
            runSpatial(w, DeltaConfig::spatial(8), &correct);
        EXPECT_TRUE(correct) << wkIdent(w);
        EXPECT_GT(stats.get("delta.cycles"), 0) << wkIdent(w);
        // The plan must cover the host-submitted graph.
        EXPECT_GT(stats.get("delta.spatial.groups") +
                      stats.get("delta.attrib.spatial.forwardableEdges"),
                  -1.0);
    }
}

TEST(SpatialEndToEnd, PipelineShapedWorkloadsSaveDramLines)
{
    for (const Wk w : {Wk::Join, Wk::Msort, Wk::Tricount}) {
        bool correct = false;
        const StatSet stats =
            runSpatial(w, DeltaConfig::spatial(8), &correct);
        EXPECT_TRUE(correct) << wkIdent(w);
        EXPECT_GT(stats.get("delta.attrib.spatial.dramLinesSaved"), 0)
            << wkIdent(w);
        EXPECT_EQ(stats.get("delta.spatial.spills"), 0) << wkIdent(w);
    }
}

TEST(SpatialEndToEnd, RepeatedRunsAreDeterministic)
{
    const StatSet a = runSpatial(Wk::Msort, DeltaConfig::spatial(8));
    const StatSet b = runSpatial(Wk::Msort, DeltaConfig::spatial(8));
    for (const char* key :
         {"delta.cycles", "delta.spatial.forwards",
          "delta.spatial.spills",
          "delta.attrib.spatial.dramLinesSaved",
          "delta.attrib.spatial.forwardHops",
          "delta.attrib.spatial.landingLines"}) {
        EXPECT_EQ(a.get(key), b.get(key)) << key;
    }
}

TEST(SpatialEndToEnd, UndersizedBudgetSpillsToDramButStaysCorrect)
{
    DeltaConfig cfg = DeltaConfig::spatial(8);
    cfg.spatialBufferWords = lineWords; // one line: almost nothing fits
    bool correct = false;
    const StatSet stats = runSpatial(Wk::Msort, cfg, &correct);
    EXPECT_TRUE(correct);
    EXPECT_GT(stats.get("delta.spatial.spills"), 0);
    // Spilled edges take the DRAM round-trip: fewer saved lines than
    // the roomy default, never a wrong answer.
    const StatSet roomy = runSpatial(Wk::Msort, DeltaConfig::spatial(8));
    EXPECT_LT(stats.get("delta.attrib.spatial.dramLinesSaved"),
              roomy.get("delta.attrib.spatial.dramLinesSaved"));
}

TEST(SpatialEndToEnd, SpawnedTasksInheritTheirSpawnersLane)
{
    // msort-dyn builds its subtrees via runtime spawns; spatial mode
    // must keep them pinned (no stealable tasks) and stay correct.
    bool correct = false;
    const StatSet stats =
        runSpatial(Wk::MsortDyn, DeltaConfig::spatial(8), &correct);
    EXPECT_TRUE(correct);
    EXPECT_GT(stats.get("dispatcher.tasksSpawned"), 0);
    EXPECT_EQ(stats.get("dispatcher.attrib.steal.tasksStolen"), 0.0);
}

} // namespace
} // namespace ts
