#include "accel/delta.hh"

#include <array>
#include <cmath>
#include <fstream>

#include "obs/timeline.hh"
#include "sim/logging.hh"
#include "spatial/mapper.hh"
#include "trace/accounting.hh"

namespace ts
{

DeltaConfig
DeltaConfig::delta(std::uint32_t lanes)
{
    DeltaConfig cfg;
    cfg.lanes = lanes;
    cfg.policy = SchedPolicy::WorkAware;
    cfg.enablePipeline = true;
    cfg.enableMulticast = true;
    return cfg;
}

DeltaConfig
DeltaConfig::staticBaseline(std::uint32_t lanes)
{
    DeltaConfig cfg;
    cfg.lanes = lanes;
    cfg.policy = SchedPolicy::Static;
    cfg.enablePipeline = false;
    cfg.enableMulticast = false;
    cfg.bulkSynchronous = true;
    return cfg;
}

DeltaConfig
DeltaConfig::spatial(std::uint32_t lanes)
{
    // The AOT mapper replaces both runtime recovery mechanisms that
    // move tasks (pipeline holds, stealing): forwarding consumers and
    // narrow-fan-in forwarders are placed before the first dispatch
    // and producers stream to the consumers directly.  Multicast stays on — shared read-only inputs are
    // orthogonal to the producer/consumer edges the mapper forwards.
    DeltaConfig cfg;
    cfg.lanes = lanes;
    cfg.policy = SchedPolicy::Spatial;
    cfg.enablePipeline = false;
    cfg.enableMulticast = true;
    cfg.bulkSynchronous = false;
    cfg.steal = StealPolicy::None;
    return cfg;
}

namespace
{

NocConfig
meshFor(std::uint32_t lanes, NocConfig links)
{
    const std::uint32_t total = lanes + 2; // dispatcher + memory
    auto w = static_cast<std::uint32_t>(
        std::ceil(std::sqrt(static_cast<double>(total))));
    links.width = w;
    links.height = divCeil(total, w);
    return links;
}

} // namespace

Delta::Machine::Machine(const DeltaConfig& cfg)
    : registry(cfg.lane.fabric.geom)
{
    sim.setFastForward(!cfg.noFastForward);
    tracer = std::make_unique<trace::Tracer>(cfg.trace);

    noc = std::make_unique<Noc>(sim, meshFor(cfg.lanes, cfg.nocLinks));

    const std::uint32_t dispatcherNode = 0;
    const std::uint32_t memNodeId = cfg.lanes + 1;

    memNode = std::make_unique<MemNode>(sim, *noc, memNodeId, cfg.mem);

    std::vector<std::uint32_t> laneNodes;
    for (std::uint32_t i = 0; i < cfg.lanes; ++i)
        laneNodes.push_back(laneNode(i));

    LaneConfig lcfg = cfg.lane;
    lcfg.steal = cfg.steal;
    for (std::uint32_t i = 0; i < cfg.lanes; ++i) {
        lanes.push_back(std::make_unique<Lane>(
            sim, *noc, img, registry, i, laneNode(i), dispatcherNode,
            memNodeId, lcfg, laneNodes));
    }

    DispatcherConfig dcfg;
    dcfg.policy = cfg.policy;
    dcfg.steal = cfg.steal;
    dcfg.enablePipeline = cfg.enablePipeline;
    dcfg.enableMulticast = cfg.enableMulticast;
    dcfg.bulkSynchronous = cfg.bulkSynchronous;
    dcfg.laneQueueCap = cfg.laneQueueCap;
    dcfg.spmLandingWords = cfg.lane.spm.sizeWords;
    dcfg.selfNode = dispatcherNode;
    dcfg.memNode = memNodeId;
    dcfg.laneNodes = laneNodes;
    std::optional<SpatialPolicy> spatial;
    if (cfg.policy == SchedPolicy::Spatial) {
        spatial.emplace(laneNodes, cfg.spatialBufferWords,
                        cfg.spatialRemapFactor);
    }
    dispatcher = std::make_unique<Dispatcher>(*noc, img, registry, dcfg,
                                              std::move(spatial));
    sim.add(dispatcher.get());

    if (cfg.flightRecorder > 0) {
        recorder = std::make_unique<obs::FlightRecorder>(cfg.flightRecorder);
        sim.setFlightRecorder(recorder.get());
    }
    if (cfg.hostProfile) {
        profiler = std::make_unique<obs::HostProfiler>();
        sim.setHostProfiler(profiler.get());
    }
}

Delta::Delta(const DeltaConfig& cfg) : cfg_(cfg)
{
    if (cfg_.lanes == 0 || cfg_.lanes > 62)
        fatal("Delta supports 1..62 lanes, got ", cfg_.lanes);
    m_ = std::make_unique<Machine>(cfg_);
}

Delta::~Delta() = default;

std::unique_ptr<DeltaSnapshot>
Delta::snapshot() const
{
    // Tracing keeps append-only side state (track ids, open spans,
    // the output file) that a rebuild would orphan.
    TS_ASSERT(!m_->tracer->enabled(),
              "snapshot/fork does not compose with tracing");
    // restore() returns to the as-constructed state, so a snapshot of
    // anything later would silently restore to the wrong state.
    if (m_->sim.now() != 0 || m_->ran || m_->registry.numTypes() != 0 ||
        m_->img.allocatedWords() != MemImage().allocatedWords()) {
        fatal("Delta::snapshot() is only legal on an as-constructed "
              "Delta (not after a workload build, a simulated cycle "
              "or a run)");
    }
    return std::make_unique<DeltaSnapshot>();
}

void
Delta::restore(const DeltaSnapshot&)
{
    TS_ASSERT(!m_->tracer->enabled(),
              "snapshot/fork does not compose with tracing");
    // Tear down before rebuilding, so two accelerators never coexist.
    m_.reset();
    m_ = std::make_unique<Machine>(cfg_);
}

namespace
{

/** Deactivates tracing on scope exit (including fatal() unwinds). */
struct TraceActivation
{
    explicit TraceActivation(trace::Tracer* t)
    {
        trace::Tracer::setActive(t);
    }
    ~TraceActivation() { trace::Tracer::setActive(nullptr); }
};

/** Routes statSample() probes into the run's StatSet for the
 *  duration of the simulation (cleared even on fatal() unwinds). */
struct StatsActivation
{
    explicit StatsActivation(StatSet* s) { StatSet::setActive(s); }
    ~StatsActivation() { StatSet::setActive(nullptr); }
};

} // namespace

StatSet
Delta::run(const TaskGraph& graph)
{
    Machine& m = *m_;
    TS_ASSERT(!m.ran, "a Delta instance runs one graph");
    m.ran = true;

    StatSet stats;
    TraceActivation activation(m.tracer.get());
    StatsActivation statsActivation(&stats);

    // Ahead-of-time spatial mapping: plan lane placement from the
    // fully-known graph before the first dispatch.  The plan is a
    // pure function of (graph, image, registry, mesh).  Only the
    // tasks the plan marks pinned (forwarding consumers and
    // narrow-fan-in forwarders) wait for their planned lane; every
    // other task is placed online.
    spatial::SpatialPlan plan;
    if (cfg_.policy == SchedPolicy::Spatial) {
        std::vector<std::uint32_t> laneNodes;
        for (std::uint32_t i = 0; i < cfg_.lanes; ++i)
            laneNodes.push_back(laneNode(i));
        plan = spatial::mapTaskGraph(graph, m.img, m.registry, *m.noc,
                                     laneNodes,
                                     cfg_.nocLinks.linkWords);
        std::vector<std::int32_t> pinned(plan.lane.size(), -1);
        for (std::size_t uid = 0; uid < pinned.size(); ++uid) {
            if (plan.pinned[uid])
                pinned[uid] = plan.lane[uid];
        }
        m.dispatcher->setSpatialPlan(std::move(pinned));
    }

    m.dispatcher->loadGraph(graph);

    // Time-series sampler: weak events at exact simulated ticks, so
    // the timeline is bit-identical across execution modes and
    // thread counts.  run() drops any still-armed sample event, so
    // the captures below cannot outlive this call.
    std::unique_ptr<obs::Timeline> timeline;
    if (cfg_.timelineInterval > 0) {
        obs::TimelineConfig tlc;
        tlc.interval = cfg_.timelineInterval;
        tlc.maxSamples = cfg_.timelineMaxSamples;
        tlc.series = cfg_.timelineSeries;
        timeline = std::make_unique<obs::Timeline>(m.sim, tlc);
        for (std::uint32_t i = 0; i < cfg_.lanes; ++i) {
            const TaskUnit& tu = m.lanes[i]->taskUnit();
            for (std::size_t c = 0; c < kNumCycleClasses; ++c)
                timeline->addCounter(
                    "lanes",
                    "lane" + std::to_string(i) + "." +
                        cycleClassName(static_cast<CycleClass>(c)),
                    [&tu, c] {
                        return static_cast<double>(
                            tu.cycleBuckets().counts[c]);
                    });
        }
        timeline->addGauge("ready", "readyQueue", [&m] {
            return static_cast<double>(
                m.dispatcher->readyQueueDepth());
        });
        timeline->addGauge("noc", "nocInFlight", [&m] {
            return static_cast<double>(m.noc->packetsInFlight());
        });
        timeline->addGauge("dram", "dramQueue", [&m] {
            return static_cast<double>(
                m.memNode->memory().queueDepth());
        });
        timeline->start();
    }

    const Tick cycles = m.sim.run(cfg_.maxCycles);
    if (timeline != nullptr)
        timeline->finalSample();

    if (!m.dispatcher->allComplete())
        panic("simulation quiesced with incomplete tasks");

    m.sim.reportStats(stats);
    m.noc->reportStats(stats);
    if (timeline != nullptr)
        timeline->report(stats);
    stats.set("delta.cycles", static_cast<double>(cycles));
    stats.set("delta.lanes", static_cast<double>(cfg_.lanes));

    double busyMax = 0, busySum = 0;
    for (const auto& lane : m.lanes) {
        const auto busy =
            static_cast<double>(lane->taskUnit().busyCycles());
        busyMax = std::max(busyMax, busy);
        busySum += busy;
    }
    stats.set("delta.busyMax", busyMax);
    stats.set("delta.busyMean",
              busySum / static_cast<double>(cfg_.lanes));
    stats.set("delta.imbalance",
              busySum > 0 ? busyMax * cfg_.lanes / busySum : 1.0);

    // Top-down cycle accounting: per-lane buckets are reported by
    // each task unit; aggregate them here and check the invariant
    // that every lane cycle is attributed to exactly one bucket.
    std::array<double, kNumCycleClasses> agg{};
    for (const auto& lane : m.lanes) {
        const CycleBuckets& b = lane->taskUnit().cycleBuckets();
        TS_ASSERT(b.total() == cycles,
                  "cycle-accounting buckets must sum to delta.cycles");
        for (std::size_t c = 0; c < kNumCycleClasses; ++c)
            agg[c] += static_cast<double>(b.counts[c]);
    }
    for (std::size_t c = 0; c < kNumCycleClasses; ++c) {
        const char* cls = cycleClassName(static_cast<CycleClass>(c));
        stats.set(std::string("delta.accounting.") + cls, agg[c]);
        stats.set(std::string("delta.accounting.frac.") + cls,
                  cycles > 0 ? agg[c] / (static_cast<double>(cycles) *
                                         cfg_.lanes)
                             : 0.0);
    }

    // -- Per-mechanism attribution (why Delta beats the static
    // baseline, not just that it does).  The dispatcher reports the
    // load-balance, pipeline and spawn keys and its half of the
    // multicast, steal and spatial ones; the rest come from the lanes,
    // the NoC and the AOT plan. --

    // Steal protocol traffic as the lanes saw it.
    if (cfg_.steal != StealPolicy::None) {
        std::uint64_t reqs = 0, grants = 0, denies = 0;
        for (const auto& lane : m.lanes) {
            reqs += lane->taskUnit().stealRequestsSent();
            grants += lane->taskUnit().stealGrantsReceived();
            denies += lane->taskUnit().stealDeniesReceived();
        }
        stats.set("delta.attrib.steal.requests",
                  static_cast<double>(reqs));
        stats.set("delta.attrib.steal.grants",
                  static_cast<double>(grants));
        stats.set("delta.attrib.steal.denies",
                  static_cast<double>(denies));
    }

    const auto mcastHops =
        static_cast<double>(m.noc->mcastWordHops());
    const auto mcastEquivHops =
        static_cast<double>(m.noc->mcastUnicastEquivWordHops());
    stats.set("delta.attrib.multicast.wordHops", mcastHops);
    stats.set("delta.attrib.multicast.unicastEquivWordHops",
              mcastEquivHops);
    stats.set("delta.attrib.multicast.wordHopsSaved",
              std::max(0.0, mcastEquivHops - mcastHops));
    stats.set("delta.attrib.multicast.packets",
              static_cast<double>(m.noc->mcastPackets()));

    // Spatial-mapping attribution: DRAM traffic the lane-to-lane
    // forwarding suppressed (producer write-backs) and avoided
    // (consumer landing-zone reads), plus the NoC cost it paid.
    if (cfg_.policy == SchedPolicy::Spatial) {
        std::uint64_t suppressed = 0, landingLines = 0, hopWords = 0;
        std::uint64_t fwdWords = 0, chunks = 0;
        for (const auto& lane : m.lanes) {
            suppressed += lane->spatialLinesSuppressed();
            landingLines += lane->spatialLandingLines();
            hopWords += lane->spatialHopWords();
            fwdWords += lane->spatialLanding().wordsReceived();
            chunks += lane->spatialChunksSent();
        }
        const double saved =
            static_cast<double>(suppressed + landingLines);
        stats.set("delta.attrib.spatial.dramLinesSaved", saved);
        stats.set("delta.attrib.spatial.dramBytesSaved",
                  saved * lineBytes);
        stats.set("delta.attrib.spatial.linesSuppressed",
                  static_cast<double>(suppressed));
        stats.set("delta.attrib.spatial.landingLines",
                  static_cast<double>(landingLines));
        stats.set("delta.attrib.spatial.forwardHops",
                  static_cast<double>(hopWords));
        stats.set("delta.attrib.spatial.forwardWords",
                  static_cast<double>(fwdWords));
        stats.set("delta.attrib.spatial.chunks",
                  static_cast<double>(chunks));
        stats.set("delta.attrib.spatial.plannedMakespan",
                  static_cast<double>(plan.predictedMakespan));
        stats.set("delta.attrib.spatial.plannedCritPath",
                  static_cast<double>(plan.predictedCritPath));
        stats.set("delta.attrib.spatial.balanceWeight",
                  plan.balanceWeight);
        stats.set("delta.attrib.spatial.forwardableEdges",
                  static_cast<double>(plan.forwardableEdges));
    }

    // -- Critical-path bound from the measured task spans, over the
    // live graph (spawned tasks and transferred successors included) --
    const CritPathResult cp = m.dispatcher->criticalPath();
    const Tick bound = cp.boundCycles(cfg_.lanes);
    stats.set("delta.critpath.cycles",
              static_cast<double>(cp.criticalPathCycles));
    stats.set("delta.critpath.serialCycles",
              static_cast<double>(cp.serialCycles));
    stats.set("delta.critpath.boundCycles",
              static_cast<double>(bound));
    stats.set("delta.critpath.pathTasks",
              static_cast<double>(cp.path.size()));
    stats.set("delta.critpath.utilization",
              cycles > 0 ? static_cast<double>(bound) /
                               static_cast<double>(cycles)
                         : 0.0);

    if (m.tracer->enabled()) {
        // Leave the per-lane summary in the trace, then seal it.
        for (std::uint32_t i = 0; i < cfg_.lanes; ++i) {
            const CycleBuckets& b =
                m.lanes[i]->taskUnit().cycleBuckets();
            const std::string series = "lane" + std::to_string(i);
            for (std::size_t c = 0; c < kNumCycleClasses; ++c) {
                m.tracer->counter(
                    (std::string("accounting.") +
                     cycleClassName(static_cast<CycleClass>(c)))
                        .c_str(),
                    series.c_str(), static_cast<double>(b.counts[c]));
            }
        }
        stats.set("trace.events",
                  static_cast<double>(m.tracer->events()));
        m.tracer->finish();
    }

    // Machine-readable dump for tools/delta-report: every run (the
    // quickstart included) can emit its full StatSet as flat JSON.
    if (!cfg_.statsJsonPath.empty()) {
        std::ofstream out(cfg_.statsJsonPath);
        if (!out) {
            warn("stats JSON: cannot open '", cfg_.statsJsonPath,
                 "' for writing");
        } else {
            stats.dumpJson(out);
            inform("stats JSON written to ", cfg_.statsJsonPath);
        }
    }
    return stats;
}

} // namespace ts
