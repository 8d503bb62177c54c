/**
 * @file
 * Delta: the full accelerator — N lanes on a mesh with a hardware
 * task dispatcher and a banked memory controller — plus the
 * host-facing API used by examples, tests, and benchmarks.
 *
 * The static-parallel baseline the paper compares against is the same
 * hardware constructed with DeltaConfig::staticBaseline(): policy
 * Static, pipeline recovery off, multicast recovery off.
 */

#ifndef TS_ACCEL_DELTA_HH
#define TS_ACCEL_DELTA_HH

#include <memory>
#include <string>

#include "accel/lane.hh"
#include "accel/mem_node.hh"
#include "obs/flight_recorder.hh"
#include "obs/host_profiler.hh"
#include "task/dispatcher.hh"
#include "trace/trace.hh"

namespace ts
{

/** Full-system configuration. */
struct DeltaConfig
{
    std::uint32_t lanes = 8;

    SchedPolicy policy = SchedPolicy::WorkAware;
    /** NoC work stealing between lane task units (DESIGN.md §9). */
    StealPolicy steal = StealPolicy::None;
    bool enablePipeline = true;
    bool enableMulticast = true;
    /** Level-barrier execution (static-parallel designs only). */
    bool bulkSynchronous = false;
    std::uint32_t laneQueueCap = 2;

    /** Per-lane scratchpad budget (words) for spatial landing zones;
     *  groups that do not fit spill to the DRAM round-trip
     *  (SchedPolicy::Spatial only, DESIGN.md §10). */
    std::uint64_t spatialBufferWords = 1u << 15;

    /** A spawned transfer heir inherits its spawner's lane unless
     *  that lane's queued work exceeds this factor times the mean,
     *  in which case it remaps to the least-loaded lane. */
    double spatialRemapFactor = 1.5;

    LaneConfig lane;
    MainMemoryConfig mem;
    NocConfig nocLinks; ///< width/height are derived from lanes

    Tick maxCycles = 200'000'000;

    /**
     * Cycle-level tracing (Perfetto/chrome://tracing JSON).  This is
     * the only way tracing is enabled: the accelerator never reads
     * the environment.  The --trace flag lives in the options
     * layer — see ts::driver::RunOptions (src/driver/options.hh),
     * whose applyTo() injects it here.
     */
    trace::TracerConfig trace;

    /**
     * When non-empty, Delta::run() dumps the run's full StatSet as
     * flat JSON to this path.  Injected by RunOptions::applyTo()
     * (--stats-json).
     */
    std::string statsJsonPath;

    /**
     * Tick every component every cycle instead of running the
     * activity-driven core (Simulator::setFastForward(false)).
     * Bit-identical to the default; exists for differential testing
     * and host-throughput comparison.  --no-fast-forward via
     * RunOptions::applyTo().
     */
    bool noFastForward = false;

    /**
     * Time-series sampling interval in simulated cycles; 0 (default)
     * disables the timeline.  When on, the run JSON gains a columnar
     * `delta.timeline.*` section sampled at exact simulated ticks —
     * bit-identical across execution modes and thread counts.
     * Behaviour-relevant for cache keys (it changes the emitted
     * stats), so it participates in driver::canonicalConfig.
     */
    Tick timelineInterval = 0;

    /** Cap on cadence samples (the final quiescence sample is always
     *  appended); part of the cache key like timelineInterval. */
    std::size_t timelineMaxSamples = 512;

    /** Probe-group subset, comma-separated out of
     *  "lanes,ready,noc,dram"; empty = all.  Cache-key relevant. */
    std::string timelineSeries;

    /**
     * Attribute host wall-ns to component classes and simulator
     * phases (sim.host.profile.*).  Host-side observability only —
     * never affects simulated results, and like all sim.host.*
     * counters it is excluded from byte-compared dumps.
     */
    bool hostProfile = false;

    /**
     * Ring capacity of the sleep/wake/commit/event flight recorder
     * dumped on deadlock; 0 (default) disables recording.  Purely
     * diagnostic: no effect on simulated results.
     */
    std::size_t flightRecorder = 0;

    /** TaskStream configuration (all mechanisms on). */
    static DeltaConfig delta(std::uint32_t lanes = 8);

    /** Equivalent static-parallel baseline. */
    static DeltaConfig staticBaseline(std::uint32_t lanes = 8);

    /** Ahead-of-time spatial mapping: forwarding consumers (and
     *  narrow-fan-in forwarders) pinned to planned lanes,
     *  lane-to-lane forwarding into them, every other task placed
     *  online (DESIGN.md §10). */
    static DeltaConfig spatial(std::uint32_t lanes = 8);
};

class DeltaSnapshot;

/** The accelerator instance. */
class Delta
{
  public:
    explicit Delta(const DeltaConfig& cfg);
    ~Delta();

    Delta(const Delta&) = delete;
    Delta& operator=(const Delta&) = delete;

    /**
     * Mark this as-constructed accelerator as the state restore()
     * returns to.  Legal only on an untouched Delta: fatal() once the
     * simulator has advanced, a workload has been built into it
     * (image allocations or registered task types) or it has run.
     * Does not compose with tracing (checked).
     */
    std::unique_ptr<DeltaSnapshot> snapshot() const;

    /**
     * Return to the as-constructed state by tearing the accelerator
     * down and rebuilding it from config(), so a restored run is a
     * fresh run.  Invalidates every reference previously returned by
     * image(), registry(), sim(), lane(), dispatcher(), noc() and
     * tracer().
     */
    void restore(const DeltaSnapshot& s);

    /** The functional memory image (workload setup and checking). */
    MemImage& image() { return m_->img; }

    /** Task-type registry (register DFGs/builtins before building
     *  the task graph). */
    TaskTypeRegistry& registry() { return m_->registry; }

    /**
     * Execute a task graph to completion and return the full
     * statistics dump.  Key statistics:
     *   delta.cycles          total execution cycles
     *   delta.busyMax/Mean    lane busy-cycle imbalance
     *   mem.linesRead         DRAM read traffic
     *   noc.wordHops          network traffic
     * One run per Delta instance.
     */
    StatSet run(const TaskGraph& graph);

    std::uint32_t numLanes() const { return cfg_.lanes; }

    /** The run's tracer (disabled unless configured; never null). */
    const trace::Tracer& tracer() const { return *m_->tracer; }
    const Lane& lane(std::uint32_t i) const { return *m_->lanes.at(i); }
    const Dispatcher& dispatcher() const { return *m_->dispatcher; }
    const Noc& noc() const { return *m_->noc; }
    Simulator& sim() { return m_->sim; }
    const DeltaConfig& config() const { return cfg_; }

    /** NoC node hosting lane @p i. */
    static std::uint32_t laneNode(std::uint32_t i) { return 1 + i; }

  private:
    /** Everything built from cfg_, in construction (and reverse
     *  destruction) order; restore() replaces it whole. */
    struct Machine
    {
        explicit Machine(const DeltaConfig& cfg);

        MemImage img;
        Simulator sim;
        std::unique_ptr<trace::Tracer> tracer;
        std::unique_ptr<Noc> noc;
        TaskTypeRegistry registry;
        std::unique_ptr<MemNode> memNode;
        std::vector<std::unique_ptr<Lane>> lanes;
        std::unique_ptr<Dispatcher> dispatcher;
        std::unique_ptr<obs::FlightRecorder> recorder;
        std::unique_ptr<obs::HostProfiler> profiler;
        bool ran = false;
    };

    DeltaConfig cfg_;
    std::unique_ptr<Machine> m_;
};

/** Token returned by Delta::snapshot(): restoring it rebuilds the
 *  accelerator from its config. */
class DeltaSnapshot
{
};

} // namespace ts

#endif // TS_ACCEL_DELTA_HH
