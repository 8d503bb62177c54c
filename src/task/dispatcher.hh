/**
 * @file
 * The hardware task dispatcher: TaskStream's central contribution.
 *
 * The dispatcher tracks dependences, maintains the ready set, and
 * maps tasks to lanes.  Because dependences are *annotated*, it can
 * recover program structure that task decomposition destroyed:
 *
 *  - Work-aware load balancing: stream arguments give a one-adder
 *    estimate of each task's work; lanes are chosen by least
 *    outstanding estimated work instead of task count or static
 *    ownership.
 *  - Pipelined dependences: a ready task's forward closure over
 *    Pipeline edges is co-dispatched atomically; producer output
 *    streams are forwarded chunk-by-chunk to consumer lanes, which
 *    begin executing as data arrives.
 *  - Shared-read multicast: tasks annotated as reading the same range
 *    are dispatched together; the range is fetched from DRAM once and
 *    multicast into every subscriber lane's scratchpad.
 *
 * The static-parallel baseline is this same dispatcher with policy
 * Static and both recovery mechanisms disabled.
 */

#ifndef TS_TASK_DISPATCHER_HH
#define TS_TASK_DISPATCHER_HH

#include <deque>
#include <optional>
#include <string>

#include "noc/noc.hh"
#include "task/messages.hh"
#include "task/spatial_policy.hh"
#include "task/task_graph.hh"

namespace ts
{

/** Lane-selection policies. */
enum class SchedPolicy : std::uint8_t
{
    Static,   ///< owner-compute: lane = uid % lanes (baseline)
    DynCount, ///< least queued task count
    WorkAware, ///< least outstanding estimated work (TaskStream)
    /** Ahead-of-time spatial plan: the tasks the mapper marks
     *  pinned (consumers of forwardable edges, narrow-fan-in
     *  forwarders) wait for their planned lanes, and producer
     *  outputs stream lane-to-lane into the consumers' landing zones
     *  instead of round-tripping through DRAM; every other task is
     *  placed as WorkAware places it, without pipelining. */
    Spatial
};

/** Human-readable policy name. */
const char* schedPolicyName(SchedPolicy p);

/** Parse a policy name ("static", "dyncount", "workaware",
 *  "spatial"); returns false on unknown names. */
bool schedPolicyFromName(const std::string& s, SchedPolicy& out);

/** Dispatcher configuration. */
struct DispatcherConfig
{
    SchedPolicy policy = SchedPolicy::WorkAware;
    StealPolicy steal = StealPolicy::None;
    bool enablePipeline = true;
    bool enableMulticast = true;
    /** Bulk-synchronous execution: a barrier between dependence
     *  levels, as in a classic static-parallel design (all of level
     *  L completes before level L+1 may start). */
    bool bulkSynchronous = false;
    std::uint32_t laneQueueCap = 2;  ///< per-lane queue (incl. running)
    std::uint64_t spmLandingWords = 1u << 16; ///< shared-copy budget

    std::uint32_t selfNode = 0;
    std::uint32_t memNode = 0;
    std::vector<std::uint32_t> laneNodes;
};

/**
 * Every piece of the dispatcher's mutable mechanism state, as one
 * plain value.  Dispatcher inherits it privately, so the members keep
 * their names inside it.
 */
struct DispatcherState
{
    struct EdgeState
    {
        DepEdge e;
        bool activated = false;
        bool resolved = false; ///< activation decision made
    };

    struct TaskState
    {
        /** Owned by value: spawned tasks have no host TaskGraph
         *  backing, so the dispatcher keeps its own copy. */
        TaskInstance inst;
        std::uint32_t remDeps = 0;
        bool dispatched = false;
        bool completed = false;
        std::int32_t lane = -1;
        std::int32_t origLane = -1; ///< dispatch-time lane (pre-steal)
        Tick readyAt = 0;
        bool started = false; ///< TaskStart seen
        Tick startAt = 0;     ///< cycle the lane began executing
        Tick endAt = 0;       ///< cycle TaskComplete arrived
        std::uint32_t level = 0; ///< longest path from the roots
        double workEst = 0;
        std::vector<std::size_t> inEdges;
        std::vector<std::size_t> outEdges;
    };

    struct GroupState
    {
        SharedGroup g;
        bool fired = false;
        std::uint64_t landingOffset = 0;
    };

    std::vector<TaskState> states_;
    std::vector<EdgeState> edges_;
    std::vector<GroupState> groups_;
    std::deque<TaskId> readyQ_;
    /** Spatial only: ready pinned tasks in their planned lane's FIFO,
     *  in ready order (unpinned ones go to readyQ_).  seq numbers
     *  every entry, so the oldest head across lanes is the oldest
     *  ready pinned task. */
    struct PinnedReady
    {
        std::uint64_t seq = 0;
        TaskId uid = 0;
    };
    std::vector<std::deque<PinnedReady>> laneReady_;
    std::uint64_t readySeq_ = 0;
    /** Tasks issued through dispatchPinned (spawned heirs
     *  included). */
    std::uint64_t pinnedDispatched_ = 0;
    std::deque<Packet> sendQ_;

    std::vector<std::uint32_t> laneQueued_;
    std::vector<double> laneWork_;
    std::vector<std::uint64_t> laneDispatched_;
    std::uint64_t landingBrk_ = 0;
    std::size_t completed_ = 0;
    std::uint32_t curLevel_ = 0;
    std::vector<std::uint32_t> levelRemaining_;

    /** Last ready-queue depth sampled into the trace. */
    std::size_t tracedReadyDepth_ = static_cast<std::size_t>(-1);

    std::uint64_t pipesActivated_ = 0;
    std::uint64_t pipesDegraded_ = 0;
    std::uint64_t groupsFired_ = 0;
    std::uint64_t fillLinesRequested_ = 0;

    /** Per-lane measured service cycles: actual assignment vs. the
     *  shadow static owner-compute assignment (attribution). */
    std::vector<double> actualService_;
    std::vector<double> shadowService_;
    /** Service charged to the dispatch-time lane (pre-steal shadow):
     *  what each lane would have served had nothing migrated. */
    std::vector<double> stealShadowService_;
    double pipeOverlapCycles_ = 0;
    /** DRAM lines the shared reads would have cost with one unicast
     *  fetch per member (replay estimate). */
    std::uint64_t mcastUnicastLinesEquiv_ = 0;

    std::uint64_t tasksSpawned_ = 0;
    std::uint64_t tasksStolen_ = 0;
    std::uint64_t stealHops_ = 0; ///< NoC hops stolen tasks traveled
};

/**
 * The dispatcher hardware unit (one NoC node): the mechanism core —
 * ready set, closure and shared-group firing, message handling — with
 * the lane choice in pickLane's switch.  Only SchedPolicy::Spatial
 * carries policy state, held in spatial_; its pinned tasks queue per
 * planned lane (dispatchPinned) instead of in the one ready queue,
 * and its unpinned ones take the WorkAware pick.
 */
class Dispatcher : public Ticked, private DispatcherState
{
  public:
    /** @p spatial must be engaged exactly when cfg.policy is
     *  SchedPolicy::Spatial. */
    Dispatcher(Noc& noc, const MemImage& img,
               const TaskTypeRegistry& registry,
               const DispatcherConfig& cfg,
               std::optional<SpatialPolicy> spatial = std::nullopt);

    /** Load a whole task graph (host enqueue). */
    void loadGraph(const TaskGraph& graph);

    /**
     * Install the spatial pins (per-uid lanes) before loadGraph.
     * A task with a lane waits for that lane; uids beyond the plan
     * (or planned -1) take the WorkAware pick.
     */
    void setSpatialPlan(std::vector<std::int32_t> lanes);

    /** All loaded *and dynamically spawned* tasks have completed. */
    bool allComplete() const
    {
        return completed_ == states_.size();
    }

    void tick(Tick now) override;
    bool busy() const override;
    /** dispatcher.* counters plus every delta.* key only the
     *  dispatcher owns: delta.attrib.{loadbalance,pipeline}.*, the
     *  dispatcher half of delta.attrib.{multicast,steal}.* and
     *  delta.spatial.*.  Each number is written under one name. */
    void reportStats(StatSet& stats) const override;

    // Experiment-facing counters.
    std::uint64_t pipesActivated() const { return pipesActivated_; }
    std::uint64_t pipesDegraded() const { return pipesDegraded_; }
    std::uint64_t groupsFired() const { return groupsFired_; }

    /** Critical path over the live graph — every host-loaded and
     *  spawned task, weighted by its measured span, and every edge as
     *  it stands now (transferred successors hang off their heir). */
    CritPathResult criticalPath() const;

    /** Task @p id as the dispatcher holds it, host-loaded or
     *  spawned. */
    const TaskInstance& task(TaskId id) const
    {
        return states_.at(id).inst;
    }

    /** Tasks currently ready but not yet issued to a lane (timeline
     *  probe). */
    std::size_t readyQueueDepth() const;

  private:
    void processInbox(Tick now);
    void onComplete(const CompleteMsg& msg, Tick now);
    void onSpawn(const SpawnMsg& msg, Tick now);
    void onStealNotify(const StealNotifyMsg& msg);
    /** Transfer queue/work bookkeeping of a stolen, not-yet-complete
     *  task from its current lane to @p toLane. */
    void applyStealMove(TaskId uid, std::uint32_t toLane);
    /** Topological order of every task over the current edges;
     *  panics if a spawn closed a dependence cycle. */
    std::vector<TaskId> liveTopoOrder() const;
    /** Queue a task whose dependences are all satisfied. */
    void pushReady(TaskId id);
    bool tryDispatchHead(Tick now);
    /** Spatial: dispatch the oldest ready pinned tasks whose planned
     *  lane has a free queue slot; returns how many it issued. */
    std::uint32_t dispatchPinned(Tick now);
    /** Build, rewrite and queue the dispatch messages of @p batch
     *  (lanes already chosen, uid order); @p readyAt is when the
     *  batch's root became ready. */
    void commitBatch(const std::vector<TaskId>& batch, Tick readyAt,
                     Tick now);
    std::vector<TaskId> pipelineClosure(TaskId root) const;
    std::optional<std::vector<TaskId>>
    tryJoinClosure(TaskId c, std::vector<TaskId> set,
                   unsigned depth) const;
    bool soonJoinable(TaskId c, unsigned depth) const;
    std::int32_t pickLane(TaskId id,
                          const std::vector<std::uint32_t>& extraLoad,
                          const std::vector<double>& extraWork) const;
    void enqueueDispatch(TaskId id, DispatchMsg msg);
    void fireGroup(std::uint32_t groupId);

    Noc& noc_;
    const MemImage& img_;
    const TaskTypeRegistry& registry_;
    DispatcherConfig cfg_;
    /** Spatial policy state; engaged iff policy is Spatial. */
    std::optional<SpatialPolicy> spatial_;
};

} // namespace ts

#endif // TS_TASK_DISPATCHER_HH
