/**
 * @file
 * The host-visible task graph: instances plus *annotated* dependences.
 *
 * This is the programming interface the paper argues for: instead of
 * opaque "wait for task X" edges, every edge says *what structure* it
 * carries —
 *   Barrier:  plain completion ordering;
 *   Pipeline: the consumer elementwise-consumes a named output stream
 *             of the producer (hardware may forward it);
 * and shared-read groups say "these tasks all read this range".
 * The same graph runs unchanged on the static-parallel baseline,
 * which simply ignores the annotations.
 *
 * Since the dynamic-dependence refactor the graph is *live*: edges may
 * be added in any order (including to tasks that were created earlier,
 * or — on the dispatcher side — to tasks that are already running), a
 * task's pending successors can be transferred to another task, and
 * running tasks can submit whole `SpawnSet`s back to the dispatcher.
 * The only rejected shape is a cycle, detected online at edge-add time.
 */

#ifndef TS_TASK_TASK_GRAPH_HH
#define TS_TASK_TASK_GRAPH_HH

#include <algorithm>
#include <vector>

#include "task/task_types.hh"

namespace ts
{

/** Dependence kinds (the annotation is the contribution). */
enum class DepKind : std::uint8_t
{
    Barrier,
    Pipeline,
};

class CompletionHandle;

/**
 * A handle to a submitted task.  Implicitly convertible to its
 * `TaskId`, so existing `TaskId id = graph.addTask(...)` call sites
 * keep working; the handle form exists so edges can name tasks that
 * were submitted at any earlier point (the oneTBB dynamic-dependence
 * model), not just the immediately preceding ones.
 */
class TaskHandle
{
  public:
    TaskHandle() = default;
    TaskHandle(TaskId uid) : uid_(uid) {}

    operator TaskId() const { return uid_; }
    TaskId id() const { return uid_; }

    /** The completion event of this task (see CompletionHandle). */
    CompletionHandle completion() const;

  private:
    TaskId uid_ = 0;
};

/**
 * Names the *completion event* of a task.  Valid as an edge producer
 * for the task's whole lifetime — including after it started or
 * finished (an edge from a finished producer is immediately
 * satisfied).  Consumers, by contrast, must not have been dispatched
 * yet when an edge is added; the dispatcher enforces that.
 */
class CompletionHandle
{
  public:
    explicit CompletionHandle(TaskId uid) : uid_(uid) {}

    TaskId task() const { return uid_; }

  private:
    TaskId uid_ = 0;
};

inline CompletionHandle
TaskHandle::completion() const
{
    return CompletionHandle{uid_};
}

/** An annotated dependence edge. */
struct DepEdge
{
    TaskId producer = 0;
    TaskId consumer = 0;
    DepKind kind = DepKind::Barrier;
    std::uint8_t producerPort = 0; ///< Pipeline: forwarded output port
    std::uint8_t consumerPort = 0; ///< Pipeline: consuming input port
};

/**
 * Tasks and edges a *running* task submits back to the dispatcher
 * (built inside a builtin body's `spawn` hook, shipped to the
 * dispatcher in one TaskSpawn NoC message).  Edge endpoints are
 * signed: a non-negative value names an existing task by uid (it may
 * be running or even complete when used as a producer), a negative
 * value `-(k+1)` names `tasks[k]` of this set.
 */
struct SpawnSet
{
    static constexpr std::int64_t kNoTransfer = -1;

    struct Task
    {
        TaskTypeId type = 0;
        std::vector<StreamDesc> inputs;
        std::vector<WriteDesc> outputs;
    };

    struct Edge
    {
        std::int64_t producer = 0;
        std::int64_t consumer = 0;
        DepKind kind = DepKind::Barrier;
        std::uint8_t producerPort = 0;
        std::uint8_t consumerPort = 0;
    };

    std::vector<Task> tasks;
    std::vector<Edge> edges;

    /**
     * Local index of the task that inherits the spawner's pending
     * successors (successor transfer on early finish, the oneTBB
     * `transfer_successors_to` semantics), or kNoTransfer.
     */
    std::int64_t transferTo = kNoTransfer;

    /** Add a task; returns its local reference (negative). */
    std::int64_t
    add(TaskTypeId type, std::vector<StreamDesc> inputs,
        std::vector<WriteDesc> outputs)
    {
        tasks.push_back(Task{type, std::move(inputs), std::move(outputs)});
        return -static_cast<std::int64_t>(tasks.size());
    }

    void
    barrier(std::int64_t producer, std::int64_t consumer)
    {
        edges.push_back(Edge{producer, consumer, DepKind::Barrier, 0, 0});
    }

    void
    pipeline(std::int64_t producer, std::uint8_t producerPort,
             std::int64_t consumer, std::uint8_t consumerPort)
    {
        edges.push_back(Edge{producer, consumer, DepKind::Pipeline,
                             producerPort, consumerPort});
    }

    bool
    empty() const
    {
        return tasks.empty() && edges.empty() &&
               transferTo == kNoTransfer;
    }
};

/** A shared-read group over a contiguous DRAM range. */
struct SharedGroup
{
    std::uint32_t id = 0;
    Addr rangeBase = 0;       ///< line-aligned byte address
    std::uint64_t words = 0;  ///< range length in words
    std::vector<TaskId> members;
};

/** Measured execution span of one task (dispatcher-recorded). */
struct TaskSpan
{
    TaskId uid = 0;
    Tick start = 0;       ///< cycle the lane began executing
    Tick end = 0;         ///< cycle the dispatcher saw completion
    std::int32_t lane = -1;

    Tick service() const { return end >= start ? end - start : 0; }
};

/** Result of dependence-weighted critical-path analysis. */
struct CritPathResult
{
    /** Longest dependence-weighted path through the measured spans
     *  (a lower bound on any schedule of this graph on these
     *  service times). */
    Tick criticalPathCycles = 0;

    /** Sum of all measured service times (serial execution cost). */
    Tick serialCycles = 0;

    /** Tasks on the critical path, producer-to-consumer order. */
    std::vector<TaskId> path;

    /**
     * Lower bound on makespan for @p lanes lanes:
     * max(critical path, serial work / lanes).
     */
    Tick
    boundCycles(std::uint32_t lanes) const
    {
        if (lanes == 0)
            return criticalPathCycles;
        const Tick balanced = (serialCycles + lanes - 1) / lanes;
        return std::max(criticalPathCycles, balanced);
    }
};

/**
 * Dependence-weighted longest path over @p edges, weighting each task
 * by its measured service time in @p spans (tasks missing a span
 * weigh zero).  A Barrier edge runs producer end to consumer start; a
 * Pipeline edge runs start to start, and its consumer ends no earlier
 * than its producer.  @p topo lists every task in a topological order
 * of @p edges; the result does not depend on which order.
 */
CritPathResult criticalPathOver(const std::vector<DepEdge>& edges,
                                const std::vector<TaskId>& topo,
                                const std::vector<TaskSpan>& spans);

/** Host-side container for a workload's tasks. */
class TaskGraph
{
  public:
    /** Add a task; edges may name it in either direction later. */
    TaskHandle addTask(TaskTypeId type, std::vector<StreamDesc> inputs,
                       std::vector<WriteDesc> outputs);

    /** The completion handle of an existing task. */
    CompletionHandle completion(TaskId task) const;

    /**
     * Add a completion-ordering edge.  Any producer/consumer pair is
     * accepted — edges no longer need to follow creation order — but
     * an edge that would close a cycle is rejected (panic).
     */
    void addBarrier(TaskId producer, TaskId consumer);
    void addBarrier(const CompletionHandle& producer, TaskId consumer);

    /**
     * Add a pipelined dependence: @p consumer's input port
     * @p consumerPort elementwise-consumes @p producer's output port
     * @p producerPort.  The consumer's input descriptor must describe
     * the memory fallback (used by the baseline, and by Delta when
     * the edge cannot be activated).
     */
    void addPipeline(TaskId producer, std::uint8_t producerPort,
                     TaskId consumer, std::uint8_t consumerPort);

    /**
     * Re-hang every pending successor edge of @p from onto @p to
     * (successor transfer).  Pipeline edges become Barrier edges
     * across the transfer — the forwarded stream identity does not
     * survive a producer change.
     */
    void transferSuccessors(TaskId from, TaskId to);

    /** Create a shared-read group over [base, base + words*8). */
    std::uint32_t addSharedGroup(Addr rangeBase, std::uint64_t words);

    /**
     * Annotate @p task's input @p port as reading within group
     * @p group; its descriptor's dataBase must lie in the range.
     */
    void setSharedInput(TaskId task, std::uint32_t port,
                        std::uint32_t group);

    const std::vector<TaskInstance>& tasks() const { return tasks_; }
    const std::vector<DepEdge>& edges() const { return edges_; }
    const std::vector<SharedGroup>& groups() const { return groups_; }

    TaskInstance& task(TaskId id) { return tasks_.at(id); }
    const TaskInstance& task(TaskId id) const { return tasks_.at(id); }

    std::size_t numTasks() const { return tasks_.size(); }

    /**
     * A topological order of the tasks (Kahn, uid tie-break — stable
     * for a given graph).  Panics if the graph has a cycle, which the
     * online edge-add check should have made impossible.
     */
    std::vector<TaskId> topoOrder() const;

    /** Validate structural invariants (acyclicity, ranges). */
    void validate() const;

    /**
     * Dependence-weighted longest path over this graph, weighting
     * each task by its measured service time in @p spans (indexed by
     * uid; tasks missing a span weigh zero).  Processes tasks in
     * topological order, so edges may point in either uid direction.
     */
    CritPathResult
    criticalPath(const std::vector<TaskSpan>& spans) const;

  private:
    /** True when a path @p from ->* @p to exists over current edges. */
    bool reaches(TaskId from, TaskId to) const;

    /** Reject @p producer -> @p consumer if it would close a cycle. */
    void checkAcyclicEdge(TaskId producer, TaskId consumer) const;

    std::vector<TaskInstance> tasks_;
    std::vector<DepEdge> edges_;
    std::vector<SharedGroup> groups_;

    /** Out-adjacency (edge indices) maintained for cycle checks. */
    std::vector<std::vector<std::uint32_t>> outEdges_;

    /** No "back" edge (producer >= consumer) exists yet: while true,
     *  forward edge additions cannot close a cycle and the online
     *  DFS is skipped entirely (the common, statically-built case). */
    bool creationOrdered_ = true;
};

} // namespace ts

#endif // TS_TASK_TASK_GRAPH_HH
