#include "task/task_graph.hh"

#include <deque>

#include "sim/logging.hh"

namespace ts
{

TaskHandle
TaskGraph::addTask(TaskTypeId type, std::vector<StreamDesc> inputs,
                   std::vector<WriteDesc> outputs)
{
    TaskInstance inst;
    inst.uid = static_cast<TaskId>(tasks_.size());
    inst.type = type;
    inst.inputs = std::move(inputs);
    inst.outputs = std::move(outputs);
    inst.inputGroup.assign(inst.inputs.size(), kNoGroup);
    tasks_.push_back(std::move(inst));
    outEdges_.emplace_back();
    return TaskHandle{tasks_.back().uid};
}

CompletionHandle
TaskGraph::completion(TaskId task) const
{
    TS_ASSERT(task < tasks_.size());
    return CompletionHandle{task};
}

bool
TaskGraph::reaches(TaskId from, TaskId to) const
{
    if (from == to)
        return true;
    std::vector<bool> seen(tasks_.size(), false);
    std::vector<TaskId> stack{from};
    seen[from] = true;
    while (!stack.empty()) {
        const TaskId at = stack.back();
        stack.pop_back();
        for (const std::uint32_t ei : outEdges_[at]) {
            const TaskId next = edges_[ei].consumer;
            if (next == to)
                return true;
            if (!seen[next]) {
                seen[next] = true;
                stack.push_back(next);
            }
        }
    }
    return false;
}

void
TaskGraph::checkAcyclicEdge(TaskId producer, TaskId consumer) const
{
    TS_ASSERT(producer != consumer, "self-dependence on task ",
              producer, " rejected");
    // While every edge so far follows creation order, ascending uid
    // is a topological order and a forward edge cannot close a cycle.
    if (creationOrdered_ && producer < consumer)
        return;
    TS_ASSERT(!reaches(consumer, producer),
              "dependence ", producer, " -> ", consumer,
              " would close a cycle");
}

void
TaskGraph::addBarrier(TaskId producer, TaskId consumer)
{
    TS_ASSERT(producer < tasks_.size());
    TS_ASSERT(consumer < tasks_.size());
    checkAcyclicEdge(producer, consumer);
    edges_.push_back(DepEdge{producer, consumer, DepKind::Barrier, 0, 0});
    outEdges_[producer].push_back(
        static_cast<std::uint32_t>(edges_.size() - 1));
    if (producer >= consumer)
        creationOrdered_ = false;
}

void
TaskGraph::addBarrier(const CompletionHandle& producer, TaskId consumer)
{
    addBarrier(producer.task(), consumer);
}

void
TaskGraph::addPipeline(TaskId producer, std::uint8_t producerPort,
                       TaskId consumer, std::uint8_t consumerPort)
{
    TS_ASSERT(producer < tasks_.size());
    TS_ASSERT(consumer < tasks_.size());
    TS_ASSERT(producerPort < tasks_[producer].outputs.size());
    TS_ASSERT(consumerPort < tasks_[consumer].inputs.size());
    checkAcyclicEdge(producer, consumer);
    edges_.push_back(DepEdge{producer, consumer, DepKind::Pipeline,
                             producerPort, consumerPort});
    outEdges_[producer].push_back(
        static_cast<std::uint32_t>(edges_.size() - 1));
    if (producer >= consumer)
        creationOrdered_ = false;
}

void
TaskGraph::transferSuccessors(TaskId from, TaskId to)
{
    TS_ASSERT(from < tasks_.size());
    TS_ASSERT(to < tasks_.size());
    TS_ASSERT(from != to, "cannot transfer successors to self");
    for (const std::uint32_t ei : outEdges_[from]) {
        DepEdge& e = edges_[ei];
        TS_ASSERT(e.consumer != to,
                  "successor transfer ", from, " -> ", to,
                  " would make task ", to, " depend on itself");
        checkAcyclicEdge(to, e.consumer);
    }
    for (const std::uint32_t ei : outEdges_[from]) {
        DepEdge& e = edges_[ei];
        e.producer = to;
        // The forwarded stream identity does not survive a producer
        // change; the consumer falls back to its memory descriptor.
        if (e.kind == DepKind::Pipeline) {
            e.kind = DepKind::Barrier;
            e.producerPort = 0;
            e.consumerPort = 0;
        }
        outEdges_[to].push_back(ei);
        if (to >= e.consumer)
            creationOrdered_ = false;
    }
    outEdges_[from].clear();
}

std::uint32_t
TaskGraph::addSharedGroup(Addr rangeBase, std::uint64_t words)
{
    TS_ASSERT(rangeBase % wordBytes == 0,
              "shared ranges must be word-aligned");
    TS_ASSERT(words > 0);
    SharedGroup g;
    g.id = static_cast<std::uint32_t>(groups_.size());
    g.rangeBase = rangeBase;
    g.words = words;
    groups_.push_back(g);
    return groups_.back().id;
}

void
TaskGraph::setSharedInput(TaskId task, std::uint32_t port,
                          std::uint32_t group)
{
    TS_ASSERT(task < tasks_.size());
    TS_ASSERT(group < groups_.size());
    TaskInstance& inst = tasks_[task];
    TS_ASSERT(port < inst.inputs.size());
    const SharedGroup& g = groups_[group];
    const StreamDesc& d = inst.inputs[port];
    TS_ASSERT(d.dataSpace == Space::Dram,
              "shared inputs must start as DRAM streams");
    TS_ASSERT(d.dataBase >= g.rangeBase &&
                  d.dataBase < g.rangeBase + g.words * wordBytes,
              "shared input base outside the group range");
    inst.inputGroup[port] = group;
    groups_[group].members.push_back(task);
}

std::vector<TaskId>
TaskGraph::topoOrder() const
{
    std::vector<std::uint32_t> indeg(tasks_.size(), 0);
    for (const DepEdge& e : edges_)
        ++indeg[e.consumer];

    // Kahn with a FIFO frontier: uids enter in ascending order and
    // successors are released in edge-creation order, so the result
    // is a deterministic function of the graph alone.
    std::deque<TaskId> frontier;
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
        if (indeg[i] == 0)
            frontier.push_back(static_cast<TaskId>(i));
    }

    std::vector<TaskId> order;
    order.reserve(tasks_.size());
    while (!frontier.empty()) {
        const TaskId at = frontier.front();
        frontier.pop_front();
        order.push_back(at);
        for (const std::uint32_t ei : outEdges_[at]) {
            const TaskId next = edges_[ei].consumer;
            if (--indeg[next] == 0)
                frontier.push_back(next);
        }
    }
    TS_ASSERT(order.size() == tasks_.size(),
              "task graph has a cycle (", tasks_.size() - order.size(),
              " tasks unreachable from the acyclic frontier)");
    return order;
}

void
TaskGraph::validate() const
{
    for (const DepEdge& e : edges_) {
        TS_ASSERT(e.producer < tasks_.size() &&
                  e.consumer < tasks_.size());
        TS_ASSERT(e.producer != e.consumer);
    }
    for (const SharedGroup& g : groups_)
        TS_ASSERT(!g.members.empty(), "shared group with no members");
    topoOrder(); // panics on a cycle
}

CritPathResult
TaskGraph::criticalPath(const std::vector<TaskSpan>& spans) const
{
    if (tasks_.empty())
        return CritPathResult{};
    return criticalPathOver(edges_, topoOrder(), spans);
}

CritPathResult
criticalPathOver(const std::vector<DepEdge>& edges,
                 const std::vector<TaskId>& topo,
                 const std::vector<TaskSpan>& spans)
{
    CritPathResult r;
    const std::size_t n = topo.size();
    if (n == 0)
        return r;

    // Service time per task (zero when unmeasured).
    std::vector<Tick> service(n, 0);
    for (const TaskSpan& s : spans) {
        if (s.uid < n)
            service[s.uid] = s.service();
    }
    for (const Tick s : service)
        r.serialCycles += s;

    // Earliest start and end of each task, finalized in topological
    // order (edges may point in either uid direction now).  A barrier
    // edge starts its consumer at the producer's end.  A pipeline
    // consumer streams its producer's output as it is made, so it may
    // start with the producer but not end before it.  Ties keep the
    // first producer in edge order, so the path does not depend on
    // which topological order is walked.
    std::vector<std::vector<const DepEdge*>> preds(n);
    for (const DepEdge& e : edges)
        preds[e.consumer].push_back(&e);

    std::vector<Tick> start(n, 0);
    std::vector<Tick> dist(n, 0);
    std::vector<std::int64_t> pred(n, -1);
    for (const TaskId i : topo) {
        for (const DepEdge* e : preds[i]) {
            const TaskId p = e->producer;
            const Tick t =
                e->kind == DepKind::Pipeline ? start[p] : dist[p];
            if (t > start[i]) {
                start[i] = t;
                pred[i] = p;
            }
        }
        dist[i] = start[i] + service[i];
        for (const DepEdge* e : preds[i]) {
            if (e->kind == DepKind::Pipeline &&
                dist[e->producer] > dist[i]) {
                dist[i] = dist[e->producer];
                pred[i] = e->producer;
            }
        }
    }

    TaskId tail = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (dist[i] > dist[tail])
            tail = static_cast<TaskId>(i);
    }
    r.criticalPathCycles = dist[tail];

    for (std::int64_t at = tail; at >= 0; at = pred[at])
        r.path.push_back(static_cast<TaskId>(at));
    std::reverse(r.path.begin(), r.path.end());
    return r;
}

} // namespace ts
