#include "spatial/mapper.hh"

#include <algorithm>
#include <cmath>

#include "noc/noc.hh"
#include "spatial/spatial.hh"
#include "task/task_graph.hh"
#include "task/task_types.hh"

namespace ts
{
namespace spatial
{

namespace
{

/** One graph edge with its communication weight resolved. */
struct CommEdge
{
    TaskId producer = 0;
    TaskId consumer = 0;
    std::uint64_t words = 0;
};

/** Balance weights tried, as multiples of the comm/work scale.  0 is
 *  pure affinity (chains collapse onto few lanes); 4 is close to pure
 *  load balancing.  Fixed list => deterministic plans. */
constexpr double kBetas[] = {0.0, 0.25, 1.0, 4.0};

} // namespace

SpatialPlan
mapTaskGraph(const TaskGraph& g, const MemImage& img,
             const TaskTypeRegistry& reg, const Noc& noc,
             const std::vector<std::uint32_t>& laneNodes,
             std::uint32_t linkWords)
{
    const std::size_t n = g.numTasks();
    const std::uint32_t lanes =
        static_cast<std::uint32_t>(laneNodes.size());
    SpatialPlan plan;
    plan.lane.assign(n, -1);
    plan.pinned.assign(n, false);
    if (n == 0 || lanes == 0)
        return plan;
    if (linkWords == 0)
        linkWords = 1;

    const std::vector<TaskId> topo = g.topoOrder();
    // The list schedule below orders every edge end to start, so the
    // critical path it is scored against does too.
    std::vector<DepEdge> edges = g.edges();
    for (DepEdge& e : edges)
        e.kind = DepKind::Barrier;

    // Per-task work estimates (cycles; floor 1 so every placement
    // decision is load-visible).
    std::vector<double> work(n, 1.0);
    double totalWork = 0.0;
    for (TaskId uid = 0; uid < n; ++uid) {
        work[uid] = std::max(1.0, reg.estimateWork(img, g.task(uid)));
        totalWork += work[uid];
    }

    // Resolve each edge's communication weight: the extent of the
    // consumer input the producer feeds when the pair is spatially
    // forwardable, else a one-line token of affinity so plain barrier
    // chains still prefer co-location.
    std::vector<CommEdge> comm;
    comm.reserve(g.edges().size());
    std::vector<std::vector<std::uint32_t>> inEdges(n);
    std::vector<std::pair<TaskId, TaskId>> forwards; // (consumer, producer)
    double totalComm = 0.0;
    for (const DepEdge& e : g.edges()) {
        CommEdge ce{e.producer, e.consumer, lineWords};
        const TaskInstance& prod = g.task(e.producer);
        const TaskInstance& cons = g.task(e.consumer);
        std::uint64_t fwdWords = 0;
        for (const StreamDesc& in : cons.inputs) {
            if (!landingEligibleInput(in))
                continue;
            for (const WriteDesc& w : prod.outputs) {
                if (forwardableOutput(w) && outputFeedsInput(w, in)) {
                    fwdWords += in.count;
                    break;
                }
            }
        }
        if (fwdWords > 0) {
            ce.words = fwdWords;
            forwards.emplace_back(e.consumer, e.producer);
            ++plan.forwardableEdges;
            plan.forwardableWords += fwdWords;
        }
        totalComm += static_cast<double>(ce.words);
        inEdges[e.consumer].push_back(
            static_cast<std::uint32_t>(comm.size()));
        comm.push_back(ce);
    }

    // Pin set.  A consumer of a forwardable edge is pinned, so its
    // producers know where to stream.  Its forwarders are pinned too
    // when there are at most as many as lanes: the plan can then
    // give each its own lane beside or near the consumer (msort's
    // merge tree).  A wider fan-in (a reduction sink fed by dozens of
    // producers, as in tricount and join) makes the plan stack
    // forwarders on the sink's lane, where they queue; those stay
    // online and are balanced at run time.
    std::sort(forwards.begin(), forwards.end());
    forwards.erase(std::unique(forwards.begin(), forwards.end()),
                   forwards.end());
    for (std::size_t i = 0; i < forwards.size();) {
        std::size_t j = i;
        while (j < forwards.size() &&
               forwards[j].first == forwards[i].first) {
            ++j;
        }
        plan.pinned[forwards[i].first] = true;
        if (j - i <= lanes) {
            for (std::size_t k = i; k < j; ++k)
                plan.pinned[forwards[k].second] = true;
        }
        i = j;
    }

    // Affinity is measured in words, load in cycles; `scale` converts
    // load into affinity units so the betas are dimensionless.
    const double scale = (totalComm + 1.0) / (totalWork + 1.0);

    std::vector<std::int32_t> best;
    Tick bestScore = 0;
    for (std::size_t cand = 0; cand < std::size(kBetas); ++cand) {
        const double beta = kBetas[cand];
        ++plan.candidatesTried;

        // Greedy topo-order placement: put each task where its
        // already-placed producers are close (hop-discounted edge
        // words) minus a load penalty.
        std::vector<std::int32_t> assign(n, -1);
        std::vector<double> load(lanes, 0.0);
        for (TaskId uid : topo) {
            std::int32_t bestLane = 0;
            double bestAff = 0.0;
            for (std::uint32_t l = 0; l < lanes; ++l) {
                double aff = -beta * load[l] * scale;
                for (std::uint32_t ei : inEdges[uid]) {
                    const CommEdge& ce = comm[ei];
                    const std::int32_t pl = assign[ce.producer];
                    if (pl < 0)
                        continue;
                    const std::uint32_t hops = noc.hopDistance(
                        laneNodes[static_cast<std::size_t>(pl)],
                        laneNodes[l]);
                    aff += static_cast<double>(ce.words) /
                           (1.0 + hops);
                }
                if (l == 0 || aff > bestAff) {
                    bestAff = aff;
                    bestLane = static_cast<std::int32_t>(l);
                }
            }
            assign[uid] = bestLane;
            load[static_cast<std::size_t>(bestLane)] += work[uid];
        }

        // Evaluate: a deterministic communication-aware list schedule
        // in topo order.  A task becomes ready when every producer has
        // finished and its edge data has crossed the mesh; it starts
        // when its lane frees up.
        std::vector<Tick> finish(n, 0);
        std::vector<Tick> freeAt(lanes, 0);
        std::vector<TaskSpan> spans(n);
        Tick makespan = 0;
        for (TaskId uid : topo) {
            const auto lane = static_cast<std::size_t>(assign[uid]);
            Tick ready = 0;
            Tick commMax = 0;
            for (std::uint32_t ei : inEdges[uid]) {
                const CommEdge& ce = comm[ei];
                Tick arrive = finish[ce.producer];
                if (assign[ce.producer] != assign[uid]) {
                    const std::uint32_t hops = noc.hopDistance(
                        laneNodes[static_cast<std::size_t>(
                            assign[ce.producer])],
                        laneNodes[lane]);
                    const Tick xfer =
                        static_cast<Tick>(hops) *
                        divCeil(ce.words, std::uint64_t{linkWords});
                    arrive += xfer;
                    commMax = std::max(commMax, xfer);
                }
                ready = std::max(ready, arrive);
            }
            const Tick w = std::max<Tick>(
                1, static_cast<Tick>(std::llround(work[uid])));
            const Tick start = std::max(ready, freeAt[lane]);
            finish[uid] = start + w;
            freeAt[lane] = finish[uid];
            makespan = std::max(makespan, finish[uid]);
            // Charge inbound communication to the task's span so the
            // graph's own critical-path analysis sees placement: a
            // cross-lane edge lengthens the service it observes.
            spans[uid] = TaskSpan{uid, start - commMax, finish[uid],
                                  assign[uid]};
        }

        const CritPathResult cp = criticalPathOver(edges, topo, spans);
        const Tick score = std::max(makespan, cp.criticalPathCycles);
        if (best.empty() || score < bestScore) {
            best = assign;
            bestScore = score;
            plan.predictedMakespan = makespan;
            plan.predictedCritPath = cp.criticalPathCycles;
            plan.balanceWeight = beta;
        }
    }

    plan.lane = std::move(best);
    return plan;
}

} // namespace spatial
} // namespace ts
