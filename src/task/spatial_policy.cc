#include "task/spatial_policy.hh"

#include <algorithm>

#include "sim/stats.hh"
#include "spatial/spatial.hh"
#include "task/dispatcher.hh"
#include "trace/trace.hh"

namespace ts
{

SpatialPolicy::SpatialPolicy(std::vector<std::uint32_t> laneNodes,
                             std::uint64_t bufferWords,
                             double remapFactor)
    : laneNodes_(std::move(laneNodes)), bufferWords_(bufferWords),
      remapFactor_(remapFactor), laneBufUsed_(laneNodes_.size(), 0)
{
}

std::uint32_t
SpatialPolicy::plannedLane(TaskId id) const
{
    if (id < plannedLane_.size() && plannedLane_[id] >= 0)
        return static_cast<std::uint32_t>(plannedLane_[id]);
    return id % static_cast<std::uint32_t>(laneNodes_.size());
}

void
SpatialPolicy::planSpawned(const DispatcherState& d, TaskId spawner,
                           std::size_t base, std::size_t count,
                           std::int64_t heir)
{
    if (count == 0)
        return;
    if (plannedLane_.size() < base)
        plannedLane_.resize(base, -1);
    plannedLane_.resize(base + count, -1);

    // The transfer heir inherits the spawner's planned lane: the AOT
    // plan put the spawner where its (now transferred) successors
    // want their producer, and sibling outputs forward into the heir
    // over the NoC regardless of where the siblings land.  Escape
    // hatch: when the inherited lane is overloaded relative to the
    // mean, the heir moves to the least-loaded lane (lowest index
    // wins, keeping the decision deterministic).
    const std::vector<double>& laneWork = d.laneWork_;
    std::uint32_t inherit = plannedLane(spawner);
    double mean = 0.0;
    for (const double w : laneWork)
        mean += w;
    mean /= static_cast<double>(laneWork.size());
    if (laneWork[inherit] > remapFactor_ * mean) {
        std::uint32_t best = 0;
        for (std::uint32_t l = 1; l < laneWork.size(); ++l) {
            if (laneWork[l] < laneWork[best])
                best = l;
        }
        if (best != inherit) {
            inherit = best;
            ++remaps_;
        }
    }

    // Non-heir siblings are fresh parallel work; serializing them on
    // the spawner's lane would forfeit the recursion's parallelism.
    // Spread them over the least-loaded lanes, tracking this call's
    // own placements by estimated work (deterministic: laneWork_ and
    // workEst are simulated state).
    std::vector<double> load = laneWork;
    const bool heirLocal =
        heir >= 0 && static_cast<std::size_t>(heir) >= base &&
        static_cast<std::size_t>(heir) < base + count;
    if (heirLocal) {
        plannedLane_[static_cast<std::size_t>(heir)] =
            static_cast<std::int32_t>(inherit);
        load[inherit] +=
            d.states_[static_cast<std::size_t>(heir)].workEst;
    }
    for (std::size_t k = 0; k < count; ++k) {
        const std::size_t id = base + k;
        if (heirLocal && static_cast<std::size_t>(heir) == id)
            continue;
        std::uint32_t best = 0;
        for (std::uint32_t l = 1; l < load.size(); ++l) {
            if (load[l] < load[best])
                best = l;
        }
        plannedLane_[id] = static_cast<std::int32_t>(best);
        load[best] += d.states_[id].workEst;
    }
}

void
SpatialPolicy::resolveProducer(const DispatcherState& d, TaskId id,
                               bool builtin, DispatchMsg& pm,
                               const std::string& track)
{
    const DispatcherState::TaskState& ps = d.states_[id];
    for (std::size_t oi = 0; oi < pm.outputs.size(); ++oi) {
        WriteDesc& out = pm.outputs[oi];
        if (!spatial::forwardableOutput(out))
            continue;
        // Builtin bodies only stream outputs[0] through the timed
        // write path (see TaskUnit::BuiltinWrite).
        if (builtin && oi != 0)
            continue;

        // Forward to every successor whose eligible input covers this
        // output; suppress the DRAM write-back only when *all*
        // successors that touch the range were forwarded (an
        // un-analyzable reader keeps the round-trip).
        bool touched = false;
        bool forwardedAll = true;
        std::vector<std::uint64_t> fwdGroups; // dedupe multi-edges
        for (std::size_t ei : ps.outEdges) {
            const TaskId c = d.edges_[ei].e.consumer;
            const DispatcherState::TaskState& cs = d.states_[c];
            if (cs.dispatched || cs.completed)
                continue;
            for (std::size_t p = 0; p < cs.inst.inputs.size(); ++p) {
                const StreamDesc& in = cs.inst.inputs[p];
                if (in.dataSpace != Space::Dram)
                    continue;
                const bool eligible =
                    spatial::landingEligibleInput(in) &&
                    cs.inst.inputGroup[p] == kNoGroup;
                if (!eligible) {
                    // Gather/CSR reads have no statically known
                    // range: assume they may touch this output.
                    if (in.kind != StreamDesc::Kind::Linear ||
                        spatial::outputFeedsInput(out, in)) {
                        touched = true;
                        forwardedAll = false;
                    }
                    continue;
                }
                if (!spatial::outputFeedsInput(out, in))
                    continue;
                touched = true;
                const std::uint64_t g = spatial::landingGroup(
                    c, static_cast<std::uint8_t>(p));
                if (std::find(fwdGroups.begin(), fwdGroups.end(),
                              g) != fwdGroups.end()) {
                    continue;
                }
                auto it = groups_.find(g);
                if (it == groups_.end()) {
                    Group sg;
                    sg.lane = static_cast<std::int32_t>(plannedLane(c));
                    sg.bufWords = spatial::landingBufWords(in);
                    if (laneBufUsed_[sg.lane] + sg.bufWords >
                        bufferWords_) {
                        sg.spilled = true;
                        ++spills_;
                    } else {
                        laneBufUsed_[sg.lane] += sg.bufWords;
                        sg.allocated = true;
                        ++groupsAllocated_;
                        bufPeak_ =
                            std::max(bufPeak_, laneBufUsed_[sg.lane]);
                    }
                    it = groups_.emplace(g, sg).first;
                }
                if (it->second.spilled) {
                    forwardedAll = false;
                    continue;
                }
                out.spatialDsts.push_back(WriteDesc::SpatialDst{
                    laneNodes_[it->second.lane], g});
                ++it->second.expectedDones;
                ++forwards_;
                fwdGroups.push_back(g);
                if (trace::on()) {
                    auto* t = trace::active();
                    t->instant(t->track(track), "spatialForward",
                               trace::args("producer", id, "consumer",
                                           c));
                }
            }
        }
        if (touched && forwardedAll && !out.spatialDsts.empty())
            out.spatialSuppress = true;
    }
}

void
SpatialPolicy::rewriteConsumer(TaskId id, DispatchMsg& m) const
{
    for (std::size_t p = 0; p < m.inputs.size(); ++p) {
        const std::uint64_t g = spatial::landingGroup(
            id, static_cast<std::uint8_t>(p));
        const auto it = groups_.find(g);
        if (it == groups_.end() || it->second.spilled ||
            it->second.expectedDones == 0) {
            continue;
        }
        m.inputs[p].spatialLanding = true;
        m.waitSpatial.push_back(
            SpatialWait{g, it->second.expectedDones});
    }
}

void
SpatialPolicy::release(TaskId uid)
{
    const std::uint64_t lo = static_cast<std::uint64_t>(uid) << 3;
    auto it = groups_.lower_bound(lo);
    while (it != groups_.end() && it->first <= (lo | 7)) {
        if (it->second.allocated) {
            TS_ASSERT(laneBufUsed_[it->second.lane] >=
                      it->second.bufWords);
            laneBufUsed_[it->second.lane] -= it->second.bufWords;
        }
        it = groups_.erase(it);
    }
}

void
SpatialPolicy::reportStats(StatSet& stats) const
{
    stats.set("delta.spatial.forwards", static_cast<double>(forwards_));
    stats.set("delta.spatial.spills", static_cast<double>(spills_));
    stats.set("delta.spatial.remaps", static_cast<double>(remaps_));
    stats.set("delta.spatial.groups",
              static_cast<double>(groupsAllocated_));
    stats.set("delta.attrib.spatial.bufPeakWords",
              static_cast<double>(bufPeak_));
}

} // namespace ts
