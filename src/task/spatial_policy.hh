/**
 * @file
 * The Spatial dispatch policy's state and logic: the ahead-of-time
 * lane plan, the landing groups producer dispatches open, and the
 * per-lane landing-buffer budget.
 *
 * The dispatcher holds one of these exactly when it runs
 * SchedPolicy::Spatial; the online policies carry no state and live
 * in Dispatcher::pickLane's switch.  The class is a plain value, so a
 * dispatcher snapshot copies it whole.  Every decision reads only
 * simulated state, which keeps forwarding and spills deterministic
 * across host parallelism and snapshot/fork (DESIGN.md §10).
 */

#ifndef TS_TASK_SPATIAL_POLICY_HH
#define TS_TASK_SPATIAL_POLICY_HH

#include <map>
#include <string>
#include <vector>

#include "task/messages.hh"

namespace ts
{

class StatSet;
struct DispatcherState;

class SpatialPolicy
{
  public:
    /**
     * @param laneNodes   NoC node of each lane.
     * @param bufferWords per-lane landing-buffer budget (words); a
     *                    forwarded group whose buffer does not fit
     *                    spills permanently to the DRAM round-trip.
     * @param remapFactor a spawned heir escapes its inherited lane
     *                    when that lane's outstanding work exceeds
     *                    this multiple of the mean.
     */
    SpatialPolicy(std::vector<std::uint32_t> laneNodes,
                  std::uint64_t bufferWords, double remapFactor);

    /** Install the AOT plan (lane per uid, -1 = unplanned). */
    void setPlan(std::vector<std::int32_t> lanes)
    {
        plannedLane_ = std::move(lanes);
    }

    /** The lane @p id is pinned to: its planned lane, else
     *  uid % lanes. */
    std::uint32_t plannedLane(TaskId id) const;

    /** Assign planned lanes to the @p count tasks spawned at uid
     *  @p base by @p spawner (heir inheritance plus the
     *  imbalance-remap escape hatch). */
    void planSpawned(const DispatcherState& d, TaskId spawner,
                     std::size_t base, std::size_t count,
                     std::int64_t heir);

    /** Producer-dispatch-time forwarding decisions: open landing
     *  groups and rewrite @p pm's outputs with spatial destinations
     *  and write-back suppression.  Trace events go on @p track. */
    void resolveProducer(const DispatcherState& d, TaskId id,
                         bool builtin, DispatchMsg& pm,
                         const std::string& track);

    /** Consumer-dispatch-time rewrites: landing-mode inputs plus the
     *  waitSpatial gate snapshot. */
    void rewriteConsumer(TaskId id, DispatchMsg& m) const;

    /** Free @p uid's landing-buffer reservations on completion. */
    void release(TaskId uid);

    /** delta.spatial.* and delta.attrib.spatial.bufPeakWords. */
    void reportStats(StatSet& stats) const;

  private:
    /**
     * One landing group: a consumer input port receiving forwarded
     * producer streams.  Created at the *first* forwarding
     * producer's dispatch; the buffer-fit (spill) decision is made
     * once, then is permanent.
     */
    struct Group
    {
        std::int32_t lane = -1;          ///< consumer's pinned lane
        std::uint64_t bufWords = 0;      ///< lines-rounded port extent
        std::uint32_t expectedDones = 0; ///< forwarding producers
        bool spilled = false;
        bool allocated = false;
    };

    std::vector<std::uint32_t> laneNodes_;
    std::uint64_t bufferWords_;
    double remapFactor_;

    /** AOT plan: lane per uid; spawned tasks extend it at spawn. */
    std::vector<std::int32_t> plannedLane_;
    /** Landing groups keyed by (consumer uid << 3) | port — ordered,
     *  so a consumer's groups are a contiguous key range. */
    std::map<std::uint64_t, Group> groups_;
    std::vector<std::uint64_t> laneBufUsed_;
    std::uint64_t bufPeak_ = 0;
    std::uint64_t forwards_ = 0;
    std::uint64_t spills_ = 0;
    std::uint64_t remaps_ = 0;
    std::uint64_t groupsAllocated_ = 0;
};

} // namespace ts

#endif // TS_TASK_SPATIAL_POLICY_HH
