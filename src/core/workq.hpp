/**
 * @file
 * Distributed work queue in the style of the paper's shortest-path and
 * beam-search implementations (Sections 2.5 and 3.4): one hardware
 * queue "lane" per participating node (to avoid the serialization a
 * single central queue suffers from), with work stealing in mesh-
 * distance order for load balance, and optional replication of the
 * lane pages so that emptiness polling is a local read.
 */

#ifndef PLUS_CORE_WORKQ_HPP_
#define PLUS_CORE_WORKQ_HPP_

#include <memory>
#include <optional>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/context.hpp"
#include "core/machine.hpp"

namespace plus {
namespace core {

/**
 * Work-queue activity counters, registered with the machine's metrics
 * registry as workq.* at create(). Shared-pointer owned so the getters
 * stay valid across the queue's by-value moves.
 */
struct WorkQueueStats {
    std::uint64_t pushes = 0;     ///< items successfully enqueued
    std::uint64_t pushFull = 0;   ///< tryPush hit a full lane
    std::uint64_t pops = 0;       ///< items successfully dequeued
    std::uint64_t emptyPolls = 0; ///< tryPop found the lane empty
    std::uint64_t steals = 0;     ///< pops served by a non-home lane
};

/** WorkQueueStats exported as workq.* (#2, #3, ... per extra queue). */
inline constexpr StatRow<WorkQueueStats> kWorkQueueStatRows[] = {
    {"workq.pushes", &WorkQueueStats::pushes},
    {"workq.pushFull", &WorkQueueStats::pushFull},
    {"workq.pops", &WorkQueueStats::pops},
    {"workq.emptyPolls", &WorkQueueStats::emptyPolls},
    {"workq.steals", &WorkQueueStats::steals},
};

/** Multi-lane distributed queue of 31-bit work items. */
class WorkQueue
{
  public:
    /**
     * Create one lane per entry of @p lane_nodes, homed on that node.
     * @param replication  Total copies per lane page (1 = no
     *        replication); extra copies go to the mesh-nearest other
     *        lane nodes, reproducing the paper's replication levels.
     */
    static WorkQueue create(Machine& machine,
                            const std::vector<NodeId>& lane_nodes,
                            unsigned replication = 1);

    unsigned lanes() const
    {
        return static_cast<unsigned>(lanePages_.size());
    }

    /** Items a lane can hold. */
    unsigned capacityPerLane() const;

    /** Enqueue onto @p lane; false if the lane is full. */
    bool tryPush(Context& ctx, unsigned lane, Word item);

    /** Enqueue onto @p lane, spinning while it is full. */
    void push(Context& ctx, unsigned lane, Word item);

    /** Dequeue from @p lane; nullopt if it is empty. */
    std::optional<Word> tryPop(Context& ctx, unsigned lane);

    /**
     * Dequeue from @p home_lane, then steal from other lanes in mesh-
     * distance order; nullopt when the scanned lanes all came up empty.
     * @param max_scan  Bound on the number of lanes probed (stealing
     *                  from the whole machine on every idle poll is
     *                  prohibitively expensive at scale).
     */
    std::optional<Word> popAny(Context& ctx, unsigned home_lane,
                               unsigned max_scan = ~0u);

    Addr lanePage(unsigned lane) const { return lanePages_[lane]; }

    /**
     * Number of lanes (including the own lane) whose queue page has a
     * copy on @p lane's node, i.e. lanes that are cheap to poll. These
     * come first in the steal order.
     */
    unsigned cheapLanes(unsigned lane) const { return cheap_[lane]; }

    const WorkQueueStats& stats() const { return *stats_; }

  private:
    WorkQueue() = default;

    std::shared_ptr<WorkQueueStats> stats_;
    std::vector<Addr> lanePages_;
    /** stealOrder_[lane] = all lanes, cheap (local-replica) ones first,
     *  then by mesh distance. */
    std::vector<std::vector<unsigned>> stealOrder_;
    std::vector<unsigned> cheap_;
};

} // namespace core
} // namespace plus

#endif // PLUS_CORE_WORKQ_HPP_
