#include "core/workq.hpp"

#include <algorithm>
#include <numeric>

#include "common/panic.hpp"

namespace plus {
namespace core {

WorkQueue
WorkQueue::create(Machine& machine, const std::vector<NodeId>& lane_nodes,
                  unsigned replication)
{
    PLUS_ASSERT(!lane_nodes.empty(), "work queue needs at least one lane");
    PLUS_ASSERT(replication >= 1, "replication counts total copies");

    WorkQueue wq;
    wq.stats_ = std::make_shared<WorkQueueStats>();
    machine.metrics().addCounters(
        kWorkQueueStatRows,
        [stats = wq.stats_](const auto& visit) { visit(*stats); });
    const auto base = static_cast<Word>(proto::kQueueBaseOffset);

    for (NodeId node : lane_nodes) {
        const Addr page = machine.alloc(kPageBytes, node);
        machine.poke(page, base);              // QP (tail offset)
        machine.poke(page + kWordBytes, base); // DQP (head offset)
        wq.lanePages_.push_back(page);
    }

    const net::Topology& topo = machine.network().topology();

    // Extra copies of each lane page go to the nearest *other* lane
    // nodes, spreading read traffic like the paper's replication levels.
    if (replication > 1) {
        for (std::size_t lane = 0; lane < lane_nodes.size(); ++lane) {
            std::vector<NodeId> others;
            for (NodeId n : lane_nodes) {
                if (n != lane_nodes[lane] &&
                    std::find(others.begin(), others.end(), n) ==
                        others.end()) {
                    others.push_back(n);
                }
            }
            std::sort(others.begin(), others.end(),
                      [&](NodeId a, NodeId b) {
                          return topo.distance(lane_nodes[lane], a) <
                                 topo.distance(lane_nodes[lane], b);
                      });
            const unsigned extra =
                std::min<unsigned>(replication - 1,
                                   static_cast<unsigned>(others.size()));
            for (unsigned i = 0; i < extra; ++i) {
                machine.replicate(wq.lanePages_[lane], others[i]);
            }
        }
        machine.settle();
    }

    // Precompute the stealing order: own lane first, then lanes whose
    // queue page has a *local replica* (polling them is a local read —
    // the load-balancing benefit the paper attributes to replicating
    // the queues), then the rest by mesh distance.
    wq.stealOrder_.resize(lane_nodes.size());
    wq.cheap_.resize(lane_nodes.size());
    for (std::size_t lane = 0; lane < lane_nodes.size(); ++lane) {
        const NodeId home = lane_nodes[lane];
        auto rank = [&](unsigned l) -> std::uint64_t {
            if (l == lane) {
                return 0;
            }
            const bool local_copy =
                machine.copyListOf(wq.lanePages_[l]).hasCopyOn(home);
            return (local_copy ? 0u : 1000u) +
                   topo.distance(home, lane_nodes[l]);
        };
        std::vector<unsigned>& order = wq.stealOrder_[lane];
        order.resize(lane_nodes.size());
        std::iota(order.begin(), order.end(), 0u);
        std::stable_sort(order.begin(), order.end(),
                         [&](unsigned a, unsigned b) {
                             return rank(a) < rank(b);
                         });
        unsigned cheap = 0;
        for (unsigned l : order) {
            if (rank(l) < 1000) {
                ++cheap;
            }
        }
        wq.cheap_[lane] = std::max(1u, cheap);
    }
    return wq;
}

unsigned
WorkQueue::capacityPerLane() const
{
    // Full/empty detection is per-slot (the top bit), so every slot of
    // the ring is usable even when the tail wraps onto the head.
    return static_cast<unsigned>(kPageWords - proto::kQueueBaseOffset);
}

bool
WorkQueue::tryPush(Context& ctx, unsigned lane, Word item)
{
    PLUS_ASSERT(lane < lanes(), "push to unknown lane");
    PLUS_ASSERT(!(item & kTopBit), "work items are 31-bit payloads");
    const bool ok = !(ctx.enqueue(lanePages_[lane], item) & kTopBit);
    (ok ? stats_->pushes : stats_->pushFull) += 1;
    return ok;
}

void
WorkQueue::push(Context& ctx, unsigned lane, Word item)
{
    while (!tryPush(ctx, lane, item)) {
        ctx.pause(32);
    }
}

std::optional<Word>
WorkQueue::tryPop(Context& ctx, unsigned lane)
{
    PLUS_ASSERT(lane < lanes(), "pop from unknown lane");
    const Addr page = lanePages_[lane];
    // Test before the interlocked dequeue: reading the head slot is an
    // ordinary read — node-local when the lane page is replicated. This
    // is what makes polling other processors' queues affordable and is
    // the load-balancing benefit the paper attributes to replicating
    // the queues (Section 2.5). A stale copy can only cause a missed
    // steal or a wasted dequeue, never an incorrect one.
    const Word head = ctx.read(page + kWordBytes) %
                      static_cast<Word>(kPageWords);
    const Word slot = ctx.read(page + kWordBytes * Addr{head});
    if (!(slot & kTopBit)) {
        stats_->emptyPolls += 1;
        return std::nullopt;
    }
    const Word got = ctx.dequeue(page + kWordBytes);
    if (got & kTopBit) {
        stats_->pops += 1;
        return got & kPayloadMask;
    }
    stats_->emptyPolls += 1;
    return std::nullopt;
}

std::optional<Word>
WorkQueue::popAny(Context& ctx, unsigned home_lane, unsigned max_scan)
{
    PLUS_ASSERT(home_lane < lanes(), "unknown home lane");
    unsigned scanned = 0;
    for (unsigned lane : stealOrder_[home_lane]) {
        if (scanned++ >= max_scan) {
            break;
        }
        if (auto item = tryPop(ctx, lane)) {
            if (lane != home_lane) {
                stats_->steals += 1;
            }
            return item;
        }
    }
    return std::nullopt;
}

} // namespace core
} // namespace plus
