#include "mem/copy_list.hpp"

#include <algorithm>

#include "common/panic.hpp"

namespace plus {
namespace mem {

PhysPage
CopyList::master() const
{
    PLUS_ASSERT(!copies_.empty(), "master() on empty copy-list");
    return copies_.front();
}

bool
CopyList::hasCopyOn(NodeId node) const
{
    return copyOn(node).has_value();
}

std::optional<PhysPage>
CopyList::copyOn(NodeId node) const
{
    for (const PhysPage& copy : copies_) {
        if (copy.node == node) {
            return copy;
        }
    }
    return std::nullopt;
}

std::optional<PhysPage>
CopyList::successorOf(PhysPage copy) const
{
    for (std::size_t i = 0; i + 1 < copies_.size(); ++i) {
        if (copies_[i] == copy) {
            return copies_[i + 1];
        }
    }
    return std::nullopt;
}

void
CopyList::insertAfter(PhysPage after, PhysPage copy)
{
    PLUS_ASSERT(!hasCopyOn(copy.node),
                "node ", copy.node, " already holds a copy");
    auto it = std::find(copies_.begin(), copies_.end(), after);
    PLUS_ASSERT(it != copies_.end(), "insertAfter: anchor not in list");
    copies_.insert(it + 1, copy);
}

void
CopyList::append(PhysPage copy)
{
    PLUS_ASSERT(!hasCopyOn(copy.node),
                "node ", copy.node, " already holds a copy");
    copies_.push_back(copy);
}

void
CopyList::removeOn(NodeId node)
{
    auto it = std::find_if(copies_.begin(), copies_.end(),
                           [node](const PhysPage& c) {
                               return c.node == node;
                           });
    PLUS_ASSERT(it != copies_.end(), "removeOn: node ", node,
                " holds no copy");
    copies_.erase(it);
}

void
CopyList::orderForPathLength(const net::Topology& topology)
{
    if (copies_.size() <= 2) {
        return;
    }
    // Greedy nearest-neighbour chain: keep the master fixed, repeatedly
    // pick the unplaced copy closest to the chain's current tail.
    std::vector<PhysPage> ordered;
    ordered.reserve(copies_.size());
    ordered.push_back(copies_.front());
    std::vector<PhysPage> rest(copies_.begin() + 1, copies_.end());
    while (!rest.empty()) {
        const NodeId tail = ordered.back().node;
        auto best = rest.begin();
        unsigned best_dist = topology.distance(tail, best->node);
        for (auto it = rest.begin() + 1; it != rest.end(); ++it) {
            const unsigned d = topology.distance(tail, it->node);
            if (d < best_dist) {
                best = it;
                best_dist = d;
            }
        }
        ordered.push_back(*best);
        rest.erase(best);
    }
    copies_ = std::move(ordered);
}

unsigned
CopyList::pathLength(const net::Topology& topology) const
{
    unsigned total = 0;
    for (std::size_t i = 0; i + 1 < copies_.size(); ++i) {
        total += topology.distance(copies_[i].node, copies_[i + 1].node);
    }
    return total;
}

} // namespace mem
} // namespace plus
