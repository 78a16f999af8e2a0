#include "core/placement.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/panic.hpp"
#include "core/machine.hpp"

namespace plus {
namespace core {

void
AccessProfile::profileEnable(Machine& machine)
{
    for (NodeId n = 0; n < machine.nodeCount(); ++n) {
        PLUS_ASSERT(machine.nodeAt(n).refCounters(),
                    "node has no reference counters");
    }
    // The counters count unconditionally; nothing to arm beyond
    // confirming they exist (the overflow policy stays disabled).
}

AccessProfile
AccessProfile::collect(Machine& machine)
{
    AccessProfile profile;
    for (NodeId n = 0; n < machine.nodeCount(); ++n) {
        const mem::RefCounters* counters = machine.nodeAt(n).refCounters();
        PLUS_ASSERT(counters, "node has no reference counters");
        const std::vector<std::uint64_t>& counts = counters->counts();
        for (Vpn vpn = 0; vpn < counts.size(); ++vpn) {
            const std::uint64_t count = counts[vpn];
            if (count == 0) {
                continue;
            }
            profile.counts_[{n, vpn}] += count;
            profile.perPage_[vpn] += count;
            profile.total_ += count;
        }
    }
    return profile;
}

std::uint64_t
AccessProfile::count(NodeId node, Vpn vpn) const
{
    auto it = counts_.find({node, vpn});
    return it == counts_.end() ? 0 : it->second;
}

std::vector<Vpn>
AccessProfile::hotPages() const
{
    std::vector<Vpn> pages;
    pages.reserve(perPage_.size());
    for (const auto& [vpn, count] : perPage_) {
        (void)count;
        pages.push_back(vpn);
    }
    std::stable_sort(pages.begin(), pages.end(), [this](Vpn a, Vpn b) {
        return perPage_.at(a) > perPage_.at(b);
    });
    return pages;
}

PlacementPlan
derivePlan(Machine& machine, const AccessProfile& profile,
           const PlacementPolicy& policy)
{
    PlacementPlan plan;
    for (Vpn vpn : profile.hotPages()) {
        const mem::CopyList& cl = machine.copyListOf(pageBase(vpn));
        const NodeId master = cl.master().node;

        // Gather each node's interest in this page.
        std::vector<std::pair<NodeId, std::uint64_t>> interest;
        std::uint64_t page_total = 0;
        for (NodeId n = 0; n < machine.nodeCount(); ++n) {
            const std::uint64_t c = profile.count(n, vpn);
            if (c > 0) {
                interest.push_back({n, c});
                page_total += c;
            }
        }
        if (interest.empty()) {
            continue;
        }
        std::stable_sort(interest.begin(), interest.end(),
                         [](const auto& a, const auto& b) {
                             return a.second > b.second;
                         });

        // One dominant consumer and a master nobody else misses:
        // migrate the master to the consumer.
        const auto& [top_node, top_count] = interest.front();
        if (static_cast<double>(top_count) >=
                policy.migrateFraction * static_cast<double>(page_total) &&
            top_count >= policy.replicateThreshold &&
            cl.size() == 1 && !cl.hasCopyOn(top_node)) {
            plan.migrations.push_back({vpn, master, top_node});
            continue;
        }

        // Otherwise replicate for every sufficiently interested node.
        unsigned copies = static_cast<unsigned>(cl.size());
        for (const auto& [node, count] : interest) {
            if (copies >= policy.maxCopies) {
                break;
            }
            if (count >= policy.replicateThreshold &&
                !cl.hasCopyOn(node)) {
                plan.replications.push_back({vpn, node});
                ++copies;
            }
        }
    }
    return plan;
}

std::size_t
applyPlan(Machine& machine, const PlacementPlan& plan)
{
    for (const auto& action : plan.replications) {
        machine.replicate(pageBase(action.vpn), action.target);
    }
    machine.settle();
    for (const auto& action : plan.migrations) {
        machine.replicate(pageBase(action.vpn), action.to);
        machine.settle();
        machine.promoteMasterQuiesced(pageBase(action.vpn), action.to);
        machine.deleteCopy(pageBase(action.vpn), action.from);
        machine.settle();
    }
    PLUS_LOG(LogComponent::Machine, "placement plan applied: ",
             plan.replications.size(), " replication(s), ",
             plan.migrations.size(), " migration(s)");
    return plan.actions();
}

} // namespace core
} // namespace plus
