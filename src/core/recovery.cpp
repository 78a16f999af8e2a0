#include "core/recovery.hpp"

#include <sstream>

#include "common/determinism.hpp"
#include "common/log.hpp"
#include "common/panic.hpp"
#include "core/machine.hpp"
#include "net/reliable_link.hpp"

namespace plus {
namespace core {

RecoveryManager::RecoveryManager(Machine& machine)
    : machine_(machine), nodes_(machine.nodeCount())
{
}

const RecoveryManager::NodeState&
RecoveryManager::state(NodeId node) const
{
    PLUS_ASSERT(node < nodes_.size(), "recovery state for unknown node ",
                node);
    return nodes_[node];
}

void
RecoveryManager::onNodeCrashed(NodeId node)
{
    PLUS_ASSERT(node < nodes_.size(), "crash of unknown node ", node);
    NodeState& st = nodes_[node];
    if (st.crashed) {
        return;
    }
    st.crashed = true;
    st.crashCycle = machine_.now();
    PLUS_LOG(LogComponent::Proto, "node ", node, " fail-stop crashed at cycle ",
             st.crashCycle);
    // Fail-stop: the processor halts with the node. Survivors do not
    // learn anything yet — detection comes from their link layers.
    machine_.haltNode(node);
}

void
RecoveryManager::onPeerDeath(NodeId dead)
{
    PLUS_ASSERT(dead < nodes_.size(), "peer death of unknown node ", dead);
    // Called from inside a link timeout: run the recovery as an event of
    // its own. Several channels toward the dead node can exhaust and
    // report here; recover() runs exactly once regardless.
    if (nodes_[dead].recovered) {
        return;
    }
    machine_.engine_.schedule(0, [this, dead] { recover(dead); });
}

void
RecoveryManager::recover(NodeId dead)
{
    NodeState& st = nodes_[dead];
    PLUS_ASSERT(st.crashed,
                "peer death reported for node ", dead, " which never crashed");
    if (st.recovered) {
        return;
    }
    st.recovered = true;
    recovering_ = dead;
    PLUS_LOG(LogComponent::Proto, "recovery epoch for node ", dead,
             " starting at cycle ", machine_.now());

    // 1. Repair every copy-list the dead node appears in. The walk is
    //    by ascending VPN, so `affected` and `lost` come out sorted —
    //    the coherence managers binary-search them during replay. It
    //    goes by index because a lost page's entry is destroyed inside
    //    the loop.
    mem::PageDirectory& directory = machine_.directory_;
    std::vector<Vpn> affected;
    std::vector<Vpn> lost;
    for (Vpn vpn = 0; vpn < directory.vpnLimit(); ++vpn) {
        if (!directory.contains(vpn) ||
            !directory.copyList(vpn).hasCopyOn(dead)) {
            continue;
        }
        mem::CopyList& list = directory.copyList(vpn);
        if (list.size() == 1) {
            // The dead node held the only copy: the page is gone. Unmap
            // it everywhere; accesses now complete degraded.
            lost.push_back(vpn);
            stats_.pagesLost += 1;
            denseSlot(machine_.lostPages_, vpn) = true;
            machine_.emit(
                {.kind = check::EventKind::CopyListChanged, .vpn = vpn});
            machine_.shootdown(vpn);
            directory.destroy(vpn);
            continue;
        }
        affected.push_back(vpn);
        const bool master_died = list.master().node == dead;
        list.removeOn(dead); // removing the master promotes its successor
        machine_.rewriteTables(list);

        // Re-synchronize the suffix from the new master. Updates flow
        // down the chain in order, so the first surviving copy
        // dominates every later one; anything that died inside the
        // dead node's queue left later copies stale, and when the
        // *originator* was the dead node nobody is left to replay it.
        const auto& order = list.copies();
        for (std::size_t i = 1; i < order.size(); ++i) {
            machine_.syncPageCopy(order.front(), order[i]);
        }

        machine_.emit({.kind = check::EventKind::CopyListChanged, .vpn = vpn});
        machine_.shootdown(vpn);
        stats_.copyListsRepaired += 1;
        if (master_died) {
            stats_.pagesRemastered += 1;
        }
    }

    // 2. Every survivor's coherence manager aborts in-flight operations
    //    the crash tore and re-dispatches them against the repaired
    //    lists (or completes them as lost). Ascending node order keeps
    //    the replay schedule canonical.
    for (NodeId n = 0; n < nodes_.size(); ++n) {
        if (nodes_[n].crashed) {
            continue;
        }
        const proto::CoherenceManager::RecoveryOutcome outcome =
            machine_.nodeAt(n).cm().recoverAfterCrash(dead, affected, lost);
        stats_.abortedOps += outcome.abortedReads + outcome.abortedWrites +
                             outcome.abortedRmws;
        stats_.lostCompletions += outcome.lostCompletions;
    }

    // 3. Tear down link state toward the dead node and seal it: any
    //    frame it still has in flight is dropped at the receiver from
    //    here on (the checker's crashed-source invariant).
    if (net::LinkLayer* link = machine_.network().linkLayer()) {
        link->purgeNode(dead);
        link->sealNode(dead);
    }

    // 4. Seal the epoch.
    epoch_ += 1;
    machine_.emit(
        {.kind = check::EventKind::EpochSealed, .node = dead, .a = epoch_});
    stats_.nodeRecoveries += 1;
    latency_.record(static_cast<double>(machine_.now() - st.crashCycle));
    recovering_ = kInvalidNode;
    PLUS_LOG(LogComponent::Proto, "recovery epoch ", epoch_, " for node ", dead,
             " sealed: ", affected.size(), " copy-list(s) repaired, ",
             lost.size(), " page(s) lost");
}

std::string
RecoveryManager::panicSummary() const
{
    std::ostringstream out;
    out << "\n=== crash recovery ===\n";
    out << "epochs sealed: " << epoch_;
    if (recovering_ != kInvalidNode) {
        out << " (epoch for n" << recovering_ << " IN PROGRESS)";
    }
    out << "\ncrashed:";
    bool any = false;
    for (NodeId n = 0; n < nodes_.size(); ++n) {
        if (nodes_[n].crashed) {
            any = true;
            out << " n" << n << "@" << nodes_[n].crashCycle
                << (nodes_[n].recovered ? "(recovered)" : "(unrecovered)");
        }
    }
    if (!any) {
        out << " none";
    }
    out << "\npages: " << stats_.pagesRemastered << " remastered, "
        << stats_.copyListsRepaired << " lists repaired, "
        << stats_.pagesLost << " lost\n";
    out << "ops: " << stats_.abortedOps << " aborted/re-dispatched, "
        << stats_.lostCompletions << " completed as lost\n";
    return out.str();
}

} // namespace core
} // namespace plus
