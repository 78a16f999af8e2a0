/**
 * @file
 * Fail-stop crash recovery for the PLUS coherence protocol.
 *
 * The 1990 PLUS hardware had no recovery story: a dead node wedged the
 * retransmitting link layer and, eventually, every processor with an
 * in-flight operation addressed to it. This subsystem gives the
 * simulator the fail-stop model modern DSM follow-ons adopted:
 *
 *  1. A node crashes (fault script `CrashNode`): its processor halts,
 *     its router goes dark, its threads are written off.
 *  2. Survivors *detect* the death when a reliable-link retransmit
 *     budget toward it exhausts (net::LinkLayer reports a peer death
 *     instead of panicking when recovery is armed).
 *  3. A deterministic, in-simulation recovery epoch runs as one event:
 *       - every page with a copy on the dead node has its copy-list
 *         repaired; if the master died, the first surviving replica in
 *         list order is promoted (it dominates every later copy,
 *         because updates flow down the chain in order);
 *       - surviving replicas are re-synchronized from the new master —
 *         an update can die inside the dead node's queue mid-chain,
 *         leaving prefix copies newer than suffix copies, and the
 *         originator cannot always replay it (it may *be* the dead
 *         node);
 *       - pages whose only copy died are marked *lost*: subsequent
 *         accesses complete in bounded time with kPageLostValue
 *         (reads / interlocked results) or are dropped (writes),
 *         instead of hanging;
 *       - every survivor's coherence manager aborts in-flight
 *         operations addressed to the dead node and re-dispatches them
 *         against the repaired copy-lists
 *         (proto::CoherenceManager::recoverAfterCrash);
 *       - link channels to and from the dead node are purged and the
 *         node is sealed, and the invariant checker learns the epoch:
 *         processing any message from the dead node afterwards is a
 *         fatal protocol violation.
 *
 * The whole procedure is ordinary simulation state manipulated in one
 * deterministic event, so a fixed crash schedule yields
 * byte-identical post-recovery memory images.
 */

#ifndef PLUS_CORE_RECOVERY_HPP_
#define PLUS_CORE_RECOVERY_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace plus {
namespace core {

class Machine;

/** Counters for the `recovery.*` metrics namespace. */
struct RecoveryStats {
    std::uint64_t nodeRecoveries = 0;   ///< recovery epochs completed
    std::uint64_t pagesRemastered = 0;  ///< master moved to a survivor
    std::uint64_t copyListsRepaired = 0; ///< lists purged of a dead copy
    std::uint64_t pagesLost = 0;        ///< every physical copy died
    std::uint64_t abortedOps = 0;       ///< in-flight ops re-dispatched
    std::uint64_t lostCompletions = 0;  ///< ops completed with kPageLostValue
};

/** RecoveryStats exported once recovery is armed, in snapshot order. */
inline constexpr StatRow<RecoveryStats> kRecoveryStatRows[] = {
    {"recovery.epochs", &RecoveryStats::nodeRecoveries},
    {"recovery.pagesRemastered", &RecoveryStats::pagesRemastered},
    {"recovery.copyListsRepaired", &RecoveryStats::copyListsRepaired},
    {"recovery.pagesLost", &RecoveryStats::pagesLost},
    {"recovery.abortedOps", &RecoveryStats::abortedOps},
    {"recovery.lostCompletions", &RecoveryStats::lostCompletions},
};

/**
 * Orchestrates one recovery epoch per dead node over its machine's
 * directory, nodes and links; see file comment.
 */
class RecoveryManager
{
  public:
    explicit RecoveryManager(Machine& machine);

    RecoveryManager(const RecoveryManager&) = delete;
    RecoveryManager& operator=(const RecoveryManager&) = delete;

    /**
     * A node fail-stop crashed (inside the script entry's event, at the
     * crash cycle). Halts the node; recovery itself waits for detection.
     */
    void onNodeCrashed(NodeId node);

    /**
     * A survivor's link layer detected @p dead (retransmit budget
     * exhausted). May fire from any link timeout and more than once per
     * dead node; recovery is scheduled as an event of its own and runs
     * exactly once.
     */
    void onPeerDeath(NodeId dead);

    bool nodeCrashed(NodeId node) const { return state(node).crashed; }
    bool nodeRecovered(NodeId node) const { return state(node).recovered; }

    /** Recovery epochs sealed so far. */
    std::uint64_t epoch() const { return epoch_; }

    const RecoveryStats& stats() const { return stats_; }

    /** Crash-cycle → epoch-seal latency, in cycles, per recovery. */
    const Histogram& latencyHistogram() const { return latency_; }

    /** One-paragraph state dump for the machine's panic dossier. */
    std::string panicSummary() const;

  private:
    struct NodeState {
        bool crashed = false;
        bool recovered = false;
        Cycles crashCycle = 0;
    };

    const NodeState& state(NodeId node) const;

    /** The epoch itself; machine context, exactly once per dead node. */
    void recover(NodeId dead);

    Machine& machine_;
    std::vector<NodeState> nodes_;
    std::uint64_t epoch_ = 0;
    /** Node whose epoch is mid-flight (panic diagnostics only). */
    NodeId recovering_ = kInvalidNode;
    RecoveryStats stats_;
    Histogram latency_;
};

} // namespace core
} // namespace plus

#endif // PLUS_CORE_RECOVERY_HPP_
