/**
 * @file
 * The top-level PLUS machine: N nodes on a mesh, one shared virtual
 * address space, and the operating-system services of Section 2.4 —
 * page allocation, lazy per-node page tables backed by a centralized
 * directory, and software-requested page replication, migration and
 * deletion with hardware-assisted background copying.
 *
 * Typical use (via the plus::MachineBuilder facade, plus/plus.hpp):
 * @code
 *   auto m = plus::MachineBuilder().nodes(16).build();
 *   Addr counter = m->alloc(kPageBytes, 0);   // master on node 0
 *   m->replicate(counter, 5);                 // background copy to node 5
 *   m->settle();                              // let the copy finish
 *   for (NodeId n = 0; n < 16; ++n)
 *       m->spawn(n, [&](Context& ctx) { ctx.fadd(counter, 1); });
 *   m->run();
 * @endcode
 */

#ifndef PLUS_CORE_MACHINE_HPP_
#define PLUS_CORE_MACHINE_HPP_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "check/checker.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "mem/page_table.hpp"
#include "net/network.hpp"
#include "node/node.hpp"
#include "sim/engine.hpp"
#include "sim/watchdog.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracer.hpp"

namespace plus {

namespace proto {
class RecoveryManager;
} // namespace proto

namespace core {

class Context;

/** Aggregated machine-wide counters for the bench harnesses. */
struct MachineReport {
    Cycles elapsed = 0;
    /** Sums over all nodes (see CmStats for definitions). */
    std::uint64_t localReads = 0;
    std::uint64_t remoteReads = 0;
    std::uint64_t localWrites = 0;
    std::uint64_t remoteWrites = 0;
    std::uint64_t localRmws = 0;
    std::uint64_t remoteRmws = 0;
    std::uint64_t updateMessages = 0;
    /** Memory-modifying messages: WriteReq + UpdateReq + RmwReq. */
    std::uint64_t writeCarryingMessages = 0;
    std::uint64_t totalMessages = 0;
    /** Processor-time totals. */
    Cycles busyUseful = 0;
    Cycles ctxOverhead = 0;
    Cycles totalStall = 0;

    /** Average fraction of elapsed time processors did useful work. */
    double utilization(unsigned processors) const;

    /**
     * Counter-wise difference (this - baseline): isolates one phase's
     * activity, e.g. application execution after replication setup.
     */
    MachineReport operator-(const MachineReport& baseline) const;

    bool operator==(const MachineReport&) const = default;
};

/** The whole simulated PLUS machine. */
class Machine
{
  public:
    /**
     * Validate @p config (FatalError on contradictions) and build the
     * machine. plus::MachineBuilder (plus/plus.hpp) assembles the
     * config fluently and lands here.
     */
    explicit Machine(MachineConfig config);
    ~Machine();

    Machine(const Machine&) = delete;
    Machine& operator=(const Machine&) = delete;

    const MachineConfig& config() const { return config_; }
    unsigned nodeCount() const { return config_.nodes; }
    node::Node& nodeAt(NodeId id);
    sim::Engine& engine() { return engine_; }
    net::Network& network() { return *network_; }
    Cycles now() const { return engine_.now(); }

    // --- memory management (OS-level; instantaneous, no simulated cost) --

    /**
     * Allocate @p bytes of shared memory (rounded up to whole pages)
     * with the master copies on @p home. Returns the base virtual
     * address. Memory is zero-initialized and lives until the machine
     * is destroyed.
     */
    Addr alloc(std::size_t bytes, NodeId home);

    /** Number of whole pages backing an allocation of @p bytes. */
    static std::size_t pagesFor(std::size_t bytes);

    /**
     * Request a replica of the page containing @p addr on @p target.
     * The new copy is inserted into the copy-list immediately (so
     * concurrent writes keep it coherent) and filled by the hardware
     * copy engine in the background; page tables switch to it when the
     * copy completes. No-op if the node already holds a copy.
     */
    void replicate(Addr addr, NodeId target);

    /** Replicate every page of [addr, addr+bytes) onto @p target. */
    void replicateRange(Addr addr, std::size_t bytes, NodeId target);

    /**
     * Delete the copy of the page containing @p addr held by @p node.
     * The copy must not be the master and must not be the only copy.
     * In-flight traffic is handled by the splice + frame-flush protocol
     * (see FrameFlush); requests still addressed to the dead copy are
     * nacked and retried.
     */
    void deleteCopy(Addr addr, NodeId node);

    /**
     * Move the page containing @p addr from @p from to @p to:
     * replication followed, once the copy completes, by deletion of the
     * old copy ("page migration is achieved simply by creating a copy
     * and then deleting the old one").
     */
    void migrate(Addr addr, NodeId from, NodeId to);

    /** Copies of the page containing @p addr still being filled. */
    unsigned pendingPageCopies() const { return pendingCopies_; }

    /**
     * Re-order the copy-list of the page containing @p addr into the
     * greedy minimal-path chain ("the operating system kernel orders
     * the copy-list to minimize the network path length through all the
     * nodes in the list", Section 2.3) and rewrite the coherence
     * tables. Only legal at quiescence.
     */
    void reorderCopyListQuiesced(Addr addr);

    /**
     * Make @p node's copy the master of the page containing @p addr.
     * Only legal at quiescence (no events pending, no page copies in
     * flight): the copy-list head and every node's coherence tables for
     * the page are rewritten, which cannot race in-flight chains.
     */
    void promoteMasterQuiesced(Addr addr, NodeId node);

    /** The copy-list of the page containing @p addr (diagnostics). */
    const mem::CopyList& copyListOf(Addr addr) const;

    // --- untimed backdoors for workload setup and checking ----------------

    /** Read the master copy's value without simulating anything. */
    Word peek(Addr addr) const;

    /** Write every copy's value without simulating anything. */
    void poke(Addr addr, Word value);

    // --- threads and execution ---------------------------------------------

    using ThreadBody = std::function<void(Context&)>;

    /** Create a thread resident on @p node. Call before run(). */
    ThreadId spawn(NodeId node, ThreadBody body);

    /**
     * Run until every spawned thread finishes.
     * @param max_cycles  Safety cap; exceeding it raises FatalError
     *                    (useful against livelocked workloads).
     */
    void run(Cycles max_cycles = ~Cycles{0} >> 1);

    /**
     * Drain background activity (page copies, write chains) without any
     * threads running; returns when the event queue is empty.
     */
    void settle();

    /** Aggregate statistics over all nodes and the network. */
    MachineReport report() const;

    /**
     * Enable competitive replication (Section 2.4): hardware counts each
     * node's remote references per page and, when a counter reaches
     * @p threshold, the OS creates a local replica — unless the page
     * already has @p max_copies copies. Must be called before spawn().
     */
    void enableCompetitiveReplication(std::uint64_t threshold,
                                      unsigned max_copies);

    /**
     * The machine's plus::check instance (invariant checker and race
     * detector), or null when MachineConfig::check disables everything.
     */
    check::Checker* checker() { return checker_.get(); }

    /**
     * The machine's metrics registry. Always live: every subsystem's
     * counters are registered at construction, so a snapshot at any
     * cycle sees the whole machine. Harnesses may register their own
     * sources next to them.
     */
    telemetry::MetricsRegistry& metrics() { return metrics_; }

    /** Current values of every registered metric. */
    telemetry::MetricsRegistry::Snapshot metricsSnapshot() const
    {
        return metrics_.snapshot(engine_.now());
    }

    /**
     * The forward-progress watchdog, or null unless
     * MachineConfig::watchdog enabled it.
     */
    sim::Watchdog* watchdog() { return watchdog_.get(); }

    /**
     * The crash-recovery orchestrator, or null unless
     * MachineConfig::network.fault.recover armed it.
     */
    proto::RecoveryManager* recovery() { return recovery_.get(); }
    const proto::RecoveryManager* recovery() const
    {
        return recovery_.get();
    }

    /** True once @p vpn lost its last copy to a node crash. */
    bool pageIsLost(Vpn vpn) const
    {
        return lostPages_.find(vpn) != lostPages_.end();
    }

    /**
     * The event tracer, or null unless MachineConfig::telemetry.trace
     * enabled it.
     */
    telemetry::Telemetry* telemetry() { return telemetry_.get(); }
    const telemetry::Telemetry* telemetry() const
    {
        return telemetry_.get();
    }

    /**
     * Write the retained event trace as Chrome-trace/Perfetto JSON
     * (see docs/OBSERVABILITY.md). Requires telemetry.trace.
     */
    void writeTraceJson(std::ostream& os) const;

    /**
     * Write a metrics snapshot plus the tracer's traffic attribution
     * (empty arrays when tracing is off) as one JSON object.
     */
    void writeStatsJson(std::ostream& os) const;

  private:
    friend class Context;

    node::Processor::Translation translateFor(NodeId node, Vpn vpn);
    PhysPage freshTranslation(NodeId node, Vpn vpn);

    /**
     * Render the machine's distress dossier — engine state, network and
     * link counters, the telemetry tail and the checker's event trace —
     * appended to watchdog / retry-exhaustion panics.
     */
    std::string diagnosticDump();

    void onPageCopyDone(std::uint32_t copy_id);
    void shootdown(Vpn vpn);
    PhysAddr masterOf(Addr addr) const;

    /**
     * Fail-stop: freeze @p node's processor, write its threads off the
     * machine's liveness accounting, and stop the watchdog if they were
     * the last ones. Machine context; idempotent.
     */
    void haltNode(NodeId node);

    MachineConfig config_;
    sim::Engine engine_;
    net::Topology topology_;
    std::unique_ptr<net::Network> network_;
    /**
     * Delay machine-lane work scheduled from node context waits (page-
     * copy completion, competitive replication, recovery hand-offs):
     * the network's minimum cross-node latency. Kept because the cycle
     * such work lands on, and so every recorded output, depends on it.
     */
    Cycles machineLaneDelay_ = 0;
    std::vector<std::unique_ptr<node::Node>> nodes_;

    mem::PageDirectory directory_;
    Vpn nextVpn_ = 1; ///< vpn 0 is reserved (null page)

    /** Register every subsystem's stat sources; ctor-only. */
    void registerMetrics();

    /** Runtime checking; null unless CheckConfig enables anything. */
    std::unique_ptr<check::Checker> checker_;

    /** Event tracing; null unless config_.telemetry.trace. */
    std::unique_ptr<telemetry::Telemetry> telemetry_;

    /**
     * Feeds the checker, then the tracer; null when neither is live.
     * Nodes and the network hold raw pointers into it.
     */
    std::unique_ptr<check::EventStream> events_;

    /** Append @p event to the stream, if any (machine context). */
    void
    emit(const check::Event& event)
    {
        if (events_) {
            events_->emit(event);
        }
    }

    telemetry::MetricsRegistry metrics_;

    /** Forward-progress watchdog; null unless config_.watchdog. */
    std::unique_ptr<sim::Watchdog> watchdog_;

    /**
     * Crash recovery (null unless config_.network.fault.recover): the
     * host adapter hands proto::RecoveryManager the machine services it
     * needs without a proto -> core dependency.
     */
    struct RecoveryHost;
    std::unique_ptr<RecoveryHost> recoveryHost_;
    std::unique_ptr<proto::RecoveryManager> recovery_;
    /** Pages whose last copy died; served degraded (kPageLostValue). */
    std::unordered_set<Vpn> lostPages_;

    struct PendingCopy {
        Vpn vpn;
        NodeId target;
        NodeId deleteAfter = kInvalidNode; ///< migration: old copy to drop
    };
    // Ordered by copy id (= creation order) so every scan over the
    // in-flight set is deterministic (pluslint R1); the map holds at most
    // a handful of entries, so the tree overhead is irrelevant.
    std::map<std::uint32_t, PendingCopy> copiesInFlight_;
    std::uint32_t nextCopyId_ = 1;
    unsigned pendingCopies_ = 0;

    struct ThreadRecord {
        ThreadId id;
        NodeId node;
        std::unique_ptr<Context> context;
    };
    std::vector<ThreadRecord> threads_;
    unsigned unfinishedThreads_ = 0;
    bool started_ = false;

    /** Competitive replication policy state. */
    unsigned replMaxCopies_ = 0;
};

} // namespace core
} // namespace plus

#endif // PLUS_CORE_MACHINE_HPP_
