#include "core/machine.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/log.hpp"
#include "common/panic.hpp"
#include "core/context.hpp"
#include "net/fault_injector.hpp"
#include "net/reliable_link.hpp"
#include "proto/protocol.hpp"
#include "telemetry/export.hpp"
#include "telemetry/prof.hpp"

namespace plus {
namespace core {

namespace {

// pluslint: allow(R4) -- diagnostic only: names the machine whose
// dossier a panic on this thread carries; never feeds simulation state.
thread_local Machine* t_running = nullptr;

/** Makes a machine the thread's running one for its lifetime. */
class RunningScope
{
  public:
    explicit RunningScope(Machine& m) : previous_(t_running)
    {
        t_running = &m;
    }
    ~RunningScope() { t_running = previous_; }

    RunningScope(const RunningScope&) = delete;
    RunningScope& operator=(const RunningScope&) = delete;

  private:
    Machine* previous_;
};

} // namespace

// Installed once, during static initialization (before main, so before
// any worker thread): every panic raised while a machine runs on the
// thread (watchdog, retry and retransmit budgets, invariant checks)
// carries its dossier, so the first report already says what the fabric
// was doing. A decorator installed later at run time replaces it.
const bool Machine::dossierInstalled_ =
    (setPanicDecorator(&Machine::panicDossier), true);

std::string
Machine::panicDossier(std::string_view message)
{
    std::string out;
    if (t_running != nullptr) {
        // A checker violation's text already carries the history.
        out += t_running->diagnosticDump(
            message.find(check::kViolationPrefix) == std::string_view::npos);
    }
    return out + prof::flightRecorderDump(); // empty unless profiling
}

double
MachineReport::utilization(unsigned processors) const
{
    if (elapsed == 0 || processors == 0) {
        return 0.0;
    }
    return static_cast<double>(busyUseful) /
           (static_cast<double>(elapsed) * processors);
}

MachineReport
MachineReport::operator-(const MachineReport& baseline) const
{
    MachineReport d = *this;
    d.elapsed -= baseline.elapsed;
    d.localReads -= baseline.localReads;
    d.remoteReads -= baseline.remoteReads;
    d.localWrites -= baseline.localWrites;
    d.remoteWrites -= baseline.remoteWrites;
    d.localRmws -= baseline.localRmws;
    d.remoteRmws -= baseline.remoteRmws;
    d.updateMessages -= baseline.updateMessages;
    d.writeCarryingMessages -= baseline.writeCarryingMessages;
    d.totalMessages -= baseline.totalMessages;
    d.busyUseful -= baseline.busyUseful;
    d.ctxOverhead -= baseline.ctxOverhead;
    d.totalStall -= baseline.totalStall;
    return d;
}

Machine::Machine(MachineConfig config)
    : config_(std::move(config)),
      topology_(1, 1, 1) // replaced below once the config is validated
{
    config_.validate();
    topology_ = net::Topology(config_.nodes, config_.meshWidth(),
                              config_.meshHeight());
    network_ = net::makeNetwork(engine_, topology_, config_.network);
    if (config_.network.fault.enabled) {
        // Script arming is deferred to the first run(): setup work
        // (allocation, replication, settle) would otherwise consume
        // scripted faults whose cycles were meant for the workload.
        network_->enableFaults(config_.network.fault,
                               /*arm_script=*/false);
    }

    if (config_.check.invariants || config_.check.races) {
        checker_ = std::make_unique<check::Checker>(config_.check);
        checker_->setCopyListResolver(
            [this](Vpn vpn) -> const mem::CopyList* {
                return directory_.contains(vpn) ? &directory_.copyList(vpn)
                                                : nullptr;
            });
        if (checker_->invariants()) {
            checker_->invariants()->setProtocol(config_.protocol);
        }
    }

    if (config_.telemetry.trace) {
        telemetry_ = std::make_unique<telemetry::Telemetry>(config_.telemetry);
    }

    // One stream feeds both sinks, checker first; with neither live every
    // emitter pays one null-pointer branch. Only the tracer consumes
    // network events, so checker-only runs leave the network unwired.
    if (checker_ || telemetry_) {
        events_ = std::make_unique<check::EventStream>(engine_);
        if (checker_) {
            events_->addSink(checker_.get());
        }
        if (telemetry_) {
            events_->addSink(telemetry_.get());
            network_->setEventStream(events_.get());
        }
    }

    nodes_.reserve(config_.nodes);
    for (NodeId id = 0; id < config_.nodes; ++id) {
        nodes_.push_back(std::make_unique<node::Node>(
            id, config_, engine_, *network_,
            std::numeric_limits<std::uint64_t>::max()));
        node::Node& n = *nodes_.back();
        n.cm().setTranslator([this, id](Vpn vpn) -> std::optional<PhysPage> {
            if (pageIsLost(vpn)) {
                return std::nullopt;
            }
            return freshTranslation(id, vpn);
        });
        n.cm().setPageCopyDoneHandler([this](std::uint32_t copy_id) {
            // Completion mutates the directory and every node's tables:
            // an event of its own, later in this cycle.
            engine_.schedule(0, [this, copy_id] {
                onPageCopyDone(copy_id);
            });
        });
        n.processor().setTranslator([this, id](Vpn vpn) {
            return translateFor(id, vpn);
        });
        n.cm().setEventStream(events_.get());
        n.processor().setEventStream(events_.get());
    }

    // Crash recovery: route fail-stop crashes (fault script) and peer
    // deaths (link retransmit exhaustion) into the recovery manager.
    if (config_.network.fault.enabled && config_.network.fault.recover) {
        recovery_ = std::make_unique<RecoveryManager>(*this);
        if (net::LinkLayer* link = network_->linkLayer()) {
            link->setPeerDeathHandler([this](NodeId dead) {
                recovery_->onPeerDeath(dead);
            });
        }
    }
    if (net::FaultInjector* inj = network_->faultInjector()) {
        inj->setCrashHandler([this](NodeId node) {
            // Inside the script entry's event: the checker learns of
            // the crash first so recovery's epoch seal always follows it
            // in the event stream.
            emit({.kind = check::EventKind::NodeCrashed, .node = node});
            if (recovery_) {
                recovery_->onNodeCrashed(node);
            } else {
                // No recovery armed: fail-stop still halts the node's
                // processor; survivors panic on retransmit exhaustion.
                haltNode(node);
            }
        });
    }

    if (config_.watchdog.enabled) {
        watchdog_ = std::make_unique<sim::Watchdog>(
            engine_, config_.watchdog.windowCycles,
            [this]() -> std::uint64_t {
                // Forward progress = work the fabric retired, not work it
                // attempted: delivered packets plus completed processor
                // operations. Retransmissions of the same lost frame do
                // not move this number.
                std::uint64_t p = network_->stats().packets;
                for (const auto& n : nodes_) {
                    const node::ProcessorStats& ps =
                        n->processor().stats();
                    p += ps.reads + ps.writes + ps.rmwIssues + ps.fences;
                }
                if (recovery_) {
                    // Crash detection is retransmit-driven: while links
                    // probe a dead peer nothing retires, but the machine
                    // is making progress toward the peer-death signal.
                    if (const net::LinkLayer* link = network_->linkLayer()) {
                        p += link->stats().retransmits;
                    }
                }
                return p;
            });
    }

    registerMetrics();
}

Machine::~Machine() = default;

std::string
Machine::diagnosticDump(bool with_history)
{
    std::ostringstream os;
    os << "\n--- machine diagnostics ---"
       << "\ncycle " << engine_.now() << ", " << engine_.pendingEvents()
       << " event(s) pending, " << unfinishedThreads_
       << " thread(s) unfinished";
    const net::NetworkStats& net = network_->stats();
    os << "\nnet: " << net.packets << " delivered, " << net.dropped
       << " dropped";
    if (const net::FaultInjector* inj = network_->faultInjector()) {
        const net::FaultStats& f = inj->stats();
        os << "\nfaults: " << f.dropped << " dropped, " << f.corrupted
           << " corrupted, " << f.duplicated << " duplicated, "
           << f.delayed << " delayed, " << f.linkKills << " link kills, "
           << f.nodeKills << " node kills";
    }
    if (const net::LinkLayer* link = network_->linkLayer()) {
        const net::LinkStats& l = link->stats();
        os << "\nlink: " << l.dataFrames << " frames, " << l.retransmits
           << " retransmits, " << l.dupSuppressed << " dups suppressed, "
           << l.crcDrops << " crc drops, " << link->inFlight()
           << " unacked in flight";
        if (l.peerDeaths != 0 || l.sealedDrops != 0) {
            os << ", " << l.peerDeaths << " peer deaths, "
               << l.sealedDrops << " sealed drops";
        }
    }
    if (recovery_) {
        os << recovery_->panicSummary();
    }
    if (telemetry_) {
        os << "\nrecent trace events, " << telemetry_->events().render(64);
    }
    if (checker_ && with_history) {
        os << "\nchecker history, " << checker_->history().render();
    }
    return os.str();
}

void
Machine::registerMetrics()
{
    // Machine-wide aggregates: each getter re-sums the stats structs its
    // visitor reaches at snapshot time, so registration costs the hot
    // path nothing. Absent subsystems are not visited and read 0.
    const auto eachCm = [this](const auto& visit) {
        for (const auto& n : nodes_) {
            visit(n->cm().stats());
        }
    };
    const auto eachProc = [this](const auto& visit) {
        for (const auto& n : nodes_) {
            visit(n->processor().stats());
        }
    };
    const auto eachCache = [this](const auto& visit) {
        for (const auto& n : nodes_) {
            visit(n->cache().stats());
        }
    };
    const auto eachFault = [this](const auto& visit) {
        if (const net::FaultInjector* inj = network_->faultInjector()) {
            visit(inj->stats());
        }
    };
    const auto eachLink = [this](const auto& visit) {
        if (const net::LinkLayer* link = network_->linkLayer()) {
            visit(link->stats());
        }
    };
    const auto eachNetwork = [this](const auto& visit) {
        visit(network_->stats());
    };
    const auto eachEngine = [this](const auto& visit) {
        visit(engine_.stats());
    };
    using telemetry::MetricsRegistry;

    metrics_.addCounters(proto::kCmStatRows, eachCm);
    for (std::size_t t = 0;
         t < static_cast<std::size_t>(proto::MsgType::NumTypes); ++t) {
        const auto type = static_cast<proto::MsgType>(t);
        metrics_.addCounter(
            std::string("cm.sent.") + proto::toString(type),
            MetricsRegistry::sumOf(
                [type](const proto::CmStats& s) { return s.sentOf(type); },
                eachCm));
    }

    metrics_.addCounters(node::kProcessorStatRows, eachProc);
    for (unsigned k = 1;
         k < static_cast<unsigned>(node::StallKind::NumKinds); ++k) {
        metrics_.addCounter(
            std::string("proc.stall.") +
                node::toString(static_cast<node::StallKind>(k)),
            MetricsRegistry::sumOf(
                [k](const node::ProcessorStats& s) { return s.stall[k]; },
                eachProc));
    }

    metrics_.addCounters(node::Cache::kStatRows, eachCache);

    metrics_.addGauge("pending.maxInFlight", [this] {
        unsigned high = 0;
        for (const auto& n : nodes_) {
            high = std::max(high, n->cm().pendingWrites().maxInFlight());
        }
        return static_cast<double>(high);
    });
    metrics_.addGauge("delayed.maxInFlight", [this] {
        unsigned high = 0;
        for (const auto& n : nodes_) {
            high = std::max(high, n->cm().delayedOps().maxInFlight());
        }
        return static_cast<double>(high);
    });

    metrics_.addCounters(net::kNetworkStatRows, eachNetwork);
    metrics_.addDistribution("net.latency", &network_->latencyHistogram());
    metrics_.addDistribution("net.queueing",
                             &network_->queueingHistogram());

    // Fault / reliable-link counters read through the accessors at
    // snapshot time: zero (and zero cost) until enableFaults() ran.
    metrics_.addCounters(net::kFaultStatRows, eachFault);
    metrics_.addCounters(net::kLinkStatRows, eachLink);
    metrics_.addCounters(net::kFaultCrashStatRows, eachFault);

    // Crash-recovery outcomes (see docs/ROBUSTNESS.md "Crash recovery").
    if (recovery_) {
        metrics_.addCounters(kRecoveryStatRows,
                             [this](const auto& visit) {
                                 visit(recovery_->stats());
                             });
        metrics_.addDistribution("recovery.latency",
                                 &recovery_->latencyHistogram());
    }

    // NACK re-translation retries (see CoherenceManager::noteNackRetry).
    metrics_.addCounters(proto::kCmNackStatRows, eachCm);
    metrics_.addGauge("proto.nack_retries.max", [this] {
        std::uint64_t high = 0;
        for (const auto& n : nodes_) {
            high = std::max(high, n->cm().stats().nackRetryHighWater);
        }
        return static_cast<double>(high);
    });

    metrics_.addGauge("machine.pendingPageCopies", [this] {
        return static_cast<double>(pendingCopies_);
    });

    // Engine health: how hard the event core itself is working (see
    // docs/PERF.md for what healthy numbers look like).
    metrics_.addCounters(sim::kEngineStatRows, eachEngine);
    metrics_.addGauges(sim::kEngineGaugeRows, eachEngine);

    if (telemetry_) {
        telemetry_->registerMetrics(metrics_);
    }
}

void
Machine::writeTraceJson(std::ostream& os) const
{
    PLUS_ASSERT(telemetry_,
                "writeTraceJson needs MachineConfig::telemetry.trace");
    telemetry::writePerfettoTrace(os, *telemetry_, config_.nodes);
}

void
Machine::writeStatsJson(std::ostream& os) const
{
    telemetry::writeStatsJson(os, metrics_.snapshot(engine_.now()),
                              telemetry_.get());
}

node::Node&
Machine::nodeAt(NodeId id)
{
    PLUS_ASSERT(id < nodes_.size(), "node ", id, " out of range");
    return *nodes_[id];
}

// --------------------------------------------------------------------------
// Translation
// --------------------------------------------------------------------------

node::Processor::Translation
Machine::translateFor(NodeId node, Vpn vpn)
{
    if (pageIsLost(vpn)) {
        // Degraded mode: the page lost its last copy to a crash. The
        // processor completes the access with kPageLostValue in bounded
        // time instead of faulting on the destroyed mapping.
        return {PhysPage{}, false, true};
    }
    mem::PageTable& pt = nodes_[node]->pageTable();
    if (auto hit = pt.lookup(vpn)) {
        return {*hit, false, false};
    }
    return {freshTranslation(node, vpn), true, false};
}

PhysPage
Machine::freshTranslation(NodeId node, Vpn vpn)
{
    if (!directory_.contains(vpn)) {
        PLUS_FATAL("access to unmapped virtual page ", vpn,
                   " (address ", pageBase(vpn), ") from node ", node);
    }
    const mem::CopyList& cl = directory_.copyList(vpn);
    // Map the closest copy, like the paper's kernel.
    PhysPage best = cl.master();
    unsigned best_dist = topology_.distance(node, best.node);
    for (const PhysPage& copy : cl.copies()) {
        const unsigned d = topology_.distance(node, copy.node);
        if (d < best_dist) {
            best = copy;
            best_dist = d;
        }
    }
    nodes_[node]->pageTable().install(vpn, best);
    return best;
}

void
Machine::shootdown(Vpn vpn)
{
    for (auto& n : nodes_) {
        n->pageTable().invalidate(vpn);
    }
}

void
Machine::haltNode(NodeId node)
{
    PLUS_ASSERT(node < nodes_.size(), "halt of unknown node ", node);
    const unsigned written_off = nodes_[node]->processor().halt();
    if (written_off == 0) {
        return;
    }
    // The written-off threads will never hit their completion handler;
    // settle the liveness accounting (and the watchdog) for them here.
    unfinishedThreads_ -= written_off;
    if (unfinishedThreads_ == 0 && watchdog_) {
        watchdog_->stop();
    }
}

// --------------------------------------------------------------------------
// Memory management
// --------------------------------------------------------------------------

std::size_t
Machine::pagesFor(std::size_t bytes)
{
    return (bytes + kPageBytes - 1) / kPageBytes;
}

Addr
Machine::alloc(std::size_t bytes, NodeId home)
{
    PLUS_ASSERT(home < nodes_.size(), "alloc on unknown node ", home);
    const std::size_t pages = std::max<std::size_t>(1, pagesFor(bytes));
    const Vpn first = nextVpn_;
    for (std::size_t i = 0; i < pages; ++i) {
        const Vpn vpn = nextVpn_++;
        const FrameId frame = nodes_[home]->memory().allocFrame();
        const PhysPage master{home, frame};
        directory_.create(vpn, master);
        nodes_[home]->tables().setMaster(frame, master);
    }
    PLUS_LOG(LogComponent::Machine, "alloc ", pages, " page(s) at vpn ",
             first, " home n", home);
    return pageBase(first);
}

const mem::CopyList&
Machine::copyListOf(Addr addr) const
{
    return directory_.copyList(pageOf(addr));
}

void
Machine::replicate(Addr addr, NodeId target)
{
    PLUS_ASSERT(target < nodes_.size(), "replicate on unknown node");
    const Vpn vpn = pageOf(addr);
    if (directory_.copyList(vpn).hasCopyOn(target)) {
        return;
    }
    // Only one copy of a page may be in flight: a second new copy could
    // anchor on (and read from) a copy that is not yet filled, and the
    // FIFO argument that keeps copy data and updates ordered only holds
    // between a copy and its direct predecessor. At setup time we simply
    // drain the first copy; online (competitive replication) the second
    // request is dropped — the counters will overflow again.
    for (const auto& [id, rec] : copiesInFlight_) {
        (void)id;
        if (rec.vpn == vpn) {
            if (started_) {
                return;
            }
            settle();
            break;
        }
    }
    mem::CopyList& cl = directory_.copyList(vpn);
    if (cl.hasCopyOn(target)) {
        return;
    }

    const FrameId frame = nodes_[target]->memory().allocFrame();
    const PhysPage new_copy{target, frame};

    // Insert after the existing copy closest to the target ("a convenient
    // point"): that copy is also the source the hardware copies from.
    // Under write-invalidate the anchor must be the master: only it
    // knows which words are invalid everywhere (the batch validity
    // mask), and master-as-predecessor keeps batch data and subsequent
    // invalidation chains on one FIFO channel.
    PhysPage anchor = cl.master();
    if (config_.protocol != CoherenceProtocol::WriteInvalidate) {
        unsigned best_dist = topology_.distance(target, anchor.node);
        for (const PhysPage& copy : cl.copies()) {
            const unsigned d = topology_.distance(target, copy.node);
            if (d < best_dist) {
                anchor = copy;
                best_dist = d;
            }
        }
    }
    const std::optional<PhysPage> successor = cl.successorOf(anchor);
    cl.insertAfter(anchor, new_copy);
    emit({.kind = check::EventKind::CopyListChanged, .vpn = vpn});

    // Make the new copy visible to the coherence hardware *before* the
    // data copy starts, so concurrent writes flow through it.
    nodes_[target]->tables().setMaster(frame, cl.master());
    nodes_[target]->tables().setNextCopy(frame, successor);
    nodes_[anchor.node]->tables().setNextCopy(anchor.frame, new_copy);

    const std::uint32_t copy_id = nextCopyId_++;
    copiesInFlight_.emplace(copy_id, PendingCopy{vpn, target,
                                                 kInvalidNode});
    ++pendingCopies_;
    nodes_[anchor.node]->cm().startPageCopy(anchor.frame, new_copy, copy_id,
                                            vpn);
    PLUS_LOG(LogComponent::Machine, "replicate vpn ", vpn, " -> n", target,
             " from n", anchor.node, " (copy ", copy_id, ")");
}

void
Machine::replicateRange(Addr addr, std::size_t bytes, NodeId target)
{
    const Vpn first = pageOf(addr);
    const Vpn last = pageOf(addr + (bytes ? bytes - 1 : 0));
    for (Vpn vpn = first; vpn <= last; ++vpn) {
        replicate(pageBase(vpn), target);
    }
}

void
Machine::onPageCopyDone(std::uint32_t copy_id)
{
    auto it = copiesInFlight_.find(copy_id);
    PLUS_ASSERT(it != copiesInFlight_.end(), "unknown page copy finished");
    const PendingCopy rec = it->second;
    copiesInFlight_.erase(it);
    --pendingCopies_;

    // The new copy is fully written: nodes may now switch their address
    // translation to it. Lazy page tables make this a shootdown; each
    // node refaults onto its (possibly new) closest copy.
    shootdown(rec.vpn);
    PLUS_LOG(LogComponent::Machine, "copy ", copy_id, " of vpn ", rec.vpn,
             " complete on n", rec.target);

    if (rec.deleteAfter != kInvalidNode) {
        deleteCopy(pageBase(rec.vpn), rec.deleteAfter);
    }
}

void
Machine::deleteCopy(Addr addr, NodeId node)
{
    const Vpn vpn = pageOf(addr);
    mem::CopyList& cl = directory_.copyList(vpn);
    PLUS_ASSERT(cl.hasCopyOn(node), "node holds no copy to delete");
    PLUS_ASSERT(cl.size() > 1, "cannot delete the only copy of a page");
    PLUS_ASSERT(cl.master().node != node,
                "online deletion of the master copy is not supported; "
                "migrate the master only at quiescence");
    for (const auto& [id, rec] : copiesInFlight_) {
        (void)id;
        PLUS_ASSERT(rec.vpn != vpn,
                    "cannot delete a copy while the page is being copied");
    }

    const PhysPage victim = *cl.copyOn(node);
    // Find the predecessor before splicing.
    PhysPage predecessor = cl.master();
    for (const PhysPage& copy : cl.copies()) {
        if (copy == victim) {
            break;
        }
        predecessor = copy;
    }
    const std::optional<PhysPage> successor = cl.successorOf(victim);
    cl.removeOn(node);
    emit({.kind = check::EventKind::CopyListChanged, .vpn = vpn});

    // Splice first (future updates bypass the victim), shoot down the
    // mappings, then flush via the predecessor so in-flight updates the
    // predecessor already forwarded are applied before the frame dies.
    nodes_[predecessor.node]->tables().setNextCopy(predecessor.frame,
                                                   successor);
    shootdown(vpn);
    nodes_[node]->cache().flush();
    nodes_[predecessor.node]->cm().osFlushRemoteFrame(victim);
    PLUS_LOG(LogComponent::Machine, "delete copy of vpn ", vpn, " on n",
             node);
}

void
Machine::reorderCopyListQuiesced(Addr addr)
{
    PLUS_ASSERT(engine_.pendingEvents() == 0 && pendingCopies_ == 0,
                "copy-list reordering requires quiescence");
    const Vpn vpn = pageOf(addr);
    mem::CopyList& cl = directory_.copyList(vpn);
    if (cl.size() <= 2) {
        return;
    }
    cl.orderForPathLength(topology_);
    emit({.kind = check::EventKind::CopyListChanged, .vpn = vpn});
    rewriteTables(cl);
    PLUS_LOG(LogComponent::Machine, "reordered copy-list of vpn ", vpn,
             " to path length ", cl.pathLength(topology_));
}

void
Machine::promoteMasterQuiesced(Addr addr, NodeId node)
{
    PLUS_ASSERT(engine_.pendingEvents() == 0 && pendingCopies_ == 0,
                "master promotion requires quiescence");
    const Vpn vpn = pageOf(addr);
    mem::CopyList& cl = directory_.copyList(vpn);
    PLUS_ASSERT(cl.hasCopyOn(node), "promotion target holds no copy");
    if (cl.master().node == node) {
        return;
    }
    const PhysPage old_master = cl.master();

    // Move the target to the head, keep the remaining order, then
    // rewrite every copy's master/next-copy table entries.
    const PhysPage new_master = *cl.copyOn(node);
    if (config_.protocol == CoherenceProtocol::WriteInvalidate) {
        // The promoted copy may hold invalidated words the old master
        // never pushed back (invalidate chains carry no values). The
        // machine is quiesced, so sync the full page untimed before the
        // new master becomes the page's authority.
        syncPageCopy(old_master, new_master);
    }
    std::vector<PhysPage> order;
    order.push_back(new_master);
    for (const PhysPage& copy : cl.copies()) {
        if (!(copy == new_master)) {
            order.push_back(copy);
        }
    }
    cl.removeOn(node);
    // Rebuild: clear and reinsert in the new order.
    while (cl.size() > 1) {
        cl.removeOn(cl.copies().back().node);
    }
    const PhysPage old_head = cl.master();
    cl.removeOn(old_head.node);
    PLUS_ASSERT(cl.empty(), "copy-list rebuild lost track");
    for (const PhysPage& copy : order) {
        if (cl.empty()) {
            cl = mem::CopyList(copy);
        } else {
            cl.append(copy);
        }
    }
    emit({.kind = check::EventKind::CopyListChanged, .vpn = vpn});
    rewriteTables(cl);
    if (config_.protocol == CoherenceProtocol::WriteInvalidate) {
        // Full-page sync above revalidated the new master; the old
        // master's invalid-everywhere knowledge is stale topology.
        nodes_[node]->cm().protocol().onMasterPromoted(new_master.frame,
                                                       vpn);
        nodes_[old_master.node]->cm().protocol().onMasterDemoted(
            old_master.frame);
    }
    shootdown(vpn);
    PLUS_LOG(LogComponent::Machine, "promoted master of vpn ", vpn,
             " to n", node);
}

void
Machine::rewriteTables(const mem::CopyList& cl)
{
    const std::vector<PhysPage>& order = cl.copies();
    for (std::size_t i = 0; i < order.size(); ++i) {
        mem::CoherenceTables& tables = nodes_[order[i].node]->tables();
        tables.setMaster(order[i].frame, cl.master());
        tables.setNextCopy(order[i].frame,
                           i + 1 < order.size()
                               ? std::optional<PhysPage>(order[i + 1])
                               : std::nullopt);
    }
}

void
Machine::syncPageCopy(PhysPage from, PhysPage to)
{
    const mem::LocalMemory& src = nodes_[from.node]->memory();
    mem::LocalMemory& dst = nodes_[to.node]->memory();
    for (Addr w = 0; w < kPageWords; ++w) {
        dst.write(to.frame, w, src.read(from.frame, w));
    }
    nodes_[to.node]->cache().flush();
}

void
Machine::migrate(Addr addr, NodeId from, NodeId to)
{
    const Vpn vpn = pageOf(addr);
    mem::CopyList& cl = directory_.copyList(vpn);
    PLUS_ASSERT(cl.hasCopyOn(from), "migrate: source holds no copy");
    if (from == to) {
        return;
    }
    if (cl.hasCopyOn(to)) {
        deleteCopy(addr, from);
        return;
    }
    replicate(addr, to);
    // Find the copy id just created and arm the deferred deletion.
    for (auto& [id, rec] : copiesInFlight_) {
        (void)id;
        if (rec.vpn == vpn && rec.target == to) {
            rec.deleteAfter = from;
            return;
        }
    }
    PLUS_PANIC("migration lost its page copy");
}

// --------------------------------------------------------------------------
// Untimed backdoors
// --------------------------------------------------------------------------

PhysAddr
Machine::masterOf(Addr addr) const
{
    const Vpn vpn = pageOf(addr);
    PLUS_ASSERT(directory_.contains(vpn), "peek/poke of unmapped page");
    return PhysAddr{directory_.copyList(vpn).master(), wordOffsetOf(addr)};
}

Word
Machine::peek(Addr addr) const
{
    const PhysAddr phys = masterOf(addr);
    return nodes_[phys.page.node]->memory().read(phys.page.frame,
                                                 phys.wordOffset);
}

void
Machine::poke(Addr addr, Word value)
{
    const Vpn vpn = pageOf(addr);
    PLUS_ASSERT(directory_.contains(vpn), "poke of unmapped page");
    const Addr off = wordOffsetOf(addr);
    for (const PhysPage& copy : directory_.copyList(vpn).copies()) {
        nodes_[copy.node]->memory().write(copy.frame, off, value);
    }
}

// --------------------------------------------------------------------------
// Threads and execution
// --------------------------------------------------------------------------

ThreadId
Machine::spawn(NodeId node, ThreadBody body)
{
    PLUS_ASSERT(node < nodes_.size(), "spawn on unknown node ", node);
    PLUS_ASSERT(!started_, "spawn after run() is not supported");
    const ThreadId tid = static_cast<ThreadId>(threads_.size());
    auto context = std::make_unique<Context>(*this,
                                             nodes_[node]->processor(),
                                             tid);
    Context* ctx = context.get();
    if (nodes_[node]->processor().halted()) {
        // Fail-stop: the node crashed before this thread could start.
        // Written off immediately, like a thread caught mid-run by the
        // crash — it never executes and never counts as unfinished.
        PLUS_LOG(LogComponent::Machine, "spawn of thread ", tid, " on crashed n",
                 node, " written off");
        threads_.push_back(ThreadRecord{tid, node, std::move(context)});
        return tid;
    }
    ++unfinishedThreads_;
    nodes_[node]->processor().addThread(
        tid, [this, ctx, body = std::move(body)] {
            body(*ctx);
            if (--unfinishedThreads_ == 0 && watchdog_) {
                // Last thread done: stop watching so the watchdog's own
                // check event cannot outlive the workload.
                watchdog_->stop();
            }
        });
    threads_.push_back(ThreadRecord{tid, node, std::move(context)});
    return tid;
}

void
Machine::run(Cycles max_cycles)
{
    const RunningScope running(*this);
    started_ = true;
    if (net::FaultInjector* injector = network_->faultInjector()) {
        injector->scheduleScript(); // idempotent; cycles now count from here
    }
    for (NodeId id = 0; id < nodes_.size(); ++id) {
        nodes_[id]->processor().start();
    }
    if (watchdog_ && unfinishedThreads_ > 0) {
        watchdog_->arm();
    }
    engine_.runUntil(max_cycles);
    if (watchdog_) {
        watchdog_->cancelNow();
    }
    if (unfinishedThreads_ > 0) {
        if (engine_.pendingEvents() > 0) {
            PLUS_FATAL("machine exceeded the cycle cap (", max_cycles,
                       ") with ", unfinishedThreads_,
                       " thread(s) unfinished — livelock?");
        }
        PLUS_FATAL("deadlock: no events pending but ",
                   unfinishedThreads_,
                   " thread(s) are still blocked");
    }
}

void
Machine::settle()
{
    const RunningScope running(*this);
    if (watchdog_ && engine_.pendingEvents() > 0) {
        watchdog_->arm();
    }
    engine_.run();
    if (watchdog_) {
        watchdog_->cancelNow();
    }
}

MachineReport
Machine::report() const
{
    MachineReport r;
    r.elapsed = engine_.now();
    for (const auto& n : nodes_) {
        const proto::CmStats& cm = n->cm().stats();
        r.localReads += cm.localReads;
        r.remoteReads += cm.remoteReads;
        r.localWrites += cm.localWrites;
        r.remoteWrites += cm.remoteWrites;
        r.localRmws += cm.localRmws;
        r.remoteRmws += cm.remoteRmws;
        r.updateMessages += cm.sentOf(proto::MsgType::UpdateReq);
        r.writeCarryingMessages +=
            cm.sentOf(proto::MsgType::UpdateReq) +
            cm.sentOf(proto::MsgType::WriteReq) +
            cm.sentOf(proto::MsgType::RmwReq);
        r.totalMessages += cm.totalSent();
        const node::ProcessorStats& ps = n->processor().stats();
        r.busyUseful += ps.busyUseful();
        r.ctxOverhead += ps.ctxOverhead;
        r.totalStall += ps.totalStall();
    }
    return r;
}

void
Machine::enableCompetitiveReplication(std::uint64_t threshold,
                                      unsigned max_copies)
{
    PLUS_ASSERT(!started_, "enable competitive replication before run()");
    PLUS_ASSERT(threshold > 0 && max_copies >= 2,
                "competitive replication needs threshold > 0 and at least "
                "two copies");
    replMaxCopies_ = max_copies;
    for (NodeId id = 0; id < nodes_.size(); ++id) {
        mem::RefCounters* counters = nodes_[id]->refCounters();
        PLUS_ASSERT(counters, "node has no reference counters");
        counters->setThreshold(threshold);
        counters->setOverflowHandler([this, id](Vpn vpn, std::uint64_t) {
            // Competitive policy: enough remote references accumulated to
            // pay for a local copy — create one, unless the page is
            // already replicated here, at its copy budget, or mid-copy.
            // The decision fires inside a reference; the replication
            // mutates the directory, so it runs as an event of its own
            // later in this cycle and the guards re-evaluate then.
            engine_.schedule(0, [this, id, vpn] {
                if (!directory_.contains(vpn)) {
                    return;
                }
                const mem::CopyList& cl = directory_.copyList(vpn);
                if (cl.hasCopyOn(id) || cl.size() >= replMaxCopies_) {
                    return;
                }
                for (const auto& [cid, rec] : copiesInFlight_) {
                    (void)cid;
                    if (rec.vpn == vpn) {
                        return;
                    }
                }
                replicate(pageBase(vpn), id);
            });
        });
    }
}

} // namespace core
} // namespace plus
