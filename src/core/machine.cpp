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
#include "proto/recovery_manager.hpp"
#include "telemetry/export.hpp"

namespace plus {
namespace core {

namespace {

/** Map the config's engine request onto a concrete backend. */
sim::EngineImpl
resolveImpl(const MachineConfig& config)
{
    switch (config.engine) {
      case SimEngine::Wheel: return sim::EngineImpl::Wheel;
      case SimEngine::Heap: return sim::EngineImpl::Heap;
      case SimEngine::Env:
      default: return sim::implFromEnv();
    }
}

} // namespace

/**
 * Adapter handing proto::RecoveryManager the machine services it needs
 * (directory walks, table rewrites, processor halts) while keeping the
 * proto layer free of a core dependency. Every call arrives in machine
 * context except toMachine(), which is the lane-crossing primitive.
 */
struct Machine::RecoveryHost final : proto::RecoveryManager::Host {
    explicit RecoveryHost(Machine& machine) : m(machine) {}

    Cycles now() const override { return m.engine_.now(); }
    unsigned nodeCount() const override { return m.config_.nodes; }

    std::vector<Vpn> mappedVpns() const override
    {
        return m.directory_.sortedVpns();
    }

    mem::CopyList& copyListOf(Vpn vpn) override
    {
        return m.directory_.copyList(vpn);
    }

    mem::CoherenceTables& tablesOf(NodeId node) override
    {
        return m.nodes_[node]->tables();
    }

    proto::CoherenceManager& cmOf(NodeId node) override
    {
        return m.nodes_[node]->cm();
    }

    void haltNode(NodeId node) override { m.haltNode(node); }

    void pageLost(Vpn vpn) override
    {
        m.lostPages_.insert(vpn);
        m.emit({.kind = check::EventKind::CopyListChanged, .vpn = vpn});
        m.shootdown(vpn);
        m.directory_.destroy(vpn);
    }

    void syncPageCopy(PhysPage from, PhysPage to) override
    {
        mem::LocalMemory& src = m.nodes_[from.node]->memory();
        mem::LocalMemory& dst = m.nodes_[to.node]->memory();
        for (Addr w = 0; w < kPageWords; ++w) {
            dst.write(to.frame, w, src.read(from.frame, w));
        }
        // The overwrite happened behind the survivor's cache.
        if (node::Cache* cache = m.nodes_[to.node]->cache()) {
            cache->flush();
        }
    }

    void copyListRebuilt(Vpn vpn) override
    {
        m.emit({.kind = check::EventKind::CopyListChanged, .vpn = vpn});
        m.shootdown(vpn);
    }

    void purgeLinks(NodeId dead) override
    {
        if (net::LinkLayer* link = m.network_->linkLayer()) {
            link->purgeNode(dead);
            link->sealNode(dead);
        }
    }

    void sealEpoch(NodeId dead, std::uint64_t epoch) override
    {
        m.emit({.kind = check::EventKind::EpochSealed,
                .node = dead,
                .a = epoch});
    }

    void toMachine(std::function<void()> fn) override
    {
        m.engine_.scheduleMachine(m.machineLaneDelay_, std::move(fn));
    }

    Machine& m;
};

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
      engine_(resolveImpl(config_)),
      topology_(1, 1, 1) // replaced below once the config is validated
{
    config_.validate();
    engine_.configure(config_.nodes);
    topology_ = net::Topology(config_.nodes, config_.meshWidth(),
                              config_.meshHeight());
    network_ = net::makeNetwork(engine_, topology_, config_.network);
    machineLaneDelay_ = network_->minCrossNodeLatency();
    if (config_.network.fault.enabled) {
        // Script arming is deferred to the first run(): setup work
        // (allocation, replication, settle) would otherwise consume
        // scripted faults whose cycles were meant for the workload.
        network_->enableFaults(config_.network.fault,
                               /*arm_script=*/false);
    }

    if (config_.check.invariants || config_.check.races) {
        check::Options opts;
        opts.invariants = config_.check.invariants;
        opts.races = config_.check.races;
        opts.panicOnRace = config_.check.panicOnRace;
        opts.traceDepth = config_.check.traceDepth;
        checker_ = std::make_unique<check::Checker>(opts);
        checker_->setCopyListResolver(
            [this](Vpn vpn) -> const mem::CopyList* {
                return directory_.contains(vpn) ? &directory_.copyList(vpn)
                                                : nullptr;
            });
        if (checker_->invariants()) {
            checker_->invariants()->setProtocol(
                config_.resolvedProtocol() ==
                        CoherenceProtocol::WriteInvalidate
                    ? check::ProtocolMode::WriteInvalidate
                    : check::ProtocolMode::WriteUpdate);
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
        n.cm().setTranslator([this, id](Vpn vpn) {
            return freshTranslation(id, vpn);
        });
        n.cm().setPageCopyDoneHandler([this](std::uint32_t copy_id) {
            // Completion mutates the directory and every node's tables:
            // machine-lane work, deferred by machineLaneDelay_.
            engine_.scheduleMachine(machineLaneDelay_, [this, copy_id] {
                onPageCopyDone(copy_id);
            });
        });
        n.processor().setTranslator([this, id](Vpn vpn) {
            return translateFor(id, vpn);
        });
        n.cm().setEventStream(events_.get());
        n.processor().setEventStream(events_.get());
    }

    // Crash recovery: arm the coherence managers' in-flight-op metadata,
    // route fail-stop crashes (fault script) and peer deaths (link
    // retransmit exhaustion) into the recovery manager.
    if (config_.network.fault.enabled && config_.network.fault.recover) {
        recoveryHost_ = std::make_unique<RecoveryHost>(*this);
        recovery_ = std::make_unique<proto::RecoveryManager>(
            *recoveryHost_, config_.nodes);
        for (auto& n : nodes_) {
            n->cm().setRecoveryArmed(true);
        }
        if (net::LinkLayer* link = network_->linkLayer()) {
            link->setPeerDeathHandler([this](NodeId dead) {
                recovery_->onPeerDeath(dead);
            });
        }
    }
    if (net::FaultInjector* inj = network_->faultInjector()) {
        inj->setCrashHandler([this](NodeId node) {
            // Machine context (the script entry's lane): the checker
            // learns of the crash first so recovery's epoch seal always
            // follows it in the event stream.
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

    // Failure diagnostics: the reliable link and the per-node retry
    // bounds append the machine's dossier to their panics so the first
    // report already says what the fabric was doing.
    auto dumper = [this] { return diagnosticDump(); };
    network_->setTraceDumper(dumper);
    for (auto& n : nodes_) {
        n->cm().setTraceDumper(dumper);
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
            },
            dumper);
    }

    registerMetrics();
}

Machine::~Machine() = default;

std::string
Machine::diagnosticDump()
{
    std::ostringstream os;
    os << "\n--- machine diagnostics ---"
       << "\ncycle " << engine_.now() << ", " << engine_.pendingEvents()
       << " event(s) pending, " << unfinishedThreads_
       << " thread(s) unfinished";
    const net::NetworkStats& net = network_->stats();
    os << "\nnet: " << net.packets << " delivered, " << net.dropped
       << " dropped, " << net.backpressureStalls << " backpressure stalls";
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
    if (checker_) {
        os << "\nchecker history, " << checker_->history().render();
    }
    return os.str();
}

void
Machine::registerMetrics()
{
    // Machine-wide aggregates: each getter re-sums the per-node structs
    // at snapshot time, so registration costs the hot path nothing.
    auto sumCm = [this](std::uint64_t proto::CmStats::* field) {
        return [this, field] {
            std::uint64_t total = 0;
            for (const auto& n : nodes_) {
                total += n->cm().stats().*field;
            }
            return total;
        };
    };
    metrics_.addCounter("cm.localReads",
                        sumCm(&proto::CmStats::localReads));
    metrics_.addCounter("cm.remoteReads",
                        sumCm(&proto::CmStats::remoteReads));
    metrics_.addCounter("cm.localWrites",
                        sumCm(&proto::CmStats::localWrites));
    metrics_.addCounter("cm.remoteWrites",
                        sumCm(&proto::CmStats::remoteWrites));
    metrics_.addCounter("cm.localRmws", sumCm(&proto::CmStats::localRmws));
    metrics_.addCounter("cm.remoteRmws",
                        sumCm(&proto::CmStats::remoteRmws));
    metrics_.addCounter("cm.retries", sumCm(&proto::CmStats::retries));
    metrics_.addCounter("cm.recoveryAborts",
                        sumCm(&proto::CmStats::recoveryAborts));
    metrics_.addCounter("cm.staleAcks", sumCm(&proto::CmStats::staleAcks));
    metrics_.addCounter("proto.invalidations",
                        sumCm(&proto::CmStats::invalidations));
    metrics_.addCounter("proto.refetches",
                        sumCm(&proto::CmStats::refetches));
    metrics_.addCounter("proto.ownershipTransfers",
                        sumCm(&proto::CmStats::ownershipTransfers));
    metrics_.addCounter("cm.busyCycles", [this] {
        std::uint64_t total = 0;
        for (const auto& n : nodes_) {
            total += n->cm().stats().busyCycles;
        }
        return total;
    });
    for (std::size_t t = 0;
         t < static_cast<std::size_t>(proto::MsgType::NumTypes); ++t) {
        const auto type = static_cast<proto::MsgType>(t);
        metrics_.addCounter(
            std::string("cm.sent.") + proto::toString(type),
            [this, type] {
                std::uint64_t total = 0;
                for (const auto& n : nodes_) {
                    total += n->cm().stats().sentOf(type);
                }
                return total;
            });
    }

    auto sumProcEvents = [this](std::uint64_t node::ProcessorStats::* f) {
        return [this, f] {
            std::uint64_t total = 0;
            for (const auto& n : nodes_) {
                total += n->processor().stats().*f;
            }
            return total;
        };
    };
    metrics_.addCounter("proc.reads",
                        sumProcEvents(&node::ProcessorStats::reads));
    metrics_.addCounter("proc.writes",
                        sumProcEvents(&node::ProcessorStats::writes));
    metrics_.addCounter("proc.rmwIssues",
                        sumProcEvents(&node::ProcessorStats::rmwIssues));
    metrics_.addCounter("proc.fences",
                        sumProcEvents(&node::ProcessorStats::fences));
    metrics_.addCounter("proc.ctxSwitches",
                        sumProcEvents(&node::ProcessorStats::ctxSwitches));
    metrics_.addCounter("proc.pageFaults",
                        sumProcEvents(&node::ProcessorStats::pageFaults));
    metrics_.addCounter(
        "proc.pageLostFaults",
        sumProcEvents(&node::ProcessorStats::pageLostFaults));

    auto sumProcCycles = [this](Cycles node::ProcessorStats::* f) {
        return [this, f]() -> std::uint64_t {
            Cycles total = 0;
            for (const auto& n : nodes_) {
                total += n->processor().stats().*f;
            }
            return total;
        };
    };
    metrics_.addCounter("proc.cycles.compute",
                        sumProcCycles(&node::ProcessorStats::compute));
    metrics_.addCounter("proc.cycles.memBusy",
                        sumProcCycles(&node::ProcessorStats::memBusy));
    metrics_.addCounter("proc.cycles.issueBusy",
                        sumProcCycles(&node::ProcessorStats::issueBusy));
    metrics_.addCounter("proc.cycles.verifyBusy",
                        sumProcCycles(&node::ProcessorStats::verifyBusy));
    metrics_.addCounter("proc.cycles.ctxOverhead",
                        sumProcCycles(&node::ProcessorStats::ctxOverhead));
    for (unsigned k = 1;
         k < static_cast<unsigned>(node::StallKind::NumKinds); ++k) {
        const auto kind = static_cast<node::StallKind>(k);
        metrics_.addCounter(
            std::string("proc.stall.") + node::toString(kind),
            [this, k] {
                std::uint64_t total = 0;
                for (const auto& n : nodes_) {
                    total += n->processor().stats().stall[k];
                }
                return total;
            });
    }

    auto sumCache = [this](std::uint64_t node::Cache::Stats::* f) {
        return [this, f] {
            std::uint64_t total = 0;
            for (const auto& n : nodes_) {
                if (const node::Cache* cache = n->cache()) {
                    total += cache->stats().*f;
                }
            }
            return total;
        };
    };
    metrics_.addCounter("cache.hits",
                        sumCache(&node::Cache::Stats::hits));
    metrics_.addCounter("cache.misses",
                        sumCache(&node::Cache::Stats::misses));
    metrics_.addCounter("cache.evictions",
                        sumCache(&node::Cache::Stats::evictions));
    metrics_.addCounter("cache.snoopUpdates",
                        sumCache(&node::Cache::Stats::snoopUpdates));
    metrics_.addCounter("cache.snoopInvalidates",
                        sumCache(&node::Cache::Stats::snoopInvalidates));

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

    metrics_.addCounter("net.packets",
                        [this] { return network_->stats().packets; });
    metrics_.addCounter("net.payloadBytes",
                        [this] { return network_->stats().payloadBytes; });
    metrics_.addCounter("net.totalHops",
                        [this] { return network_->stats().totalHops; });
    metrics_.addDistribution("net.latency", &network_->latencyHistogram());
    metrics_.addDistribution("net.queueing",
                             &network_->queueingHistogram());
    metrics_.addCounter("net.dropped",
                        [this] { return network_->stats().dropped; });
    metrics_.addCounter("net.backpressureStalls", [this] {
        return network_->stats().backpressureStalls;
    });

    // Fault / reliable-link counters read through the accessors at
    // snapshot time: zero (and zero cost) until enableFaults() ran.
    auto faultStat = [this](std::uint64_t net::FaultStats::* field) {
        return [this, field]() -> std::uint64_t {
            const net::FaultInjector* inj = network_->faultInjector();
            return inj ? inj->stats().*field : 0;
        };
    };
    metrics_.addCounter("net.fault.dropped",
                        faultStat(&net::FaultStats::dropped));
    metrics_.addCounter("net.fault.corrupted",
                        faultStat(&net::FaultStats::corrupted));
    metrics_.addCounter("net.fault.duplicated",
                        faultStat(&net::FaultStats::duplicated));
    metrics_.addCounter("net.fault.delayed",
                        faultStat(&net::FaultStats::delayed));
    auto linkStat = [this](std::uint64_t net::LinkStats::* field) {
        return [this, field]() -> std::uint64_t {
            const net::LinkLayer* link = network_->linkLayer();
            return link ? link->stats().*field : 0;
        };
    };
    metrics_.addCounter("net.link.retransmits",
                        linkStat(&net::LinkStats::retransmits));
    metrics_.addCounter("net.link.acksSent",
                        linkStat(&net::LinkStats::acksSent));
    metrics_.addCounter("net.link.dupSuppressed",
                        linkStat(&net::LinkStats::dupSuppressed));
    metrics_.addCounter("net.link.crcDrops",
                        linkStat(&net::LinkStats::crcDrops));
    metrics_.addCounter("net.link.peerDeaths",
                        linkStat(&net::LinkStats::peerDeaths));
    metrics_.addCounter("net.link.sealedDrops",
                        linkStat(&net::LinkStats::sealedDrops));
    metrics_.addCounter("net.fault.nodeCrashes",
                        faultStat(&net::FaultStats::nodeCrashes));

    // Crash-recovery outcomes (see docs/ROBUSTNESS.md "Crash recovery").
    if (recovery_) {
        auto recStat = [this](std::uint64_t proto::RecoveryStats::* field) {
            return [this, field] { return recovery_->stats().*field; };
        };
        metrics_.addCounter(
            "recovery.epochs",
            recStat(&proto::RecoveryStats::nodeRecoveries));
        metrics_.addCounter(
            "recovery.pagesRemastered",
            recStat(&proto::RecoveryStats::pagesRemastered));
        metrics_.addCounter(
            "recovery.copyListsRepaired",
            recStat(&proto::RecoveryStats::copyListsRepaired));
        metrics_.addCounter("recovery.pagesLost",
                            recStat(&proto::RecoveryStats::pagesLost));
        metrics_.addCounter("recovery.abortedOps",
                            recStat(&proto::RecoveryStats::abortedOps));
        metrics_.addCounter(
            "recovery.lostCompletions",
            recStat(&proto::RecoveryStats::lostCompletions));
        metrics_.addDistribution("recovery.latency",
                                 &recovery_->latencyHistogram());
    }

    // NACK re-translation retries (see CostModel::nackRetryLimit).
    metrics_.addCounter("proto.nack_retries",
                        sumCm(&proto::CmStats::retries));
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
    metrics_.addCounter("sim.eventsScheduled",
                        [this] { return engine_.stats().scheduled; });
    metrics_.addCounter("sim.eventsExecuted",
                        [this] { return engine_.stats().executed; });
    metrics_.addCounter("sim.eventsCancelled",
                        [this] { return engine_.stats().cancelled; });
    metrics_.addCounter("sim.wheelCascades",
                        [this] { return engine_.stats().cascades; });
    metrics_.addGauge("sim.slabHighWater", [this] {
        return static_cast<double>(engine_.stats().slabHighWater);
    });
    metrics_.addGauge("sim.slabSlots", [this] {
        return static_cast<double>(engine_.stats().slabSlots);
    });

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
    if (!lostPages_.empty() &&
        lostPages_.find(vpn) != lostPages_.end()) {
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
        if (lostPages_.find(vpn) != lostPages_.end()) {
            PLUS_FATAL("protocol translation of lost page ", vpn,
                       " from node ", node,
                       " — lost accesses must complete degraded, never "
                       "re-translate");
        }
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
    if (config_.resolvedProtocol() != CoherenceProtocol::WriteInvalidate) {
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
    // The copy engine's events belong to the anchor node's lane.
    engine_.withNodeContext(anchor.node, [&] {
        nodes_[anchor.node]->cm().startPageCopy(anchor.frame, new_copy,
                                                copy_id, vpn);
    });
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
    if (node::Cache* cache = nodes_[node]->cache()) {
        cache->flush();
    }
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
    const std::vector<PhysPage> order = cl.copies();
    for (std::size_t i = 0; i < order.size(); ++i) {
        mem::CoherenceTables& tables = nodes_[order[i].node]->tables();
        tables.setMaster(order[i].frame, cl.master());
        tables.setNextCopy(order[i].frame,
                           i + 1 < order.size()
                               ? std::optional<PhysPage>(order[i + 1])
                               : std::nullopt);
    }
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
    if (config_.resolvedProtocol() == CoherenceProtocol::WriteInvalidate) {
        // The promoted copy may hold invalidated words the old master
        // never pushed back (invalidate chains carry no values). The
        // machine is quiesced, so sync the full page untimed before the
        // new master becomes the page's authority.
        mem::LocalMemory& src = nodes_[old_master.node]->memory();
        mem::LocalMemory& dst = nodes_[node]->memory();
        for (Addr off = 0; off < kPageWords; ++off) {
            dst.write(new_master.frame, off,
                      src.read(old_master.frame, off));
        }
        if (node::Cache* cache = nodes_[node]->cache()) {
            cache->flush();
        }
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

    for (std::size_t i = 0; i < order.size(); ++i) {
        mem::CoherenceTables& tables = nodes_[order[i].node]->tables();
        tables.setMaster(order[i].frame, new_master);
        tables.setNextCopy(order[i].frame,
                           i + 1 < order.size()
                               ? std::optional<PhysPage>(order[i + 1])
                               : std::nullopt);
    }
    if (config_.resolvedProtocol() == CoherenceProtocol::WriteInvalidate) {
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
    started_ = true;
    if (net::FaultInjector* injector = network_->faultInjector()) {
        injector->scheduleScript(); // idempotent; cycles now count from here
    }
    for (NodeId id = 0; id < nodes_.size(); ++id) {
        // Thread-dispatch events get node-deterministic keys and lanes.
        engine_.withNodeContext(id, [&] {
            nodes_[id]->processor().start();
        });
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
            // The decision fires on a node lane; the replication itself
            // is a machine-lane directory mutation, so it is deferred by
            // machineLaneDelay_ and the guards re-evaluate when it runs.
            engine_.scheduleMachine(machineLaneDelay_, [this, id, vpn] {
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
