#include "net/network.hpp"

#include <cmath>

#include "common/log.hpp"
#include "common/panic.hpp"
#include "net/fault_injector.hpp"
#include "net/reliable_link.hpp"
#include "sim/engine.hpp"
#include "telemetry/prof.hpp"

namespace plus {
namespace net {

namespace {

/** Per-message header size in bytes (routing, type, originator, tag). */
constexpr unsigned kHeaderBytes = 8;

} // namespace

Network::Network(sim::Engine& engine, const Topology& topology,
                 const NetworkConfig& config)
    : engine_(engine), topology_(topology), config_(config),
      handlers_(topology.nodes())
{
}

Network::~Network() = default;

void
Network::setDeliveryHandler(NodeId node, DeliveryHandler handler)
{
    PLUS_ASSERT(node < handlers_.size(), "handler for unknown node");
    handlers_[node] = std::move(handler);
}

Cycles
Network::serializationCycles(unsigned payload_bytes) const
{
    const double bytes = kHeaderBytes + payload_bytes;
    return static_cast<Cycles>(std::ceil(bytes / config_.bytesPerCycle));
}

void
Network::enableFaults(const FaultConfig& fault, bool arm_script)
{
    PLUS_ASSERT(fault.enabled, "enableFaults with a disabled config");
    PLUS_ASSERT(!injector_, "fault injection enabled twice");
    PLUS_ASSERT(stats().packets == 0,
                "enableFaults must precede all traffic");
    injector_ = std::make_unique<FaultInjector>(engine_, topology_, fault);
    link_ = std::make_unique<LinkLayer>(*this, engine_, *injector_, fault);
    if (arm_script) {
        injector_->scheduleScript();
    }
}

void
Network::send(Packet packet)
{
    PLUS_ASSERT(packet.src != packet.dst, "local traffic on the network");
    if (link_) {
        link_->sendData(std::move(packet));
        return;
    }
    inject(std::move(packet));
}

void
Network::deliver(Packet packet, unsigned hops, Cycles injected_at,
                 Cycles queueing)
{
    // A dead destination router consumes nothing (mid-flight kills; the
    // reliable layer's retransmission recovers the frame on revival).
    if (injector_ && !injector_->nodeAlive(packet.dst)) {
        noteDrop(packet.src, packet.dst, packet.msgClass,
                 packet.payloadBytes, check::DropReason::NodeDown);
        return;
    }
    if (link_) {
        link_->receive(std::move(packet), hops, injected_at, queueing);
        return;
    }
    deliverUp(std::move(packet), hops, injected_at, queueing);
}

void
Network::deliverUp(Packet packet, unsigned hops, Cycles injected_at,
                   Cycles queueing)
{
    const prof::ScopedPhase prof_scope(prof::Phase::NetDeliver);
    stats_.packets += 1;
    stats_.payloadBytes += packet.payloadBytes;
    stats_.totalHops += hops;
    const Cycles latency = engine_.now() - injected_at;
    latency_.record(static_cast<double>(latency));
    queueing_.record(static_cast<double>(queueing));
    if (events_) {
        events_->emit({.kind = check::EventKind::PacketDelivered,
                       .cls = packet.msgClass,
                       .node = packet.dst,
                       .peer = packet.src,
                       .bytes = packet.payloadBytes,
                       .a = latency,
                       .b = queueing});
    }

    const NodeId dst = packet.dst;
    PLUS_ASSERT(dst < handlers_.size() && handlers_[dst],
                "no delivery handler for node ", dst);
    handlers_[dst](std::move(packet));
}

void
Network::noteDrop(NodeId src, NodeId dst, std::uint8_t msg_class,
                  unsigned bytes, check::DropReason reason)
{
    stats_.dropped += 1;
    PLUS_LOG(LogComponent::Net, "drop ", src, " -> ", dst, " (",
             check::toString(reason), ")");
    if (events_) {
        events_->emit({.kind = check::EventKind::PacketDropped,
                       .cls = msg_class,
                       .node = src,
                       .peer = dst,
                       .bytes = bytes,
                       .a = static_cast<std::uint64_t>(reason)});
    }
}

void
IdealNetwork::inject(Packet packet)
{
    const Cycles latency =
        zeroLoadLatency(topology_.distance(packet.src, packet.dst));
    const Cycles injected_at = engine_.now();
    // sim::Event takes move-only captures, so the packet rides inline
    // in the event record — no allocation per send. hops is recomputed
    // at delivery to keep the capture within the inline budget.
    engine_.schedule(latency, [this, p = std::move(packet),
                               injected_at]() mutable {
        const unsigned hops = topology_.distance(p.src, p.dst);
        deliver(std::move(p), hops, injected_at, 0);
    });
}

MeshNetwork::MeshNetwork(sim::Engine& engine, const Topology& topology,
                         const NetworkConfig& config)
    : Network(engine, topology, config)
{
    // Populate every directed adjacent link up front: the map is never
    // mutated again, so hop-time lookups are finds.
    for (NodeId from = 0; from < topology.nodes(); ++from) {
        for (NodeId to = 0; to < topology.nodes(); ++to) {
            if (from != to && topology.distance(from, to) == 1) {
                links_.emplace(static_cast<std::uint64_t>(from) *
                                   topology.nodes() + to,
                               Link{});
            }
        }
    }
}

MeshNetwork::Link&
MeshNetwork::linkBetween(NodeId from, NodeId to)
{
    const std::uint64_t key =
        static_cast<std::uint64_t>(from) * topology_.nodes() + to;
    const auto it = links_.find(key);
    PLUS_ASSERT(it != links_.end(), "link between non-adjacent nodes ",
                from, " and ", to);
    return it->second;
}

MeshNetwork::Transit*
MeshNetwork::acquireTransit()
{
    if (transitFree_.empty()) {
        transitPool_.push_back(std::make_unique<Transit>());
        return transitPool_.back().get();
    }
    Transit* transit = transitFree_.back();
    transitFree_.pop_back();
    return transit;
}

void
MeshNetwork::releaseTransit(Transit* transit)
{
    transit->packet = Packet{};
    transitFree_.push_back(transit);
}

void
MeshNetwork::inject(Packet packet)
{
    Transit* transit = acquireTransit();
    transit->injectedAt = engine_.now();
    transit->queueing = 0;
    transit->hops = 0;
    transit->at = packet.src;
    transit->packet = std::move(packet);
    // The fixed overhead covers the network interface and first-router
    // setup; the head then advances hop by hop.
    engine_.schedule(config_.fixedCycles,
                     [this, transit] { hop(transit); });
}

void
MeshNetwork::hop(Transit* transit)
{
    const NodeId dst = transit->packet.dst;
    if (transit->at == dst) {
        Packet packet = std::move(transit->packet);
        const unsigned hops = transit->hops;
        const Cycles injected_at = transit->injectedAt;
        const Cycles queueing = transit->queueing;
        // Recycle before delivering: the handler may send() again.
        releaseTransit(transit);
        deliver(std::move(packet), hops, injected_at, queueing);
        return;
    }

    const NodeId next = topology_.nextHop(transit->at, dst);

    // Faults: a packet already in flight dies at a killed link or a
    // dead router, like the real fabric; the reliable layer's timers
    // recover it once the path heals.
    if (injector_ && (!injector_->linkAlive(transit->at, next) ||
                      !injector_->nodeAlive(transit->at) ||
                      !injector_->nodeAlive(next))) {
        const check::DropReason reason =
            injector_->linkAlive(transit->at, next)
                ? check::DropReason::NodeDown
                : check::DropReason::LinkDown;
        noteDrop(transit->at, next, transit->packet.msgClass,
                 transit->packet.payloadBytes, reason);
        releaseTransit(transit);
        return;
    }

    Link& link = linkBetween(transit->at, next);
    const Cycles now = engine_.now();
    const Cycles serialization =
        serializationCycles(transit->packet.payloadBytes);

    const Cycles start = std::max(now, link.freeAt);
    const Cycles wait = start - now;
    link.freeAt = start + serialization;
    link.busyCycles += serialization;
    if (events_) {
        events_->emit({.kind = check::EventKind::LinkBusy,
                       .cls = transit->packet.msgClass,
                       .node = transit->at,
                       .peer = next,
                       .bytes = transit->packet.payloadBytes,
                       .a = start,
                       .b = serialization});
    }

    transit->queueing += wait;
    transit->hops += 1;
    transit->at = next;
    // Cut-through: the head moves on after the router latency; the tail
    // occupies the link for the serialization time behind it.
    engine_.schedule(wait + config_.perHopCycles,
                     [this, transit] { hop(transit); });
}

Cycles
MeshNetwork::maxLinkBusyCycles() const
{
    Cycles best = 0;
    // pluslint: allow(R1) -- max over all values; order-independent.
    for (const auto& [key, link] : links_) {
        (void)key;
        best = std::max(best, link.busyCycles);
    }
    return best;
}

std::unique_ptr<Network>
makeNetwork(sim::Engine& engine, const Topology& topology,
            const NetworkConfig& config)
{
    if (config.ideal) {
        return std::make_unique<IdealNetwork>(engine, topology, config);
    }
    return std::make_unique<MeshNetwork>(engine, topology, config);
}

} // namespace net
} // namespace plus
