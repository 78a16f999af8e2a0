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
Network::deliver(Packet&& packet, unsigned hops, Cycles injected_at,
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
Network::deliverUp(Packet&& packet, unsigned hops, Cycles injected_at,
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

Network::Transit*
Network::acquireTransit(Packet&& packet)
{
    Transit* transit = nullptr;
    if (transitFree_.empty()) {
        transitPool_.push_back(std::make_unique<Transit>());
        transit = transitPool_.back().get();
    } else {
        transit = transitFree_.back();
        transitFree_.pop_back();
    }
    transit->injectedAt = engine_.now();
    transit->queueing = 0;
    transit->hops = 0;
    transit->at = packet.src;
    transit->packet = std::move(packet);
    return transit;
}

void
Network::releaseTransit(Transit* transit)
{
    transitFree_.push_back(transit);
}

void
Network::arrive(Transit* transit)
{
    // Recycled after delivery: a send() from the handler takes another
    // transit, so the packet is delivered in place.
    deliver(std::move(transit->packet), transit->hops, transit->injectedAt,
            transit->queueing);
    releaseTransit(transit);
}

void
IdealNetwork::inject(Packet&& packet)
{
    Transit* transit = acquireTransit(std::move(packet));
    transit->hops =
        topology_.distance(transit->packet.src, transit->packet.dst);
    engine_.schedule(zeroLoadLatency(transit->hops),
                     [this, transit] { arrive(transit); });
}

MeshNetwork::MeshNetwork(sim::Engine& engine, const Topology& topology,
                         const NetworkConfig& config)
    : Network(engine, topology, config)
{
    const unsigned nodes = topology.nodes();
    // Every link is the first hop of the route to its far end, so the
    // routing loop names every link's neighbour too.
    links_.resize(static_cast<std::size_t>(nodes) * kPorts);
    nextLink_.resize(static_cast<std::size_t>(nodes) * nodes);
    for (NodeId at = 0; at < nodes; ++at) {
        for (NodeId dst = 0; dst < nodes; ++dst) {
            if (at != dst) {
                const NodeId next = topology.nextHop(at, dst);
                const std::uint32_t link = linkBetween(at, next);
                links_[link].to = next;
                nextLink_[static_cast<std::size_t>(at) * nodes + dst] = link;
            }
        }
    }
}

std::uint32_t
MeshNetwork::linkBetween(NodeId from, NodeId to) const
{
    const Coord a = topology_.coordOf(from);
    const Coord b = topology_.coordOf(to);
    unsigned port = kPorts;
    if (a.y == b.y && b.x == a.x + 1) {
        port = 0;
    } else if (a.y == b.y && a.x == b.x + 1) {
        port = 1;
    } else if (a.x == b.x && b.y == a.y + 1) {
        port = 2;
    } else if (a.x == b.x && a.y == b.y + 1) {
        port = 3;
    }
    PLUS_ASSERT(port < kPorts, "link between non-adjacent nodes ", from,
                " and ", to);
    return from * kPorts + port;
}

void
MeshNetwork::inject(Packet&& packet)
{
    Transit* transit = acquireTransit(std::move(packet));
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
        arrive(transit);
        return;
    }

    Link& link = links_[nextLink_[static_cast<std::size_t>(transit->at) *
                                      topology_.nodes() +
                                  dst]];
    const NodeId next = link.to;

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
    for (const Link& link : links_) {
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
