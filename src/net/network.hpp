/**
 * @file
 * Interconnection-network models.
 *
 * The network moves opaque packets between coherence managers. Two models
 * share one interface:
 *
 *  - MeshNetwork: a 2-D mesh with dimension-order routing, wormhole-style
 *    cut-through switching, and finite link bandwidth. Each directed link
 *    is a busy-until resource: a packet reserves it for its serialization
 *    time, so heavy update traffic queues and the "system flooded with
 *    update requests" effect of Section 2.5 is visible.
 *  - IdealNetwork: applies the zero-load latency formula with no
 *    contention; used for ablation.
 *
 * Zero-load one-way latency is fixedCycles + perHopCycles * hops, which
 * with the defaults (10, 2) reproduces the paper's measured 24-cycle
 * adjacent-node round trip and +4 cycles per extra hop.
 */

#ifndef PLUS_NET_NETWORK_HPP_
#define PLUS_NET_NETWORK_HPP_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "check/event.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "net/topology.hpp"
#include "proto/messages.hpp"

namespace plus {
namespace sim {
class Engine;
} // namespace sim

namespace net {

/** A message in flight between two nodes. */
struct Packet {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    /** Message size in bytes, excluding the link-level header. */
    unsigned payloadBytes = 0;
    /**
     * Sender's classification (a proto::MsgType value), carried opaquely
     * for telemetry attribution; 0xff when unclassified. The network
     * itself never interprets it.
     */
    std::uint8_t msgClass = 0xff;

    // --- Link-layer envelope (net::LinkLayer; inert when faults off) ----

    /** 0 = raw (reliable layer off), else a LinkCtl value. */
    std::uint8_t linkCtl = 0;
    /** Cleared when the fault injector corrupted the payload in flight. */
    bool crcOk = true;
    /** Per-(src,dst) sequence number of a data frame. */
    std::uint32_t linkSeq = 0;
    /** Cumulative acknowledgement carried by an ack frame. */
    std::uint32_t linkAck = 0;

    /** The protocol message; std::monostate for link-layer acks. */
    proto::Message message;
};

/** Values of Packet::linkCtl. */
enum LinkCtl : std::uint8_t {
    kLinkRaw = 0,  ///< not under reliable delivery
    kLinkData = 1, ///< sequenced data frame
    kLinkAck = 2,  ///< cumulative acknowledgement
};

/** msgClass of link-layer ack packets (never seen by protocol code). */
constexpr std::uint8_t kLinkAckClass = 0xfe;

/**
 * Aggregate network statistics. Counters only: the latency/queueing
 * distributions live on Network as histograms; read them via
 * latencyHistogram()/queueingHistogram().
 */
struct NetworkStats {
    std::uint64_t packets = 0;
    std::uint64_t payloadBytes = 0;
    std::uint64_t totalHops = 0;
    /** Packets discarded by the fault layer (any DropReason). */
    std::uint64_t dropped = 0;
};

/** NetworkStats exported as net.* counters, in snapshot order. */
inline constexpr StatRow<NetworkStats> kNetworkStatRows[] = {
    {"net.packets", &NetworkStats::packets},
    {"net.payloadBytes", &NetworkStats::payloadBytes},
    {"net.totalHops", &NetworkStats::totalHops},
    {"net.dropped", &NetworkStats::dropped},
};

/** Per-node packet sink. */
using DeliveryHandler = std::function<void(Packet&&)>;

class FaultInjector;
class LinkLayer;

/** Common interface of the two network models. */
class Network
{
  public:
    Network(sim::Engine& engine, const Topology& topology,
            const NetworkConfig& config);
    virtual ~Network();

    Network(const Network&) = delete;
    Network& operator=(const Network&) = delete;

    /** Register the receiver for packets addressed to @p node. */
    void setDeliveryHandler(NodeId node, DeliveryHandler handler);

    /**
     * Report deliveries, drops, retransmits and (on the mesh) per-link
     * occupancy to @p events. Null (the default) disables: the hot path
     * then pays one branch per event.
     */
    void setEventStream(check::EventStream* events) { events_ = events; }

    /**
     * Arm fault injection and the reliable-delivery layer (always
     * together: an unreliable fabric without recovery would break the
     * protocol's FIFO assumptions). Call once, before any traffic.
     * With @p arm_script false the fault script is not scheduled yet;
     * the caller arms it later via faultInjector()->scheduleScript()
     * (core::Machine does so at the first run(), making script cycles
     * relative to the workload start instead of machine boot).
     */
    void enableFaults(const FaultConfig& fault, bool arm_script = true);

    /** The armed injector, or null when faults are off. */
    FaultInjector* faultInjector() { return injector_.get(); }

    /** The armed reliable layer, or null when faults are off. */
    LinkLayer* linkLayer() { return link_.get(); }

    /**
     * Send a packet from its source node at the current cycle. src == dst
     * is rejected: local traffic never enters the network. When the
     * reliable layer is armed the packet is sequenced and tracked for
     * retransmission first; otherwise this goes straight to the model's
     * inject() — one branch, the usual disabled-instrumentation cost.
     */
    void send(Packet packet);

    const Topology& topology() const { return topology_; }

    /** Aggregate counters. */
    const NetworkStats& stats() const { return stats_; }

    /** End-to-end latency per delivered packet, cycles. */
    const Histogram& latencyHistogram() const { return latency_; }

    /** Cycles spent queued behind busy links (contention only). */
    const Histogram& queueingHistogram() const { return queueing_; }

    /** Zero-load one-way latency for a given hop count. */
    Cycles
    zeroLoadLatency(unsigned hops) const
    {
        return config_.fixedCycles + config_.perHopCycles * hops;
    }

    /** Cycles a packet of the given payload occupies one link. */
    Cycles serializationCycles(unsigned payload_bytes) const;

  protected:
    friend class LinkLayer;

    /** Put a packet on the wire (the model's raw, lossy path). */
    virtual void inject(Packet&& packet) = 0;

    /**
     * Physical arrival at the destination router. Routes through the
     * reliable layer when armed (sequencing, dedup, acks); otherwise
     * hands straight up to the protocol.
     */
    void deliver(Packet&& packet, unsigned hops, Cycles injected_at,
                 Cycles queueing);

    /** Protocol-visible delivery: stats, telemetry, the node handler. */
    void deliverUp(Packet&& packet, unsigned hops, Cycles injected_at,
                   Cycles queueing);

    /** Count a fault-layer discard and report it to the stream. */
    void noteDrop(NodeId src, NodeId dst, std::uint8_t msg_class,
                  unsigned bytes, check::DropReason reason);

    /**
     * A packet on the wire: the models thread it through their delivery
     * events by pointer, so no event has to capture the packet itself.
     */
    struct Transit {
        Packet packet;
        Cycles injectedAt = 0;
        Cycles queueing = 0;
        unsigned hops = 0;
        NodeId at = kInvalidNode;
    };

    /**
     * Grab a pooled transit for @p packet, injected now at its source,
     * so every in-flight packet costs one pool hit instead of an
     * allocation per send.
     */
    Transit* acquireTransit(Packet&& packet);
    void releaseTransit(Transit* transit);

    /** Deliver @p transit's packet, then recycle the transit. */
    void arrive(Transit* transit);

    sim::Engine& engine_;
    Topology topology_;
    NetworkConfig config_;
    NetworkStats stats_;
    Histogram latency_;
    Histogram queueing_;
    std::vector<DeliveryHandler> handlers_;
    check::EventStream* events_ = nullptr;
    std::unique_ptr<FaultInjector> injector_;
    std::unique_ptr<LinkLayer> link_;
    /** Owning transit pool; recycled through transitFree_. */
    std::vector<std::unique_ptr<Transit>> transitPool_;
    std::vector<Transit*> transitFree_;
};

/** Contention-free model: latency formula only. */
class IdealNetwork : public Network
{
  public:
    using Network::Network;

  protected:
    void inject(Packet&& packet) override;
};

/**
 * 2-D mesh with per-link busy-until bandwidth accounting and hop-by-hop
 * cut-through forwarding.
 */
class MeshNetwork : public Network
{
  public:
    MeshNetwork(sim::Engine& engine, const Topology& topology,
                const NetworkConfig& config);

    /** Busy cycles accumulated on the most utilized link. */
    Cycles maxLinkBusyCycles() const;

  protected:
    void inject(Packet&& packet) override;

  private:
    /** Router ports with a mesh neighbour: +x, -x, +y, -y. */
    static constexpr unsigned kPorts = 4;

    /** Directed link from a router to its neighbour on one port. */
    struct Link {
        Cycles freeAt = 0;
        Cycles busyCycles = 0;
        NodeId to = kInvalidNode; ///< kInvalidNode: no neighbour there
    };

    /** Index into links_ of the link from @p from to adjacent @p to. */
    std::uint32_t linkBetween(NodeId from, NodeId to) const;
    void hop(Transit* transit);

    /** Index node * kPorts + port. */
    std::vector<Link> links_;
    /**
     * Index at * nodes + dst: the links_ index of the dimension-order
     * next hop from at toward dst, filled at construction from
     * Topology::nextHop.
     */
    std::vector<std::uint32_t> nextLink_;
};

/** Factory honouring NetworkConfig::ideal. */
std::unique_ptr<Network> makeNetwork(sim::Engine& engine,
                                     const Topology& topology,
                                     const NetworkConfig& config);

} // namespace net
} // namespace plus

#endif // PLUS_NET_NETWORK_HPP_
