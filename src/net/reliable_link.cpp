#include "net/reliable_link.hpp"

#include <algorithm>
#include <utility>

#include "common/log.hpp"
#include "common/panic.hpp"
#include "net/fault_injector.hpp"
#include "sim/engine.hpp"

namespace plus {
namespace net {

namespace {

/** Cap on timeout doublings: backoff = rto << min(attempts, cap). */
constexpr unsigned kBackoffCap = 6;

} // namespace

LinkLayer::LinkLayer(Network& network, sim::Engine& engine,
                     FaultInjector& injector, const FaultConfig& config)
    : net_(network), engine_(engine), injector_(injector), config_(config),
      srtt_(network.topology().nodes(), 0),
      rttvar_(network.topology().nodes(), 0),
      sender_(network.topology().nodes()),
      recv_(network.topology().nodes()),
      sealed_(network.topology().nodes(), 0)
{
    // Derive a timeout that comfortably exceeds a contended round trip
    // across the diameter of the machine.
    const Topology& topo = net_.topology();
    unsigned diameter = 0;
    for (NodeId a = 0; a < topo.nodes(); ++a) {
        for (NodeId b = a + 1; b < topo.nodes(); ++b) {
            diameter = std::max(diameter, topo.distance(a, b));
        }
    }
    timeout_ = 16 * net_.zeroLoadLatency(diameter) +
               4 * net_.serializationCycles(64);
}

Packet
LinkLayer::clonePacket(const Packet& packet) const
{
    Packet copy;
    copy.src = packet.src;
    copy.dst = packet.dst;
    copy.payloadBytes = packet.payloadBytes;
    copy.msgClass = packet.msgClass;
    copy.linkCtl = packet.linkCtl;
    copy.crcOk = packet.crcOk;
    copy.linkSeq = packet.linkSeq;
    copy.linkAck = packet.linkAck;
    if (packet.payload) {
        copy.payload = packet.payload->clone();
        if (!copy.payload) {
            PLUS_PANIC("packet of class ", unsigned(packet.msgClass),
                       " carries an uncloneable payload; reliable "
                       "delivery needs Payload::clone()");
        }
    }
    return copy;
}

void
LinkLayer::sendData(Packet packet)
{
    SenderChan& chan = sender_[packet.src][packet.dst];
    packet.linkCtl = kLinkData;
    packet.linkSeq = chan.nextSeq++;
    stats_.dataFrames += 1;

    auto [it, inserted] =
        chan.unacked.emplace(packet.linkSeq, Unacked{});
    PLUS_ASSERT(inserted, "sequence number reused on channel ",
                packet.src, " -> ", packet.dst);
    it->second.frame = clonePacket(packet);
    it->second.sentAt = engine_.now();
    armTimer(packet.src, packet.dst, packet.linkSeq, it->second);

    transmit(std::move(packet));
}

void
LinkLayer::transmit(Packet packet)
{
    // A dead router loses everything it would send or receive; the
    // retransmit timer recovers the frame after a revival.
    if (!injector_.nodeAlive(packet.src) ||
        !injector_.nodeAlive(packet.dst)) {
        net_.noteDrop(packet.src, packet.dst, packet.msgClass,
                      packet.payloadBytes, check::DropReason::NodeDown);
        return;
    }

    switch (injector_.fateFor(packet)) {
      case Fate::Drop:
        net_.noteDrop(packet.src, packet.dst, packet.msgClass,
                      packet.payloadBytes, check::DropReason::Injected);
        return;
      case Fate::Corrupt:
        packet.crcOk = false;
        net_.inject(std::move(packet));
        return;
      case Fate::Duplicate: {
        Packet copy = clonePacket(packet);
        net_.inject(std::move(packet));
        net_.inject(std::move(copy));
        return;
      }
      case Fate::Delay: {
        const Cycles extra = injector_.delayFor();
        engine_.schedule(extra, [this, p = std::move(packet)]() mutable {
            net_.inject(std::move(p));
        });
        return;
      }
      case Fate::Deliver:
        net_.inject(std::move(packet));
        return;
      default:
        PLUS_PANIC("unknown packet fate");
    }
}

void
LinkLayer::receive(Packet packet, unsigned hops, Cycles injected_at,
                   Cycles queueing)
{
    if (!packet.crcOk) {
        // Corruption is detected, never consumed: a bad frame is a drop.
        stats_.crcDrops += 1;
        net_.noteDrop(packet.src, packet.dst, packet.msgClass,
                      packet.payloadBytes, check::DropReason::Corrupt);
        return;
    }

    if (sealed_[packet.src]) {
        // The source crashed and its recovery epoch sealed: whatever it
        // still had in flight (delayed injections, duplicates) must
        // never reach the protocol again.
        stats_.sealedDrops += 1;
        net_.noteDrop(packet.src, packet.dst, packet.msgClass,
                      packet.payloadBytes, check::DropReason::Sealed);
        return;
    }

    if (packet.linkCtl == kLinkAck) {
        handleAck(packet);
        return;
    }
    PLUS_ASSERT(packet.linkCtl == kLinkData,
                "raw packet on a reliable channel");

    const NodeId src = packet.src;
    const NodeId dst = packet.dst;
    ReceiverChan& chan = recv_[dst][src];

    if (packet.linkSeq <= chan.delivered) {
        // Already delivered: a duplicate (injected, or a retransmit
        // racing its own ack). Suppress it and repair the sender's view.
        stats_.dupSuppressed += 1;
        net_.noteDrop(src, dst, packet.msgClass, packet.payloadBytes,
                      check::DropReason::Duplicate);
        sendAck(dst, src, chan.delivered);
        return;
    }

    if (packet.linkSeq > chan.delivered + 1) {
        // A gap: park the frame so the protocol keeps seeing FIFO
        // order, and re-ack the watermark so the sender can trim.
        stats_.reordered += 1;
        chan.held.emplace(packet.linkSeq,
                          Held{std::move(packet), hops, injected_at,
                               queueing});
        sendAck(dst, src, chan.delivered);
        return;
    }

    // In order: deliver, then drain any parked successors.
    chan.delivered += 1;
    net_.deliverUp(std::move(packet), hops, injected_at, queueing);
    while (!chan.held.empty() &&
           chan.held.begin()->first == chan.delivered + 1) {
        auto node = chan.held.extract(chan.held.begin());
        chan.delivered += 1;
        Held& held = node.mapped();
        net_.deliverUp(std::move(held.packet), held.hops, held.injectedAt,
                       held.queueing);
    }
    sendAck(dst, src, chan.delivered);
}

void
LinkLayer::handleAck(const Packet& ack)
{
    stats_.acksReceived += 1;
    // The data channel runs ack.dst -> ack.src (acks travel backwards).
    auto it = sender_[ack.dst].find(ack.src);
    if (it == sender_[ack.dst].end()) {
        return;
    }
    SenderChan& chan = it->second;
    bool progress = false;
    Cycles sample = 0;
    auto entry = chan.unacked.begin();
    while (entry != chan.unacked.end() && entry->first <= ack.linkAck) {
        if (entry->second.attempts == 0) {
            // Karn's rule: never sample a retransmitted frame — the ack
            // could belong to either transmission.
            sample = engine_.now() - entry->second.sentAt;
        }
        engine_.cancel(entry->second.timer);
        entry = chan.unacked.erase(entry);
        progress = true;
    }
    if (sample != 0) {
        sampleRtt(ack.dst, sample);
    }
    if (progress) {
        // The channel is moving: frames behind the acked ones are very
        // likely queued, not lost. Restart their clocks so a congested
        // stretch does not read as loss.
        for (auto& [seq, pending] : chan.unacked) {
            engine_.cancel(pending.timer);
            armTimer(ack.dst, ack.src, seq, pending);
        }
    }
}

void
LinkLayer::sampleRtt(NodeId src, Cycles sample)
{
    Cycles& srtt = srtt_[src];
    Cycles& rttvar = rttvar_[src];
    if (srtt == 0) {
        srtt = sample;
        rttvar = sample / 2;
        return;
    }
    const Cycles diff = sample > srtt ? sample - srtt : srtt - sample;
    rttvar = (3 * rttvar + diff) / 4;
    srtt = (7 * srtt + sample) / 8;
}

void
LinkLayer::sendAck(NodeId from, NodeId to, std::uint32_t cumulative)
{
    Packet ack;
    ack.src = from;
    ack.dst = to;
    ack.payloadBytes = 4;
    ack.msgClass = kLinkAckClass;
    ack.linkCtl = kLinkAck;
    ack.linkAck = cumulative;
    stats_.acksSent += 1;
    transmit(std::move(ack));
}

void
LinkLayer::armTimer(NodeId src, NodeId dst, std::uint32_t seq,
                    Unacked& entry)
{
    const Cycles backoff =
        rto(src) << std::min<unsigned>(entry.attempts, kBackoffCap);
    entry.timer = engine_.schedule(
        backoff, [this, src, dst, seq] { onTimeout(src, dst, seq); });
}

void
LinkLayer::onTimeout(NodeId src, NodeId dst, std::uint32_t seq)
{
    SenderChan& chan = sender_[src][dst];
    auto it = chan.unacked.find(seq);
    if (it == chan.unacked.end()) {
        return; // acked while the timer event was already dispatched
    }
    Unacked& entry = it->second;
    entry.attempts += 1;
    if (config_.maxRetransmits != 0 &&
        entry.attempts > config_.maxRetransmits) {
        if (config_.recover && injector_.nodeCrashed(dst)) {
            // Fail-stop silence, not a partition: the budget exhausting
            // toward a crashed peer is the crash-detection signal.
            // Abandon the channel (recovery aborts and replays its
            // operations) and report the death instead of panicking.
            PLUS_LOG(LogComponent::Net, "link ", src, " -> ", dst,
                     " detected peer death on frame ", seq);
            dropChannel(chan);
            stats_.peerDeaths += 1;
            if (peerDeath_) {
                peerDeath_(dst);
            }
            return;
        }
        if (config_.recover && injector_.nodeCrashed(src)) {
            // The sender itself is dead; its leftover timers are noise.
            dropChannel(chan);
            return;
        }
        PLUS_PANIC("reliable link ", src, " -> ", dst, " gave up on frame ",
                   seq, " after ", config_.maxRetransmits,
                   " retransmits (permanent partition?)");
    }
    stats_.retransmits += 1;
    if (net_.events_) {
        net_.events_->emit({.kind = check::EventKind::Retransmit,
                            .node = src,
                            .peer = dst,
                            .a = seq,
                            .b = entry.attempts});
    }
    PLUS_LOG(LogComponent::Net, "retransmit ", src, " -> ", dst, " seq ",
             seq, " attempt ", entry.attempts);
    transmit(clonePacket(entry.frame));
    armTimer(src, dst, seq, entry);
}

void
LinkLayer::dropChannel(SenderChan& chan)
{
    for (auto& [seq, pending] : chan.unacked) {
        (void)seq;
        engine_.cancel(pending.timer);
    }
    chan.unacked.clear();
}

void
LinkLayer::purgeNode(NodeId dead)
{
    // Machine context only.
    for (std::size_t src = 0; src < sender_.size(); ++src) {
        auto it = sender_[src].find(dead);
        if (it != sender_[src].end()) {
            dropChannel(it->second);
            sender_[src].erase(it);
        }
    }
    // pluslint: allow(R1) -- timer cancellation is order-independent.
    for (auto& [dst, chan] : sender_[dead]) {
        (void)dst;
        dropChannel(chan);
    }
    sender_[dead].clear();
    recv_[dead].clear();
    for (std::size_t dst = 0; dst < recv_.size(); ++dst) {
        recv_[dst].erase(dead);
    }
}

void
LinkLayer::sealNode(NodeId dead)
{
    sealed_[dead] = 1;
}

std::size_t
LinkLayer::inFlight() const
{
    std::size_t total = 0;
    for (const auto& per_src : sender_) {
        // pluslint: allow(R1) -- commutative sum; order-independent.
        for (const auto& [dst, chan] : per_src) {
            (void)dst;
            total += chan.unacked.size();
        }
    }
    return total;
}

} // namespace net
} // namespace plus
