#include "proto/coherence_manager.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/log.hpp"
#include "common/panic.hpp"
#include "net/network.hpp"
#include "proto/protocol.hpp"
#include "sim/engine.hpp"
#include "telemetry/prof.hpp"

namespace plus {
namespace proto {

namespace {

/** Words per background page-copy batch. */
constexpr Addr kPageCopyBatchWords = 32;

/**
 * Re-translation retries per nacked request before the manager panics
 * with the event trace: a silent livelock becomes a diagnosable failure.
 */
constexpr unsigned kNackRetryLimit = 64;

/**
 * Extra delay of the second and later retries of one request:
 * kNackBackoffBase << min(retry - 2, kNackBackoffCap).
 */
constexpr Cycles kNackBackoffBase = 64;
constexpr unsigned kNackBackoffCap = 6;

/** Downcast an owned protocol message to its concrete type. */
template <typename T>
std::unique_ptr<T>
take(std::unique_ptr<ProtoMsg>& msg)
{
    return std::unique_ptr<T>(static_cast<T*>(msg.release()));
}

/** Page a message addresses, for traffic attribution (0 = none). */
Vpn
vpnOf(const ProtoMsg& msg)
{
    switch (msg.type) {
      case MsgType::ReadReq:
        return static_cast<const ReadReq&>(msg).vpn;
      case MsgType::WriteReq:
        return static_cast<const WriteReq&>(msg).vpn;
      case MsgType::UpdateReq:
        return static_cast<const UpdateReq&>(msg).vpn;
      case MsgType::RmwReq:
        return static_cast<const RmwReq&>(msg).vpn;
      case MsgType::Nack:
        return static_cast<const Nack&>(msg).vpn;
      default:
        return 0;
    }
}

} // namespace

std::uint64_t
CmStats::totalSent() const
{
    return std::accumulate(sent.begin(), sent.end(), std::uint64_t{0});
}

CoherenceManager::CoherenceManager(NodeId self, const CostModel& cost,
                                   Deps deps, CoherenceProtocol protocol)
    : self_(self), cost_(cost), deps_(deps),
      protocol_(makeProtocol(protocol, *this)),
      pendingWrites_(cost.pendingWriteEntries),
      delayedOps_(cost.delayedOpEntries),
      verifyWaiters_(cost.delayedOpEntries, kNoThread)
{
    PLUS_ASSERT(deps_.engine && deps_.network && deps_.memory &&
                deps_.tables, "coherence manager missing dependencies");
}

CoherenceManager::~CoherenceManager() = default;

void
CoherenceManager::enqueue(Cycles occupancy, sim::Event work)
{
    const Cycles now = deps_.engine->now();
    const Cycles start = std::max(now, busyUntil_);
    const Cycles finish = start + occupancy;
    busyUntil_ = finish;
    stats_.busyCycles += occupancy;
    deps_.engine->schedule(finish - now, std::move(work));
}

void
CoherenceManager::send(NodeId dst, std::unique_ptr<ProtoMsg> msg,
                       unsigned bytes)
{
    PLUS_ASSERT(dst != self_, "protocol message addressed to self");
    stats_.sent[static_cast<std::size_t>(msg->type)] += 1;
    PLUS_LOG(LogComponent::Proto, "n", self_, " -> n", dst, " ",
             toString(msg->type));
    if (events_) {
        events_->emit({.kind = check::EventKind::MessageSent,
                       .cls = static_cast<std::uint8_t>(msg->type),
                       .node = self_,
                       .peer = dst,
                       .bytes = bytes,
                       .vpn = vpnOf(*msg)});
    }
    net::Packet packet;
    packet.src = self_;
    packet.dst = dst;
    packet.payloadBytes = bytes;
    packet.msgClass = static_cast<std::uint8_t>(msg->type);
    packet.payload = std::move(msg);
    deps_.network->send(std::move(packet));
}

void
CoherenceManager::applyLocal(FrameId frame, Addr word_offset, Word value)
{
    deps_.memory->write(frame, word_offset, value);
    if (snoop_) {
        snoop_(frame, word_offset, value);
    }
}

// --------------------------------------------------------------------------
// Processor-side interface
// --------------------------------------------------------------------------

std::optional<Word>
CoherenceManager::procRead(unsigned thread, Vpn vpn, Addr word_offset,
                           PhysAddr phys)
{
    return run({ParkedOp::Kind::Read, thread, vpn, word_offset, phys},
               /*resumed=*/false);
}

bool
CoherenceManager::procWrite(unsigned thread, Vpn vpn, Addr word_offset,
                            PhysAddr phys, Word value)
{
    return run({ParkedOp::Kind::Write, thread, vpn, word_offset, phys, value},
               /*resumed=*/false)
        .has_value();
}

std::optional<DelayedOpHandle>
CoherenceManager::procIssueRmw(unsigned thread, RmwOp op, Vpn vpn,
                               Addr word_offset, PhysAddr phys,
                               Word operand)
{
    return run({ParkedOp::Kind::Rmw, thread, vpn, word_offset, phys, operand,
                op},
               /*resumed=*/false);
}

std::optional<DelayedOpHandle>
CoherenceManager::procIssueLostRmw(unsigned thread, RmwOp op)
{
    return run({.kind = ParkedOp::Kind::LostRmw, .thread = thread, .op = op},
               /*resumed=*/false);
}

std::optional<Word>
CoherenceManager::procVerify(unsigned thread, DelayedOpHandle handle)
{
    if (delayedOps_.ready(handle)) {
        return takeResult(handle);
    }
    PLUS_ASSERT(delayedOps_.inFlight(handle), "waiting on a free slot");
    PLUS_ASSERT(verifyWaiters_[handle] == kNoThread,
                "slot already has a waiter");
    verifyWaiters_[handle] = thread;
    return std::nullopt;
}

bool
CoherenceManager::procFence(unsigned thread)
{
    return run({ParkedOp::Kind::Fence, thread}, /*resumed=*/false)
        .has_value();
}

std::optional<Word>
CoherenceManager::run(ParkedOp op, bool resumed)
{
    using Kind = ParkedOp::Kind;
    using Stage = ParkedOp::Stage;
    // Park @p op on wait @p at unless it already passed that wait.
    const auto parks = [&op](Stage at, bool blocked,
                             std::vector<ParkedOp>& queue) {
        if (op.stage >= at || !blocked) {
            return false;
        }
        op.stage = at;
        queue.push_back(op);
        return true;
    };
    const auto done = [&](Word value) -> std::optional<Word> {
        if (resumed) {
            finish(op.thread, value);
        }
        return value;
    };
    // Writes, interlocked issues and fences queue behind an armed write
    // fence; a blocking fence thereby also waits for gated writes.
    const bool gated = op.kind == Kind::Write || op.kind == Kind::Rmw ||
                       op.kind == Kind::Fence;
    if (gated && !fenceGroups_.empty() &&
        parks(Stage::Gate, true, fenceGroups_.back())) {
        return std::nullopt;
    }

    switch (op.kind) {
      case Kind::Read: {
        // Reading a location that is currently being written blocks
        // until the write completes (strong ordering within one
        // processor).
        if (parks(Stage::Addr,
                  pendingWrites_.pendingOn(op.vpn, op.wordOffset),
                  addrWaiters_)) {
            return std::nullopt;
        }
        if (events_) {
            // The conflicting-write wait is over: the checker verifies
            // no same-node write to the location is still in flight.
            events_->emit({.kind = check::EventKind::ReadServed,
                           .node = self_,
                           .vpn = op.vpn,
                           .word = op.wordOffset});
        }
        ReadWaiter read{op.vpn, op.wordOffset, kInvalidNode, op.thread, {}};
        if (op.phys.page.node == self_) {
            const std::optional<Word> value =
                protocol_->serveLocalRead(read, op.phys.page.frame);
            return value ? done(*value) : std::nullopt;
        }
        stats_.remoteReads += 1;
        if (deps_.refCounters) {
            deps_.refCounters->recordRemoteRef(op.vpn);
        }
        sendRead(addReadWaiter(std::move(read)), op.phys);
        return std::nullopt;
      }
      case Kind::Write:
      case Kind::Rmw:
      case Kind::LostRmw: {
        // An interlocked op occupies a delayed-op slot until its result
        // arrives and a pending-writes entry until its update chain
        // completes, so fences also drain interlocked side effects
        // (DESIGN.md "RMW vs fence"). While it waits for the entry its
        // slot's writeTag is 0, which tells the recovery walk it was
        // never dispatched.
        const bool rmw = op.kind != Kind::Write;
        if (rmw && parks(Stage::DelayedSlot, delayedOps_.full(),
                         delayedSlotWaiters_)) {
            return std::nullopt;
        }
        if (rmw && op.stage < Stage::PendingSlot) {
            op.handle =
                delayedOps_.allocate(op.op, op.vpn, op.wordOffset, op.value);
        }
        if (op.kind == Kind::LostRmw) {
            // No master copy left to execute at: the slot exists for
            // protocol uniformity and completes on the spot with the
            // lost sentinel.
            const std::optional<Word> result = done(op.handle);
            delayedOps_.complete(op.handle, kPageLostValue);
            return result;
        }
        if (parks(Stage::PendingSlot, pendingWrites_.full(),
                  pendingSlotWaiters_)) {
            return std::nullopt;
        }
        const WriteTag tag =
            pendingWrites_.insert(op.vpn, op.wordOffset, op.value, rmw);
        if (events_) {
            events_->emit({.kind = check::EventKind::WriteIssued,
                           .cls = rmw,
                           .node = self_,
                           .vpn = op.vpn,
                           .word = op.wordOffset,
                           .a = tag});
        }
        if (!rmw) {
            const std::optional<Word> result = done(0);
            dispatchWrite(op.vpn, op.wordOffset, op.phys, op.value, tag);
            return result;
        }
        delayedOps_.op(op.handle).writeTag = tag;
        const std::optional<Word> result = done(op.handle);
        dispatchRmw(op.op, op.vpn, op.wordOffset, op.phys, op.value,
                    op.handle, tag);
        return result;
      }
      case Kind::Fence:
      case Kind::FenceRelease:
        if (parks(Stage::Empty, !pendingWrites_.empty(), emptyWaiters_)) {
            return std::nullopt;
        }
        if (op.kind == Kind::FenceRelease) {
            releaseFenceGroup();
            return 0;
        }
        if (events_) {
            events_->emit({.kind = check::EventKind::FenceComplete,
                           .cls = pendingWrites_.empty(),
                           .node = self_});
        }
        return done(0);
    }
    PLUS_PANIC("unknown parked op kind");
}

void
CoherenceManager::finish(unsigned thread, Word value)
{
    PLUS_ASSERT(complete_, "parked op finished with no completion hook");
    complete_(thread, value);
}

void
CoherenceManager::resumeAfterRetire()
{
    // A resumed op never retires a write inside the call (dispatch is
    // asynchronous), so no queue grows behind the walks below except
    // emptyWaiters_, whose new entries wait for the next drain.
    while (!pendingSlotWaiters_.empty() && !pendingWrites_.full()) {
        const ParkedOp op = pendingSlotWaiters_.front();
        pendingSlotWaiters_.erase(pendingSlotWaiters_.begin());
        run(op, /*resumed=*/true);
    }
    if (pendingWrites_.empty()) {
        // Every empty waiter registered before the drain runs, even if
        // an earlier one refilled the cache (FenceComplete reports it).
        const std::size_t n = emptyWaiters_.size();
        for (std::size_t i = 0; i < n; ++i) {
            run(emptyWaiters_[i], /*resumed=*/true);
        }
        emptyWaiters_.erase(emptyWaiters_.begin(),
                            emptyWaiters_.begin() +
                                static_cast<std::ptrdiff_t>(n));
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < addrWaiters_.size(); ++i) {
        const ParkedOp op = addrWaiters_[i];
        if (pendingWrites_.pendingOn(op.vpn, op.wordOffset)) {
            addrWaiters_[kept++] = op;
        } else {
            run(op, /*resumed=*/true);
        }
    }
    addrWaiters_.resize(kept);
}

ReadTag
CoherenceManager::addReadWaiter(ReadWaiter read)
{
    const ReadTag tag = nextReadTag_++;
    readWaiters_.append(tag, std::move(read));
    return tag;
}

void
CoherenceManager::sendRead(ReadTag tag, PhysAddr phys, bool refetch)
{
    ReadWaiter* waiter = readWaiters_.find(tag);
    PLUS_ASSERT(waiter, "no waiting read with tag ", tag);
    waiter->dst = phys.page.node;
    auto msg = std::make_unique<ReadReq>();
    msg->target = phys;
    msg->vpn = waiter->vpn;
    msg->originator = self_;
    msg->tag = tag;
    msg->refetch = refetch;
    send(phys.page.node, std::move(msg), ReadReq::kBytes);
}

ReadWaiter
CoherenceManager::takeReadWaiter(ReadTag tag)
{
    ReadWaiter read = readWaiters_.take(tag);
    clearNackRetries(NackedKind::Read, tag);
    return read;
}

void
CoherenceManager::finishRead(const ReadWaiter& read, Word value)
{
    if (!read.refetches.empty()) {
        protocol_->refetchDone(read, value);
    }
    finish(read.thread, value);
}

void
CoherenceManager::procWriteFence()
{
    if (fenceGroups_.empty() && pendingWrites_.empty()) {
        return; // nothing to drain
    }
    fenceGroups_.emplace_back();
    if (fenceGroups_.size() == 1) {
        armFenceDrain();
    }
}

void
CoherenceManager::armFenceDrain()
{
    run({ParkedOp::Kind::FenceRelease}, /*resumed=*/false);
}

void
CoherenceManager::releaseFenceGroup()
{
    PLUS_ASSERT(!fenceGroups_.empty(), "fence drain with no group");
    const std::vector<ParkedOp> group = std::move(fenceGroups_.front());
    fenceGroups_.pop_front();
    for (const ParkedOp& op : group) {
        run(op, /*resumed=*/true); // may insert the group's own writes
    }
    if (!fenceGroups_.empty()) {
        armFenceDrain();
    }
}

void
CoherenceManager::dispatchWrite(Vpn vpn, Addr word_offset, PhysAddr phys,
                                Word value, WriteTag tag)
{
    // A local copy that is not the master forwards to the master.
    const PhysPage target = phys.page.node == self_
                                ? deps_.tables->master(phys.page.frame)
                                : phys.page;
    // Recovery maps a crash of this node back to the write.
    pendingWrites_.entry(tag).dst = target.node;

    if (target.node == self_) {
        const FrameId frame = phys.page.frame;
        // A write is "local" only if it completes with no network traffic.
        if (deps_.tables->nextCopy(frame)) {
            stats_.remoteWrites += 1;
        } else {
            stats_.localWrites += 1;
        }
        enqueue(cost_.cmServiceWrite,
                [this, vpn, frame, word_offset, value, tag] {
                    protocol_->writeAtMaster(vpn, frame, word_offset,
                                             value, self_, tag);
                });
        return;
    }
    stats_.remoteWrites += 1;
    if (phys.page.node != self_ && deps_.refCounters) {
        deps_.refCounters->recordRemoteRef(vpn);
    }
    auto msg = std::make_unique<WriteReq>();
    msg->target = PhysAddr{target, word_offset};
    msg->vpn = vpn;
    msg->value = value;
    msg->originator = self_;
    msg->tag = tag;
    send(target.node, std::move(msg), WriteReq::kBytes);
}

void
CoherenceManager::continueChain(Vpn vpn, check::ChainId chain, FrameId frame,
                                std::vector<WordWrite> writes,
                                NodeId originator, WriteTag tag,
                                bool from_rmw, bool invalidate)
{
    const std::optional<PhysPage> next = deps_.tables->nextCopy(frame);
    if (next) {
        auto msg = std::make_unique<UpdateReq>();
        msg->target = *next;
        msg->vpn = vpn;
        msg->writes = std::move(writes);
        msg->originator = originator;
        msg->tag = tag;
        msg->chainId = chain;
        msg->fromRmw = from_rmw;
        msg->invalidate = invalidate;
        const unsigned bytes = msg->bytes();
        send(next->node, std::move(msg), bytes);
        return;
    }
    if (invalidate) {
        const PhysPage master = deps_.tables->master(frame);
        if (master.node != self_) {
            // The tail sharer of an invalidation chain acknowledges the
            // master, which commits the chain and relays the completion
            // to the originator (Protocol::chainAckAtMaster).
            auto msg = std::make_unique<WriteAck>();
            msg->tag = tag;
            msg->fromRmw = from_rmw;
            msg->chainId = chain;
            send(master.node, std::move(msg), WriteAck::kChainBytes);
            return;
        }
        // Degenerate chain (master with no copies): ack directly below.
    }
    if (originator == self_) {
        retireWrite(tag);
    } else {
        auto msg = std::make_unique<WriteAck>();
        msg->tag = tag;
        msg->fromRmw = from_rmw;
        send(originator, std::move(msg), WriteAck::kBytes);
    }
}

void
CoherenceManager::retireWrite(WriteTag tag)
{
    clearNackRetries(NackedKind::Write, tag);
    pendingWrites_.complete(tag);
    resumeAfterRetire();
}

void
CoherenceManager::abortPendingWrite(WriteTag tag, bool retried)
{
    if (events_) {
        events_->emit({.kind = check::EventKind::PendingAborted,
                       .cls = retried,
                       .node = self_,
                       .a = tag});
    }
    if (!retried) {
        retireWrite(tag);
    }
}

void
CoherenceManager::dispatchRmw(RmwOp op, Vpn vpn, Addr word_offset,
                              PhysAddr phys, Word operand,
                              DelayedOpHandle handle, WriteTag tag)
{
    // A local copy that is not the master forwards to the master.
    const PhysPage target = phys.page.node == self_
                                ? deps_.tables->master(phys.page.frame)
                                : phys.page;
    // Recovery maps a crash of this node back to the op and its write.
    delayedOps_.op(handle).dst = target.node;
    pendingWrites_.entry(tag).dst = target.node;

    if (target.node == self_) {
        const FrameId frame = phys.page.frame;
        if (deps_.tables->nextCopy(frame)) {
            stats_.remoteRmws += 1;
        } else {
            stats_.localRmws += 1;
        }
        const Cycles occupancy = isComplexOp(op) ? cost_.cmRmwComplex
                                                 : cost_.cmRmwSimple;
        enqueue(occupancy,
                [this, op, vpn, frame, word_offset, operand, handle, tag] {
                    rmwAtMaster(op, vpn, frame, word_offset, operand, self_,
                                handle, tag);
                });
        return;
    }
    stats_.remoteRmws += 1;
    if (phys.page.node != self_ && deps_.refCounters) {
        deps_.refCounters->recordRemoteRef(vpn);
    }
    auto msg = std::make_unique<RmwReq>();
    msg->op = op;
    msg->target = PhysAddr{target, word_offset};
    msg->vpn = vpn;
    msg->operand = operand;
    msg->originator = self_;
    msg->opTag = handle;
    msg->writeTag = tag;
    send(target.node, std::move(msg), RmwReq::kBytes);
}

void
CoherenceManager::rmwAtMaster(RmwOp op, Vpn vpn, FrameId frame,
                              Addr word_offset, Word operand,
                              NodeId originator, OpTag op_tag,
                              WriteTag write_tag)
{
    PageView view{[this, frame](Addr off) {
        return deps_.memory->read(frame, off);
    }};
    const RmwResult result = executeRmw(view, op, word_offset, operand);

    // The master executes atomically, returns the old contents to the
    // originator, and propagates the effects down the copy-list.
    std::vector<WordWrite> writes;
    writes.reserve(result.writes.size());
    for (const auto& w : result.writes) {
        applyLocal(frame, w.wordOffset, w.value);
        writes.push_back(WordWrite{w.wordOffset, w.value});
    }

    if (originator == self_) {
        completeRmw(op_tag, result.oldValue);
    } else {
        auto msg = std::make_unique<RmwResp>();
        msg->opTag = op_tag;
        msg->oldValue = result.oldValue;
        send(originator, std::move(msg), RmwResp::kBytes);
    }

    protocol_->propagateRmwEffects(vpn, frame, std::move(writes),
                                   originator, write_tag);
}

void
CoherenceManager::completeRmw(OpTag tag, Word old_value)
{
    clearNackRetries(NackedKind::Rmw, tag);
    delayedOps_.complete(tag, old_value);
    // A parked verify frees the slot (resuming its waiters) before its
    // thread wakes.
    const unsigned thread = std::exchange(verifyWaiters_[tag], kNoThread);
    if (thread != kNoThread) {
        finish(thread, takeResult(tag));
    }
}

Word
CoherenceManager::takeResult(DelayedOpHandle handle)
{
    const Word result = delayedOps_.take(handle);
    while (!delayedSlotWaiters_.empty() && !delayedOps_.full()) {
        const ParkedOp op = delayedSlotWaiters_.front();
        delayedSlotWaiters_.erase(delayedSlotWaiters_.begin());
        run(op, /*resumed=*/true);
    }
    return result;
}

bool
CoherenceManager::rmwReady(DelayedOpHandle handle) const
{
    return delayedOps_.ready(handle);
}

// --------------------------------------------------------------------------
// Background page replication
// --------------------------------------------------------------------------

void
CoherenceManager::startPageCopy(FrameId src_frame, PhysPage dst,
                                std::uint32_t copy_id, Vpn vpn)
{
    PLUS_ASSERT(deps_.memory->allocated(src_frame),
                "page copy from unallocated frame");
    sendPageCopyBatch(src_frame, dst, copy_id, vpn, 0);
}

void
CoherenceManager::sendPageCopyBatch(FrameId src_frame, PhysPage dst,
                                    std::uint32_t copy_id, Vpn vpn,
                                    Addr next_offset)
{
    const Addr batch = std::min(kPageCopyBatchWords,
                                kPageWords - next_offset);
    enqueue(cost_.cmPageCopyWord * batch,
            [this, src_frame, dst, copy_id, vpn, next_offset, batch] {
                auto msg = std::make_unique<PageCopyData>();
                msg->target = dst;
                msg->vpn = vpn;
                msg->baseOffset = next_offset;
                msg->words.reserve(batch);
                for (Addr i = 0; i < batch; ++i) {
                    msg->words.push_back(
                        deps_.memory->read(src_frame, next_offset + i));
                }
                protocol_->fillBatchValidity(src_frame, next_offset, batch,
                                             *msg);
                msg->copyId = copy_id;
                msg->last = (next_offset + batch == kPageWords);
                const bool last = msg->last;
                const unsigned bytes = msg->bytes();
                send(dst.node, std::move(msg), bytes);
                if (!last) {
                    sendPageCopyBatch(src_frame, dst, copy_id, vpn,
                                      next_offset + batch);
                }
            });
}

// --------------------------------------------------------------------------
// Network entry
// --------------------------------------------------------------------------

void
CoherenceManager::onPacket(net::Packet packet)
{
    const prof::ScopedPhase prof_scope(prof::Phase::ProtoHandle);
    PLUS_ASSERT(dynamic_cast<ProtoMsg*>(packet.payload.get()) != nullptr,
                "non-protocol packet at coherence manager");
    std::unique_ptr<ProtoMsg> msg(
        static_cast<ProtoMsg*>(packet.payload.release()));
    PLUS_LOG(LogComponent::Proto, "n", self_, " <- n", packet.src, " ",
             toString(msg->type));
    if (events_) {
        // Lets the checker enforce the recovery-epoch invariant: no
        // message from a crashed node is processed after its epoch seals.
        events_->emit({.kind = check::EventKind::MessageProcessed,
                       .cls = static_cast<std::uint8_t>(msg->type),
                       .node = self_,
                       .peer = packet.src});
    }

    switch (msg->type) {
      case MsgType::ReadReq:
        onReadReq(take<ReadReq>(msg));
        break;
      case MsgType::ReadResp:
        onReadResp(static_cast<const ReadResp&>(*msg));
        break;
      case MsgType::WriteReq:
        onWriteReq(take<WriteReq>(msg));
        break;
      case MsgType::UpdateReq:
        onUpdateReq(take<UpdateReq>(msg));
        break;
      case MsgType::WriteAck:
        onWriteAck(static_cast<const WriteAck&>(*msg));
        break;
      case MsgType::RmwReq:
        onRmwReq(take<RmwReq>(msg));
        break;
      case MsgType::RmwResp:
        onRmwResp(static_cast<const RmwResp&>(*msg));
        break;
      case MsgType::Nack:
        onNack(take<Nack>(msg));
        break;
      case MsgType::PageCopyData:
        onPageCopyData(take<PageCopyData>(msg), packet.src);
        break;
      case MsgType::PageCopyDone:
        onPageCopyDone(static_cast<const PageCopyDone&>(*msg));
        break;
      case MsgType::FrameFlush:
        onFrameFlush(static_cast<const FrameFlush&>(*msg));
        break;
      default:
        PLUS_PANIC("unknown protocol message type");
    }
}

void
CoherenceManager::onReadReq(std::unique_ptr<ReadReq> msg)
{
    enqueue(cost_.cmServiceReadReq, [this, m = std::move(msg)]() mutable {
        const FrameId frame = m->target.page.frame;
        if (!deps_.memory->allocated(frame)) {
            auto nack = std::make_unique<Nack>();
            nack->kind = NackedKind::Read;
            nack->vpn = m->vpn;
            nack->wordOffset = m->target.wordOffset;
            nack->readTag = m->tag;
            send(m->originator, std::move(nack), Nack::kBytes);
            return;
        }
        protocol_->serveReadReq(std::move(m));
    });
}

void
CoherenceManager::onReadResp(const ReadResp& msg)
{
    if (!readWaiters_.find(msg.tag)) {
        // Only recovery can retire a read out from under its response:
        // it re-dispatched the request and the original answer arrived
        // after the replayed one (or after a degraded completion).
        PLUS_ASSERT(recovered_, "read response with unknown tag");
        stats_.staleAcks += 1;
        return;
    }
    finishRead(takeReadWaiter(msg.tag), msg.value);
}

void
CoherenceManager::onWriteReq(std::unique_ptr<WriteReq> msg)
{
    const FrameId frame = msg->target.page.frame;
    // The occupancy estimate may use the receive-time table state, but
    // correctness decisions must use the state at execution time: a
    // FrameFlush queued ahead of us may free the frame first.
    const bool master_estimate = deps_.memory->allocated(frame) &&
                                 deps_.tables->knows(frame) &&
                                 deps_.tables->master(frame).node == self_;
    const Cycles occupancy = master_estimate ? cost_.cmServiceWrite
                                             : cost_.cmForward;
    enqueue(occupancy, [this, m = std::move(msg)]() mutable {
        const FrameId frame = m->target.page.frame;
        const bool known = deps_.memory->allocated(frame) &&
                           deps_.tables->knows(frame);
        const bool master_here =
            known && deps_.tables->master(frame).node == self_;
        if (!known) {
            auto nack = std::make_unique<Nack>();
            nack->kind = NackedKind::Write;
            nack->vpn = m->vpn;
            nack->wordOffset = m->target.wordOffset;
            nack->writeTag = m->tag;
            nack->value = m->value;
            send(m->originator, std::move(nack), Nack::kBytes);
            return;
        }
        if (master_here) {
            protocol_->writeAtMaster(m->vpn, frame, m->target.wordOffset,
                                     m->value, m->originator, m->tag);
        } else {
            // Forward the request itself; only the target changes.
            const PhysPage master = deps_.tables->master(frame);
            m->target = PhysAddr{master, m->target.wordOffset};
            send(master.node, std::move(m), WriteReq::kBytes);
        }
    });
}

void
CoherenceManager::onUpdateReq(std::unique_ptr<UpdateReq> msg)
{
    enqueue(cost_.cmServiceUpdate, [this, m = std::move(msg)]() mutable {
        const FrameId frame = m->target.frame;
        // The deletion protocol splices the copy-list before flushing a
        // frame, so an update can never reach a frame that is gone.
        PLUS_ASSERT(deps_.memory->allocated(frame) &&
                        deps_.tables->knows(frame),
                    "update for a frame that holds no copy");
        protocol_->chainStop(std::move(m));
    });
}

void
CoherenceManager::onWriteAck(const WriteAck& msg)
{
    enqueue(cost_.cmServiceAck, [this, tag = msg.tag,
                                 chain = msg.chainId] {
        if (chain != 0) {
            // Chain-routed ack: this node is the page's master, not the
            // originator (write-invalidate commit path).
            protocol_->chainAckAtMaster(chain);
            return;
        }
        if (recovered_ && !pendingWrites_.live(tag)) {
            // Recovery replayed this write and the first acknowledgement
            // (old chain's or new chain's) already retired the entry;
            // tags are never reused, so the straggler is safely dropped.
            stats_.staleAcks += 1;
            return;
        }
        retireWrite(tag);
    });
}

void
CoherenceManager::onRmwReq(std::unique_ptr<RmwReq> msg)
{
    const FrameId frame = msg->target.page.frame;
    const bool master_estimate = deps_.memory->allocated(frame) &&
                                 deps_.tables->knows(frame) &&
                                 deps_.tables->master(frame).node == self_;
    Cycles occupancy;
    if (master_estimate) {
        occupancy = isComplexOp(msg->op) ? cost_.cmRmwComplex
                                         : cost_.cmRmwSimple;
    } else {
        occupancy = cost_.cmForward;
    }
    enqueue(occupancy, [this, m = std::move(msg)]() mutable {
        const FrameId frame = m->target.page.frame;
        const bool known = deps_.memory->allocated(frame) &&
                           deps_.tables->knows(frame);
        const bool master_here =
            known && deps_.tables->master(frame).node == self_;
        if (!known) {
            auto nack = std::make_unique<Nack>();
            nack->kind = NackedKind::Rmw;
            nack->vpn = m->vpn;
            nack->wordOffset = m->target.wordOffset;
            nack->opTag = m->opTag;
            nack->writeTag = m->writeTag;
            nack->value = m->operand;
            nack->op = m->op;
            send(m->originator, std::move(nack), Nack::kBytes);
            return;
        }
        if (master_here) {
            rmwAtMaster(m->op, m->vpn, frame, m->target.wordOffset,
                        m->operand, m->originator, m->opTag, m->writeTag);
        } else {
            // Forward the request itself; only the target changes.
            const PhysPage master = deps_.tables->master(frame);
            m->target = PhysAddr{master, m->target.wordOffset};
            send(master.node, std::move(m), RmwReq::kBytes);
        }
    });
}

void
CoherenceManager::onRmwResp(const RmwResp& msg)
{
    if (recovered_ && !delayedOps_.inFlight(msg.opTag)) {
        // Replay raced the original response; first one in completed.
        stats_.staleAcks += 1;
        return;
    }
    completeRmw(msg.opTag, msg.oldValue);
}

Cycles
CoherenceManager::noteNackRetry(NackedKind kind, std::uint32_t tag)
{
    unsigned& count = nackRetries_[nackKey(kind, tag)];
    count += 1;
    stats_.nackRetryHighWater =
        std::max<std::uint64_t>(stats_.nackRetryHighWater, count);
    if (count > kNackRetryLimit) {
        PLUS_PANIC("node ", self_, ": nacked ",
                   kind == NackedKind::Read    ? "read"
                   : kind == NackedKind::Write ? "write"
                                               : "rmw",
                   " (tag ", tag, ") exhausted ", kNackRetryLimit,
                   " re-translation retries — livelock");
    }
    // The first retry keeps the seed's exact timing; later ones back
    // off exponentially so a livelocking retry storm decays.
    return count > 1 ? kNackBackoffBase << std::min(count - 2, kNackBackoffCap)
                     : 0;
}

bool
CoherenceManager::nackTargetLive(const Nack& nack) const
{
    switch (nack.kind) {
      case NackedKind::Read:
        return readWaiters_.find(nack.readTag) != nullptr;
      case NackedKind::Write:
        return pendingWrites_.live(nack.writeTag);
      case NackedKind::Rmw:
        return delayedOps_.inFlight(nack.opTag);
      default:
        PLUS_PANIC("unknown nack kind");
    }
}

void
CoherenceManager::completeNackedAsLost(const Nack& nack)
{
    stats_.recoveryAborts += 1;
    switch (nack.kind) {
      case NackedKind::Read:
        finishRead(takeReadWaiter(nack.readTag), kPageLostValue);
        break;
      case NackedKind::Write:
        abortPendingWrite(nack.writeTag, /*retried=*/false);
        break;
      case NackedKind::Rmw:
        abortPendingWrite(nack.writeTag, /*retried=*/false);
        completeRmw(nack.opTag, kPageLostValue);
        break;
      default:
        PLUS_PANIC("unknown nack kind");
    }
}

void
CoherenceManager::onNack(std::unique_ptr<Nack> msg)
{
    // The addressed copy disappeared (deleted or migrated): the OS
    // re-translates through the centralized table and the request is
    // retried against the page's current placement.
    PLUS_ASSERT(translate_, "nack received but no translator installed");
    if (recovered_ && !nackTargetLive(*msg)) {
        // Recovery already aborted the operation; don't let a straggler
        // nack count against the livelock retry budget.
        stats_.staleAcks += 1;
        return;
    }
    const Cycles backoff = noteNackRetry(
        msg->kind, msg->kind == NackedKind::Read    ? msg->readTag
                   : msg->kind == NackedKind::Write ? msg->writeTag
                                                    : msg->opTag);
    enqueue(cost_.cmForward + cost_.osPageFillCycles + backoff,
            [this, m = std::move(msg)] {
        // Re-check at execution time: a crash recovery may have run
        // while this retry sat behind the manager's occupancy.
        if (recovered_ && !nackTargetLive(*m)) {
            stats_.staleAcks += 1;
            return;
        }
        const std::optional<PhysPage> page = translate_(m->vpn);
        if (!page) {
            // The page's directory entry died with its last copy.
            completeNackedAsLost(*m);
            return;
        }
        stats_.retries += 1;
        const PhysAddr phys{*page, m->wordOffset};
        switch (m->kind) {
          case NackedKind::Read:
            if (page->node == self_) {
                ReadWaiter read = takeReadWaiter(m->readTag);
                const std::optional<Word> value =
                    protocol_->serveNackedLocalRead(read, page->frame);
                if (value) {
                    finishRead(read, *value);
                }
            } else {
                sendRead(m->readTag, phys);
            }
            break;
          case NackedKind::Write:
            dispatchWrite(m->vpn, m->wordOffset, phys, m->value,
                          m->writeTag);
            break;
          case NackedKind::Rmw:
            dispatchRmw(m->op, m->vpn, m->wordOffset, phys, m->value,
                        m->opTag, m->writeTag);
            break;
          default:
            PLUS_PANIC("unknown nack kind");
        }
    });
}

// --------------------------------------------------------------------------
// Crash recovery
// --------------------------------------------------------------------------

CoherenceManager::RecoveryOutcome
CoherenceManager::recoverAfterCrash(NodeId dead,
                                    const std::vector<Vpn>& affected,
                                    const std::vector<Vpn>& lost)
{
    RecoveryOutcome out;
    recovered_ = true;

    const auto isLost = [&lost](Vpn vpn) {
        return std::binary_search(lost.begin(), lost.end(), vpn);
    };
    // Ops on pages lost in this epoch complete degraded instead, so a
    // replay must translate; a page lost earlier is a recovery bug.
    const auto replayPage = [this](Vpn vpn) {
        const std::optional<PhysPage> page = translate_(vpn);
        PLUS_ASSERT(page, "recovery replay of lost page ", vpn);
        return *page;
    };
    // An in-flight operation is torn by the crash if it was last
    // addressed to the dead node (the request or its response died with
    // it) or rides a page whose copy-list contained the dead node (its
    // update chain may have been cut mid-propagation).
    const auto torn = [&](Vpn vpn, NodeId dst) {
        return dst == dead ||
               std::binary_search(affected.begin(), affected.end(), vpn);
    };

    // Collect first: the replay handlers mutate the records. Tags and
    // handles replay in ascending order.

    std::vector<ReadTag> reads;
    for (const auto& [tag, waiter] : readWaiters_) {
        if (isLost(waiter.vpn) || waiter.dst == dead) {
            reads.push_back(tag);
        }
    }
    for (const ReadTag tag : reads) {
        const ReadWaiter& waiter = *readWaiters_.find(tag);
        const Vpn vpn = waiter.vpn;
        const Addr word_offset = waiter.wordOffset;
        clearNackRetries(NackedKind::Read, tag);
        if (isLost(vpn)) {
            finishRead(takeReadWaiter(tag), kPageLostValue);
            out.lostCompletions += 1;
            continue;
        }
        out.abortedReads += 1;
        const PhysPage page = replayPage(vpn);
        if (page.node == self_) {
            finishRead(takeReadWaiter(tag),
                       deps_.memory->read(page.frame, word_offset));
        } else {
            sendRead(tag, PhysAddr{page, word_offset});
        }
    }

    // The pending write of an interlocked op still in flight replays
    // with the op, in the RMW walk below.
    const auto ownedByLiveRmw = [this](WriteTag tag) {
        for (DelayedOpHandle h = 0; h < delayedOps_.capacity(); ++h) {
            if (delayedOps_.inFlight(h) && delayedOps_.op(h).writeTag == tag) {
                return true;
            }
        }
        return false;
    };
    std::vector<WriteTag> writes;
    for (const WriteTag tag : pendingWrites_.sortedTags()) {
        const PendingWrites::Entry& e = pendingWrites_.entry(tag);
        if ((isLost(e.vpn) || torn(e.vpn, e.dst)) &&
            !(e.fromRmw && ownedByLiveRmw(tag))) {
            writes.push_back(tag);
        }
    }
    for (const WriteTag tag : writes) {
        const PendingWrites::Entry e = pendingWrites_.entry(tag);
        if (e.fromRmw) {
            // The op completed, so its effect is at the master, and the
            // repair re-synced every surviving copy from the master:
            // only the torn chain's acknowledgement is missing.
            abortPendingWrite(tag, /*retried=*/false);
            continue;
        }
        if (isLost(e.vpn)) {
            abortPendingWrite(tag, /*retried=*/false);
            out.lostCompletions += 1;
            continue;
        }
        abortPendingWrite(tag, /*retried=*/true);
        out.abortedWrites += 1;
        const PhysPage page = replayPage(e.vpn);
        dispatchWrite(e.vpn, e.wordOffset, PhysAddr{page, e.wordOffset},
                      e.value, tag);
    }

    std::vector<DelayedOpHandle> rmws;
    for (DelayedOpHandle h = 0; h < delayedOps_.capacity(); ++h) {
        if (!delayedOps_.inFlight(h)) {
            continue;
        }
        // writeTag 0: still waiting for a pending-writes entry, so not
        // dispatched yet — nothing of it can have been torn.
        const DelayedOpCache::Op& op = delayedOps_.op(h);
        if (op.writeTag != 0 && (isLost(op.vpn) || torn(op.vpn, op.dst))) {
            rmws.push_back(h);
        }
    }
    for (const DelayedOpHandle h : rmws) {
        const DelayedOpCache::Op op = delayedOps_.op(h);
        if (isLost(op.vpn)) {
            abortPendingWrite(op.writeTag, /*retried=*/false);
            completeRmw(h, kPageLostValue);
            out.lostCompletions += 1;
            continue;
        }
        abortPendingWrite(op.writeTag, /*retried=*/true);
        out.abortedRmws += 1;
        // Re-execution is at-least-once: if the dead master applied the
        // op but its response was lost, the replay applies it again at
        // the promoted master (see docs/ROBUSTNESS.md). Deterministic
        // either way.
        const PhysPage page = replayPage(op.vpn);
        dispatchRmw(op.kind, op.vpn, op.wordOffset,
                    PhysAddr{page, op.wordOffset}, op.operand, h,
                    op.writeTag);
    }

    stats_.recoveryAborts += out.abortedReads + out.abortedWrites +
                             out.abortedRmws + out.lostCompletions;
    return out;
}

void
CoherenceManager::onPageCopyData(std::unique_ptr<PageCopyData> msg,
                                 NodeId src)
{
    const Cycles occupancy = cost_.cmPageCopyWord * msg->words.size();
    enqueue(occupancy, [this, m = std::move(msg), src] {
        const FrameId frame = m->target.frame;
        PLUS_ASSERT(deps_.memory->allocated(frame),
                    "page-copy data for unallocated frame");
        protocol_->applyCopyBatch(*m);
        if (m->last) {
            auto done = std::make_unique<PageCopyDone>();
            done->copyId = m->copyId;
            // Answer the node that ran the copy engine (the packet source
            // is always the predecessor copy).
            send(src, std::move(done), PageCopyDone::kBytes);
        }
    });
}

void
CoherenceManager::osFlushRemoteFrame(PhysPage victim)
{
    auto msg = std::make_unique<FrameFlush>();
    msg->frame = victim.frame;
    send(victim.node, std::move(msg), FrameFlush::kBytes);
}

void
CoherenceManager::onFrameFlush(const FrameFlush& msg)
{
    enqueue(cost_.cmServiceAck, [this, frame = msg.frame] {
        PLUS_ASSERT(deps_.memory->allocated(frame),
                    "flush of a frame that is not allocated");
        protocol_->onFrameDropped(frame);
        deps_.tables->erase(frame);
        deps_.memory->freeFrame(frame);
    });
}

void
CoherenceManager::onPageCopyDone(const PageCopyDone& msg)
{
    enqueue(cost_.cmServiceAck, [this, copyId = msg.copyId] {
        PLUS_ASSERT(pageCopyDone_, "page copy finished with no handler");
        pageCopyDone_(copyId);
    });
}

} // namespace proto
} // namespace plus
