#include "proto/write_invalidate.hpp"

#include <utility>

#include "common/panic.hpp"
#include "proto/coherence_manager.hpp"

namespace plus {
namespace proto {

std::size_t
WriteInvalidateProtocol::invalidWordsAt(FrameId frame) const
{
    const auto it = invalidHere_.find(frame);
    return it == invalidHere_.end() ? 0 : it->second.size();
}

std::size_t
WriteInvalidateProtocol::invalidEverywhere(FrameId frame) const
{
    const auto it = masterInvalid_.find(frame);
    return it == masterInvalid_.end() ? 0 : it->second.size();
}

bool
WriteInvalidateProtocol::allInvalidEverywhere(
    FrameId frame, const WordWrites& writes) const
{
    const auto it = masterInvalid_.find(frame);
    if (it == masterInvalid_.end()) {
        return false;
    }
    for (const WordWrite& w : writes) {
        if (it->second.count(w.wordOffset) == 0) {
            return false;
        }
    }
    return true;
}

void
WriteInvalidateProtocol::noteWriter(Vpn vpn, FrameId frame, NodeId writer)
{
    const auto [it, inserted] = lastWriter_.emplace(frame, writer);
    if (!inserted && it->second != writer) {
        const NodeId previous = it->second;
        it->second = writer;
        cm_.stats_.ownershipTransfers += 1;
        if (cm_.events_) {
            cm_.events_->emit({.kind = check::EventKind::OwnershipTransfer,
                               .node = cm_.self_,
                               .peer = writer,
                               .vpn = vpn,
                               .a = previous});
        }
    }
}

void
WriteInvalidateProtocol::ackOriginator(NodeId originator, WriteTag tag,
                                       bool from_rmw)
{
    if (originator == cm_.self_) {
        cm_.retireWrite(tag);
    } else {
        cm_.send(originator, WriteAck{.tag = tag, .fromRmw = from_rmw});
    }
}

void
WriteInvalidateProtocol::launchChain(Vpn vpn, FrameId frame,
                                     const WordWrites& writes,
                                     NodeId originator, WriteTag tag,
                                     bool from_rmw)
{
    const check::ChainId chain = cm_.nextChainId();
    if (cm_.events_) {
        cm_.events_->emit(
            {.kind = check::EventKind::ChainApplied,
             .cls = check::kChainAtMaster | check::kChainTracked,
             .node = cm_.self_,
             .peer = originator,
             .bytes = static_cast<std::uint32_t>(writes.size()),
             .vpn = vpn,
             .word = writes.front().wordOffset,
             .a = chain,
             .b = check::packFrameTag(frame, tag)});
    }
    if (cm_.deps_.tables->nextCopy(frame)) {
        PendingChain pc;
        pc.frame = frame;
        pc.vpn = vpn;
        pc.words.reserve(writes.size());
        for (const WordWrite& w : writes) {
            pc.words.push_back(w.wordOffset);
        }
        const auto git = clearGen_.find(frame);
        pc.clearGenAtLaunch = git == clearGen_.end() ? 0 : git->second;
        pc.originator = originator;
        pc.tag = tag;
        pc.fromRmw = from_rmw;
        pendingChains_.emplace(chain, std::move(pc));
    }
    cm_.continueChain(vpn, chain, frame, writes, originator, tag, from_rmw,
                      /*invalidate=*/true);
}

void
WriteInvalidateProtocol::writeAtMaster(Vpn vpn, FrameId frame,
                                       Addr word_offset, Word value,
                                       NodeId originator, WriteTag tag)
{
    cm_.applyLocal(frame, word_offset, value);
    noteWriter(vpn, frame, originator);
    const WordWrites writes{WordWrite{word_offset, value}};
    if (cm_.deps_.tables->nextCopy(frame) &&
        allInvalidEverywhere(frame, writes)) {
        // Every sharer already dropped this word: the write is complete
        // at the master with no chain at all — the invalidate payoff.
        ackOriginator(originator, tag, /*from_rmw=*/false);
        return;
    }
    launchChain(vpn, frame, writes, originator, tag, /*from_rmw=*/false);
}

void
WriteInvalidateProtocol::propagateRmwEffects(Vpn vpn, FrameId frame,
                                             const WordWrites& writes,
                                             NodeId originator,
                                             WriteTag write_tag)
{
    if (!writes.empty()) {
        noteWriter(vpn, frame, originator);
        if (cm_.deps_.tables->nextCopy(frame) &&
            allInvalidEverywhere(frame, writes)) {
            ackOriginator(originator, write_tag, /*from_rmw=*/true);
            return;
        }
        launchChain(vpn, frame, writes, originator, write_tag,
                    /*from_rmw=*/true);
    } else {
        // Nothing to propagate: retire the tracked pseudo-write now.
        ackOriginator(originator, write_tag, /*from_rmw=*/true);
    }
}

void
WriteInvalidateProtocol::chainStop(const UpdateReq& msg)
{
    const FrameId frame = msg.target.frame;
    auto& invalid = invalidHere_[frame];
    for (const WordWrite& w : msg.writes) {
        invalid.insert(w.wordOffset);
        cm_.stats_.invalidations += 1;
        if (cm_.events_) {
            // Before ChainApplied: the checker requires the shadow
            // invalidation to precede the chain stop at a sharer.
            cm_.events_->emit({.kind = check::EventKind::WordInvalidated,
                               .node = cm_.self_,
                               .vpn = msg.vpn,
                               .word = w.wordOffset});
        }
    }
    invGen_[frame] += 1;
    noteChainStop(msg);
    cm_.continueChain(msg.vpn, msg.chainId, frame, msg.writes,
                      msg.originator, msg.tag, msg.fromRmw,
                      /*invalidate=*/true);
}

void
WriteInvalidateProtocol::chainAckAtMaster(std::uint64_t chain_id)
{
    const auto it = pendingChains_.find(chain_id);
    PLUS_ASSERT(it != pendingChains_.end(),
                "chain-routed ack for an unknown invalidation chain");
    const PendingChain pc = std::move(it->second);
    pendingChains_.erase(it);
    const auto git = clearGen_.find(pc.frame);
    const std::uint64_t gen = git == clearGen_.end() ? 0 : git->second;
    if (gen == pc.clearGenAtLaunch) {
        // No re-fetch was served since launch, so every sharer copy
        // still holds these words invalid: commit them, letting later
        // writes skip the chain.
        auto& committed = masterInvalid_[pc.frame];
        for (const Addr off : pc.words) {
            committed.insert(off);
        }
    }
    ackOriginator(pc.originator, pc.tag, pc.fromRmw);
}

std::optional<Word>
WriteInvalidateProtocol::serveLocalRead(ReadWaiter& read, FrameId frame)
{
    const std::optional<Word> value = serveNackedLocalRead(read, frame);
    if (value) {
        cm_.stats_.localReads += 1;
    }
    return value;
}

std::optional<Word>
WriteInvalidateProtocol::serveNackedLocalRead(ReadWaiter& read,
                                              FrameId frame)
{
    if (refetchIfInvalid(read, frame)) {
        return std::nullopt;
    }
    if (cm_.events_) {
        cm_.events_->emit({.kind = check::EventKind::LocalValueServed,
                           .node = cm_.self_,
                           .vpn = read.vpn,
                           .word = read.wordOffset});
    }
    return cm_.deps_.memory->read(frame, read.wordOffset);
}

bool
WriteInvalidateProtocol::refetchIfInvalid(ReadWaiter& read, FrameId frame)
{
    const PhysPage master = cm_.deps_.tables->master(frame);
    if (master.node == cm_.self_) {
        return false;
    }
    const auto it = invalidHere_.find(frame);
    if (it == invalidHere_.end() || it->second.count(read.wordOffset) == 0) {
        return false;
    }
    cm_.stats_.remoteReads += 1;
    cm_.stats_.refetches += 1;
    if (cm_.deps_.refCounters) {
        cm_.deps_.refCounters->recordRemoteRef(read.vpn);
    }
    read.refetches.push_back({frame, invGen_[frame]});
    const PhysAddr target{master, read.wordOffset};
    cm_.sendRead(cm_.addReadWaiter(std::move(read)), target,
                 /*refetch=*/true);
    return true;
}

void
WriteInvalidateProtocol::refetchDone(const ReadWaiter& read, Word value)
{
    for (auto it = read.refetches.rbegin(); it != read.refetches.rend();
         ++it) {
        // Revalidate the copy's word only if nothing invalidated the
        // copy (or recycled the frame) while the re-fetch was in
        // flight; the value handed to the reader is correct as of the
        // master's serialization either way.
        const FrameId frame = it->frame;
        const auto git = invGen_.find(frame);
        if (git == invGen_.end() || git->second != it->gen ||
            !cm_.deps_.memory->allocated(frame)) {
            continue;
        }
        cm_.applyLocal(frame, read.wordOffset, value);
        const auto iit = invalidHere_.find(frame);
        if (iit != invalidHere_.end()) {
            iit->second.erase(read.wordOffset);
        }
        if (cm_.events_) {
            cm_.events_->emit({.kind = check::EventKind::WordRevalidated,
                               .node = cm_.self_,
                               .vpn = read.vpn,
                               .word = read.wordOffset});
        }
    }
}

void
WriteInvalidateProtocol::serveReadReq(const ReadReq& msg)
{
    const FrameId frame = msg.target.page.frame;
    const Addr off = msg.target.wordOffset;
    const PhysPage master = cm_.deps_.tables->master(frame);
    if (master.node == cm_.self_) {
        if (msg.refetch) {
            // The sharer is revalidating this word; it is no longer
            // invalid everywhere, so later writes must chain again.
            const auto it = masterInvalid_.find(frame);
            if (it != masterInvalid_.end() && it->second.erase(off) > 0) {
                clearGen_[frame] += 1;
            }
        }
        cm_.send(msg.originator,
                 ReadResp{.tag = msg.tag,
                          .value = cm_.deps_.memory->read(frame, off)});
        return;
    }
    const auto it = invalidHere_.find(frame);
    if (it != invalidHere_.end() && it->second.count(off) != 0) {
        // This copy's word is stale: retarget the request to the master.
        ReadReq retargeted = msg;
        retargeted.target = PhysAddr{master, off};
        cm_.send(master.node, retargeted);
        return;
    }
    if (cm_.events_) {
        cm_.events_->emit({.kind = check::EventKind::LocalValueServed,
                           .node = cm_.self_,
                           .vpn = msg.vpn,
                           .word = off});
    }
    cm_.send(msg.originator,
             ReadResp{.tag = msg.tag,
                      .value = cm_.deps_.memory->read(frame, off)});
}

void
WriteInvalidateProtocol::fillBatchValidity(FrameId src_frame,
                                           Addr base_offset, Addr count,
                                           PageCopyData& msg)
{
    msg.validMask.assign((count + 63) / 64, 0);
    const auto mit = masterInvalid_.find(src_frame);
    const auto iit = invalidHere_.find(src_frame);
    for (Addr i = 0; i < count; ++i) {
        const Addr off = base_offset + i;
        const bool invalid =
            (mit != masterInvalid_.end() &&
             mit->second.count(off) != 0) ||
            (iit != invalidHere_.end() && iit->second.count(off) != 0);
        if (!invalid) {
            msg.validMask[i >> 6] |= std::uint64_t{1} << (i & 63);
        }
    }
}

void
WriteInvalidateProtocol::applyCopyBatch(const PageCopyData& msg)
{
    const FrameId frame = msg.target.frame;
    const auto valid = [&msg](std::size_t i) {
        return msg.validMask.empty() ||
               ((msg.validMask[i >> 6] >> (i & 63)) & 1) != 0;
    };
    bool invalidated = false;
    for (std::size_t i = 0; i < msg.words.size(); ++i) {
        const Addr off = msg.baseOffset + i;
        if (valid(i)) {
            cm_.applyLocal(frame, off, msg.words[i]);
            const auto it = invalidHere_.find(frame);
            if (it != invalidHere_.end()) {
                it->second.erase(off);
            }
            if (cm_.events_) {
                // Also reconciles shadow state left over from an earlier
                // copy of the same page this node held and dropped.
                cm_.events_->emit(
                    {.kind = check::EventKind::WordRevalidated,
                     .node = cm_.self_,
                     .vpn = msg.vpn,
                     .word = off});
            }
        } else {
            // The source holds this word invalid-everywhere; the new
            // copy must not serve it before a re-fetch.
            invalidHere_[frame].insert(off);
            invalidated = true;
            if (cm_.events_) {
                cm_.events_->emit(
                    {.kind = check::EventKind::WordInvalidated,
                     .node = cm_.self_,
                     .vpn = msg.vpn,
                     .word = off});
            }
        }
    }
    if (invalidated) {
        invGen_[frame] += 1;
    }
}

void
WriteInvalidateProtocol::onFrameDropped(FrameId frame)
{
    invalidHere_.erase(frame);
    // Bumped, never erased: an in-flight re-fetch waiter must not
    // revalidate a word of a recycled frame.
    invGen_[frame] += 1;
    masterInvalid_.erase(frame);
    clearGen_[frame] += 1;
    lastWriter_.erase(frame);
}

void
WriteInvalidateProtocol::onMasterPromoted(FrameId frame, Vpn vpn)
{
    // The machine synced the full page from the old master before the
    // promotion, so every word of this copy is valid again.
    const auto it = invalidHere_.find(frame);
    if (it != invalidHere_.end()) {
        if (cm_.events_) {
            for (const Addr off : it->second) {
                cm_.events_->emit({.kind = check::EventKind::WordRevalidated,
                                   .node = cm_.self_,
                                   .vpn = vpn,
                                   .word = off});
            }
        }
        invalidHere_.erase(it);
    }
    invGen_[frame] += 1;
    // Start with no invalid-everywhere knowledge: conservative, and the
    // old master's set described the *old* sharer topology anyway.
    masterInvalid_.erase(frame);
    clearGen_[frame] += 1;
}

void
WriteInvalidateProtocol::onMasterDemoted(FrameId frame)
{
    masterInvalid_.erase(frame);
    clearGen_[frame] += 1;
    lastWriter_.erase(frame);
}

} // namespace proto
} // namespace plus
