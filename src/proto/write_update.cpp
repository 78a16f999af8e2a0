#include "proto/write_update.hpp"

#include <utility>

#include "proto/coherence_manager.hpp"

namespace plus {
namespace proto {

void
WriteUpdateProtocol::writeAtMaster(Vpn vpn, FrameId frame, Addr word_offset,
                                   Word value, NodeId originator,
                                   WriteTag tag)
{
    cm_.applyLocal(frame, word_offset, value);
    const check::ChainId chain = cm_.nextChainId();
    if (cm_.events_) {
        cm_.events_->emit({.kind = check::EventKind::ChainApplied,
                           .cls = check::kChainAtMaster | check::kChainTracked,
                           .node = cm_.self_,
                           .peer = originator,
                           .bytes = 1,
                           .vpn = vpn,
                           .word = word_offset,
                           .a = chain,
                           .b = check::packFrameTag(frame, tag)});
    }
    cm_.continueChain(vpn, chain, frame, {WordWrite{word_offset, value}},
                      originator, tag, /*from_rmw=*/false,
                      /*invalidate=*/false);
}

void
WriteUpdateProtocol::propagateRmwEffects(Vpn vpn, FrameId frame,
                                         const WordWrites& writes,
                                         NodeId originator,
                                         WriteTag write_tag)
{
    if (!writes.empty()) {
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
                 .b = check::packFrameTag(frame, write_tag)});
        }
        cm_.continueChain(vpn, chain, frame, writes, originator, write_tag,
                          /*from_rmw=*/true, /*invalidate=*/false);
    } else {
        // Nothing to propagate: retire the tracked pseudo-write now.
        if (originator == cm_.self_) {
            cm_.retireWrite(write_tag);
        } else {
            cm_.send(originator, WriteAck{.tag = write_tag, .fromRmw = true});
        }
    }
}

void
WriteUpdateProtocol::chainStop(const UpdateReq& msg)
{
    const FrameId frame = msg.target.frame;
    for (const WordWrite& w : msg.writes) {
        cm_.applyLocal(frame, w.wordOffset, w.value);
    }
    noteChainStop(msg);
    cm_.continueChain(msg.vpn, msg.chainId, frame, msg.writes,
                      msg.originator, msg.tag, msg.fromRmw,
                      /*invalidate=*/false);
}

std::optional<Word>
WriteUpdateProtocol::serveLocalRead(ReadWaiter& read, FrameId frame)
{
    cm_.stats_.localReads += 1;
    return cm_.deps_.memory->read(frame, read.wordOffset);
}

void
WriteUpdateProtocol::serveReadReq(const ReadReq& msg)
{
    const FrameId frame = msg.target.page.frame;
    cm_.send(msg.originator,
             ReadResp{.tag = msg.tag,
                      .value = cm_.deps_.memory->read(
                          frame, msg.target.wordOffset)});
}

void
WriteUpdateProtocol::applyCopyBatch(const PageCopyData& msg)
{
    const FrameId frame = msg.target.frame;
    for (std::size_t i = 0; i < msg.words.size(); ++i) {
        cm_.applyLocal(frame, msg.baseOffset + i, msg.words[i]);
    }
}

} // namespace proto
} // namespace plus
