#include "proto/protocol.hpp"

#include "common/panic.hpp"
#include "proto/coherence_manager.hpp"
#include "proto/write_invalidate.hpp"
#include "proto/write_update.hpp"

namespace plus {
namespace proto {

void
Protocol::chainAckAtMaster(std::uint64_t chain_id)
{
    PLUS_PANIC("chain-routed WriteAck (chain ", chain_id, ") under the ",
               toString(kind()), " protocol, which never sends one");
}

void
Protocol::noteChainStop(const UpdateReq& msg)
{
    if (cm_.events_) {
        cm_.events_->emit(
            {.kind = check::EventKind::ChainApplied,
             .cls = check::kChainTracked,
             .node = msg.target.node,
             .peer = msg.originator,
             .bytes = static_cast<std::uint32_t>(msg.writes.size()),
             .vpn = msg.vpn,
             .word = msg.writes.empty() ? 0 : msg.writes.front().wordOffset,
             .a = msg.chainId,
             .b = check::packFrameTag(msg.target.frame, msg.tag)});
    }
}

std::optional<Word>
Protocol::serveNackedLocalRead(ReadWaiter& read, FrameId frame)
{
    return cm_.deps_.memory->read(frame, read.wordOffset);
}

void
Protocol::refetchDone(const ReadWaiter& read, Word value)
{
    (void)value;
    PLUS_PANIC("re-fetch of page ", read.vpn, " word ", read.wordOffset,
               " under the ", toString(kind()),
               " protocol, which never sends one");
}

void
Protocol::fillBatchValidity(FrameId src_frame, Addr base_offset, Addr count,
                            PageCopyData& msg)
{
    (void)src_frame;
    (void)base_offset;
    (void)count;
    (void)msg;
}

void
Protocol::onFrameDropped(FrameId frame)
{
    (void)frame;
}

void
Protocol::onMasterPromoted(FrameId frame, Vpn vpn)
{
    (void)frame;
    (void)vpn;
}

void
Protocol::onMasterDemoted(FrameId frame)
{
    (void)frame;
}

std::unique_ptr<Protocol>
makeProtocol(CoherenceProtocol kind, CoherenceManager& cm)
{
    switch (kind) {
      case CoherenceProtocol::WriteUpdate:
        return std::make_unique<WriteUpdateProtocol>(cm);
      case CoherenceProtocol::WriteInvalidate:
        return std::make_unique<WriteInvalidateProtocol>(cm);
      default:
        PLUS_PANIC("unknown coherence protocol ",
                   static_cast<int>(kind));
    }
}

} // namespace proto
} // namespace plus
