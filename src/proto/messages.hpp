/**
 * @file
 * Coherence-protocol messages exchanged between coherence managers.
 *
 * Every message is a plain aggregate, one alternative of proto::Message,
 * which net::Packet carries by value. Sizes (wireBytes, the packet's
 * payloadBytes) follow a simple wire model: 4 bytes per word of
 * address/value/tag content beyond the 8-byte link header accounted by
 * the network.
 *
 * Protocol summary (Section 2.3):
 *  - ReadReq/ReadResp: remote read served by the addressed copy.
 *  - WriteReq: a write travelling to the addressed copy; the receiving
 *    manager redirects it to the master copy if it is not the master.
 *  - UpdateReq: a write flowing down the copy-list from the master; the
 *    last copy answers the originator with WriteAck.
 *  - RmwReq: an interlocked delayed operation; the master executes it,
 *    returns the old value with RmwResp, and propagates its memory
 *    effects as UpdateReqs (acknowledged like writes).
 *  - Nack: the addressed frame no longer holds a copy (it was deleted or
 *    migrated); the originator re-translates and retries.
 *  - PageCopyData/PageCopyDone: background page replication traffic.
 */

#ifndef PLUS_PROTO_MESSAGES_HPP_
#define PLUS_PROTO_MESSAGES_HPP_

#include <cstdint>
#include <variant>
#include <vector>

#include "common/types.hpp"
#include "proto/rmw.hpp"

namespace plus {
namespace proto {

/** Tag identifying a pending-write entry at the originator. */
using WriteTag = std::uint32_t;

/** Tag identifying a delayed-operation slot at the originator. */
using OpTag = std::uint32_t;

/** Tag identifying a blocked read continuation at the originator. */
using ReadTag = std::uint32_t;

/** Message kind: the alternative's index in Message, less one. */
enum class MsgType : std::uint8_t {
    ReadReq,
    ReadResp,
    WriteReq,
    UpdateReq,
    WriteAck,
    RmwReq,
    RmwResp,
    Nack,
    PageCopyData,
    PageCopyDone,
    FrameFlush,
    NumTypes,
};

inline const char*
toString(MsgType type)
{
    switch (type) {
      case MsgType::ReadReq: return "read-req";
      case MsgType::ReadResp: return "read-resp";
      case MsgType::WriteReq: return "write-req";
      case MsgType::UpdateReq: return "update-req";
      case MsgType::WriteAck: return "write-ack";
      case MsgType::RmwReq: return "rmw-req";
      case MsgType::RmwResp: return "rmw-resp";
      case MsgType::Nack: return "nack";
      case MsgType::PageCopyData: return "page-copy-data";
      case MsgType::PageCopyDone: return "page-copy-done";
      case MsgType::FrameFlush: return "frame-flush";
      default: return "?";
    }
}

/** Remote read of one word from the addressed copy. */
struct ReadReq {
    PhysAddr target{};
    Vpn vpn = 0; ///< for re-translation after a Nack
    NodeId originator = kInvalidNode;
    ReadTag tag = 0;
    /**
     * Write-invalidate only: the originator holds a copy whose word was
     * invalidated and is re-fetching it from the master, which then
     * forgets the word's invalidation (the next write re-invalidates).
     */
    bool refetch = false;
};

/** Value returned for a ReadReq. */
struct ReadResp {
    ReadTag tag = 0;
    Word value = 0;
};

/** A write on its way to the master copy. */
struct WriteReq {
    PhysAddr target{}; ///< the copy this request is addressed to
    Vpn vpn = 0;
    Word value = 0;
    NodeId originator = kInvalidNode;
    WriteTag tag = 0;
};

/** Write effects flowing down the copy-list from the master. */
struct UpdateReq {
    PhysPage target{}; ///< the copy to update
    Vpn vpn = 0;
    WordWrites writes{};
    NodeId originator = kInvalidNode;
    WriteTag tag = 0;
    /** Chain identity assigned by the master (see check::ChainId). */
    std::uint64_t chainId = 0;
    bool fromRmw = false;
    /**
     * Write-invalidate only: the chain invalidates the named words at
     * each copy instead of applying the carried values (which only the
     * master applied). Traversal and tail acknowledgement are identical
     * to an update chain.
     */
    bool invalidate = false;
};

/** Completion notice from the last copy in the list to the originator. */
struct WriteAck {
    WriteTag tag = 0;
    bool fromRmw = false;
    /**
     * Write-invalidate only (0 otherwise): the tail of an invalidation
     * chain acknowledges the *master*, naming the chain, so the master
     * can commit the chain's words as invalidated-everywhere before it
     * relays the completion to the originator.
     */
    std::uint64_t chainId = 0;
};

/** Interlocked (delayed) operation on its way to the master copy. */
struct RmwReq {
    RmwOp op = RmwOp::Xchng;
    PhysAddr target{};
    Vpn vpn = 0;
    Word operand = 0;
    NodeId originator = kInvalidNode;
    OpTag opTag = 0;
    /** The originator's pending write tracking the op's update chain. */
    WriteTag writeTag = 0;
};

/** Old memory value returned by the master for a delayed operation. */
struct RmwResp {
    OpTag opTag = 0;
    Word oldValue = 0;
};

/** Which request a Nack refuses. */
enum class NackedKind : std::uint8_t { Read, Write, Rmw };

/**
 * The addressed frame is gone; re-translate and retry. The one-byte
 * fields come last so a Nack is 40 bytes and its retry closure (this +
 * Nack) fits sim::Event's inline capture.
 */
struct Nack {
    Vpn vpn = 0;
    Addr wordOffset = 0;
    /** Request identity to retry: the matching tag for the kind. */
    ReadTag readTag = 0;
    WriteTag writeTag = 0;
    OpTag opTag = 0;
    Word value = 0; ///< write value / rmw operand
    NackedKind kind = NackedKind::Read;
    RmwOp op = RmwOp::Xchng;
};

/** A batch of words copied during background page replication. */
struct PageCopyData {
    PhysPage target{};
    Vpn vpn = 0; ///< page being copied, for per-page checker attribution
    Addr baseOffset = 0;
    std::vector<Word> words{};
    std::uint32_t copyId = 0;
    bool last = false;
    /**
     * Write-invalidate only: per-word validity of this batch at the
     * source (bit i covers words[i]). Empty means all valid — the
     * write-update wire format and byte count are unchanged. A new copy
     * must not treat a word as valid when the master has outstanding
     * invalidations for it: a later write would skip the chain.
     */
    std::vector<std::uint64_t> validMask{};
};

/** The destination saw the final batch of a page copy. */
struct PageCopyDone {
    std::uint32_t copyId = 0;
};

/**
 * Deletion marker for a copy that has been spliced out of its copy-list.
 * Sent by the deleted copy's *predecessor* after the splice, over the same
 * FIFO path as forwarded updates, so it arrives only after every update
 * the predecessor forwarded to the dying copy; the receiver then frees
 * the frame and drops its coherence-table entries.
 */
struct FrameFlush {
    FrameId frame = kInvalidFrame;
};

/**
 * Any protocol message, in MsgType order after std::monostate, which
 * stands for no message (link-layer acks, bare test packets).
 */
using Message =
    std::variant<std::monostate, ReadReq, ReadResp, WriteReq, UpdateReq,
                 WriteAck, RmwReq, RmwResp, Nack, PageCopyData,
                 PageCopyDone, FrameFlush>;

/** The type of @p msg, which must hold a message. */
inline MsgType
typeOf(const Message& msg)
{
    return static_cast<MsgType>(msg.index() - 1);
}

/** Bytes @p msg takes on the wire; 0 for no message. */
inline unsigned
wireBytes(const Message& msg)
{
    if (std::holds_alternative<std::monostate>(msg)) {
        return 0;
    }
    switch (typeOf(msg)) {
      case MsgType::ReadReq: return 12;
      case MsgType::ReadResp: return 8;
      case MsgType::WriteReq: return 16;
      case MsgType::UpdateReq: {
        // An invalidation names each word but carries no value.
        const UpdateReq& m = std::get<UpdateReq>(msg);
        return 8 + (m.invalidate ? 4 : 8) *
                       static_cast<unsigned>(m.writes.size());
      }
      case MsgType::WriteAck:
        // Master-routed acks carry the 8-byte chain identity.
        return std::get<WriteAck>(msg).chainId != 0 ? 12 : 4;
      case MsgType::RmwReq: return 20;
      case MsgType::RmwResp: return 8;
      case MsgType::Nack: return 16;
      case MsgType::PageCopyData: {
        const PageCopyData& m = std::get<PageCopyData>(msg);
        return 12 + 4 * static_cast<unsigned>(m.words.size()) +
               8 * static_cast<unsigned>(m.validMask.size());
      }
      case MsgType::PageCopyDone: return 4;
      case MsgType::FrameFlush: return 8;
      default: return 0;
    }
}

} // namespace proto
} // namespace plus

#endif // PLUS_PROTO_MESSAGES_HPP_
