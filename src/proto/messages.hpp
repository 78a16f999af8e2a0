/**
 * @file
 * Coherence-protocol messages exchanged between coherence managers.
 *
 * Every message is a net::Payload. Sizes (payloadBytes) follow a simple
 * wire model: 4 bytes per word of address/value/tag content beyond the
 * 8-byte link header accounted by the network.
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
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "net/network.hpp"
#include "proto/rmw.hpp"

namespace plus {
namespace proto {

/** Tag identifying a pending-write entry at the originator. */
using WriteTag = std::uint32_t;

/** Tag identifying a delayed-operation slot at the originator. */
using OpTag = std::uint32_t;

/** Tag identifying a blocked read continuation at the originator. */
using ReadTag = std::uint32_t;

/** One word written at a copy; updates carry one or two of these. */
struct WordWrite {
    Addr wordOffset = 0;
    Word value = 0;
};

/** Message kind, used for dispatch and statistics. */
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

const char* toString(MsgType type);

/** Base of all protocol messages. */
struct ProtoMsg : net::Payload {
    explicit ProtoMsg(MsgType t) : type(t) {}
    MsgType type;
};

/** Remote read of one word from the addressed copy. */
struct ReadReq : ProtoMsg {
    ReadReq() : ProtoMsg(MsgType::ReadReq) {}
    std::unique_ptr<net::Payload>
    clone() const override
    {
        return std::make_unique<ReadReq>(*this);
    }
    PhysAddr target;
    Vpn vpn = 0; ///< for re-translation after a Nack
    NodeId originator = kInvalidNode;
    ReadTag tag = 0;
    /**
     * Write-invalidate only: the originator holds a copy whose word was
     * invalidated and is re-fetching it from the master, which then
     * forgets the word's invalidation (the next write re-invalidates).
     */
    bool refetch = false;
    static constexpr unsigned kBytes = 12;
};

/** Value returned for a ReadReq. */
struct ReadResp : ProtoMsg {
    ReadResp() : ProtoMsg(MsgType::ReadResp) {}
    std::unique_ptr<net::Payload>
    clone() const override
    {
        return std::make_unique<ReadResp>(*this);
    }
    ReadTag tag = 0;
    Word value = 0;
    static constexpr unsigned kBytes = 8;
};

/** A write on its way to the master copy. */
struct WriteReq : ProtoMsg {
    WriteReq() : ProtoMsg(MsgType::WriteReq) {}
    std::unique_ptr<net::Payload>
    clone() const override
    {
        return std::make_unique<WriteReq>(*this);
    }
    PhysAddr target; ///< the copy this request is addressed to
    Vpn vpn = 0;
    Word value = 0;
    NodeId originator = kInvalidNode;
    WriteTag tag = 0;
    static constexpr unsigned kBytes = 16;
};

/** Write effects flowing down the copy-list from the master. */
struct UpdateReq : ProtoMsg {
    UpdateReq() : ProtoMsg(MsgType::UpdateReq) {}
    std::unique_ptr<net::Payload>
    clone() const override
    {
        return std::make_unique<UpdateReq>(*this);
    }
    PhysPage target; ///< the copy to update
    Vpn vpn = 0;
    std::vector<WordWrite> writes;
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
    unsigned
    bytes() const
    {
        // An invalidation names each word but carries no value.
        return invalidate
                   ? 8 + 4 * static_cast<unsigned>(writes.size())
                   : 8 + 8 * static_cast<unsigned>(writes.size());
    }
};

/** Completion notice from the last copy in the list to the originator. */
struct WriteAck : ProtoMsg {
    WriteAck() : ProtoMsg(MsgType::WriteAck) {}
    std::unique_ptr<net::Payload>
    clone() const override
    {
        return std::make_unique<WriteAck>(*this);
    }
    WriteTag tag = 0;
    bool fromRmw = false;
    /**
     * Write-invalidate only (0 otherwise): the tail of an invalidation
     * chain acknowledges the *master*, naming the chain, so the master
     * can commit the chain's words as invalidated-everywhere before it
     * relays the completion to the originator.
     */
    std::uint64_t chainId = 0;
    static constexpr unsigned kBytes = 4;
    /** Master-routed acks carry the 8-byte chain identity. */
    static constexpr unsigned kChainBytes = 12;
};

/** Interlocked (delayed) operation on its way to the master copy. */
struct RmwReq : ProtoMsg {
    RmwReq() : ProtoMsg(MsgType::RmwReq) {}
    std::unique_ptr<net::Payload>
    clone() const override
    {
        return std::make_unique<RmwReq>(*this);
    }
    RmwOp op = RmwOp::Xchng;
    PhysAddr target;
    Vpn vpn = 0;
    Word operand = 0;
    NodeId originator = kInvalidNode;
    OpTag opTag = 0;
    /** The originator's pending write tracking the op's update chain. */
    WriteTag writeTag = 0;
    static constexpr unsigned kBytes = 20;
};

/** Old memory value returned by the master for a delayed operation. */
struct RmwResp : ProtoMsg {
    RmwResp() : ProtoMsg(MsgType::RmwResp) {}
    std::unique_ptr<net::Payload>
    clone() const override
    {
        return std::make_unique<RmwResp>(*this);
    }
    OpTag opTag = 0;
    Word oldValue = 0;
    static constexpr unsigned kBytes = 8;
};

/** Which request a Nack refuses. */
enum class NackedKind : std::uint8_t { Read, Write, Rmw };

/** The addressed frame is gone; re-translate and retry. */
struct Nack : ProtoMsg {
    Nack() : ProtoMsg(MsgType::Nack) {}
    std::unique_ptr<net::Payload>
    clone() const override
    {
        return std::make_unique<Nack>(*this);
    }
    NackedKind kind = NackedKind::Read;
    Vpn vpn = 0;
    Addr wordOffset = 0;
    /** Request identity to retry: the matching tag for the kind. */
    ReadTag readTag = 0;
    WriteTag writeTag = 0;
    OpTag opTag = 0;
    Word value = 0;   ///< write value / rmw operand
    RmwOp op = RmwOp::Xchng;
    static constexpr unsigned kBytes = 16;
};

/** A batch of words copied during background page replication. */
struct PageCopyData : ProtoMsg {
    PageCopyData() : ProtoMsg(MsgType::PageCopyData) {}
    std::unique_ptr<net::Payload>
    clone() const override
    {
        return std::make_unique<PageCopyData>(*this);
    }
    PhysPage target;
    Vpn vpn = 0; ///< page being copied, for per-page checker attribution
    Addr baseOffset = 0;
    std::vector<Word> words;
    std::uint32_t copyId = 0;
    bool last = false;
    /**
     * Write-invalidate only: per-word validity of this batch at the
     * source (bit i covers words[i]). Empty means all valid — the
     * write-update wire format and byte count are unchanged. A new copy
     * must not treat a word as valid when the master has outstanding
     * invalidations for it: a later write would skip the chain.
     */
    std::vector<std::uint64_t> validMask;
    unsigned
    bytes() const
    {
        return 12 + 4 * static_cast<unsigned>(words.size()) +
               8 * static_cast<unsigned>(validMask.size());
    }
};

/** The destination saw the final batch of a page copy. */
struct PageCopyDone : ProtoMsg {
    PageCopyDone() : ProtoMsg(MsgType::PageCopyDone) {}
    std::unique_ptr<net::Payload>
    clone() const override
    {
        return std::make_unique<PageCopyDone>(*this);
    }
    std::uint32_t copyId = 0;
    static constexpr unsigned kBytes = 4;
};

/**
 * Deletion marker for a copy that has been spliced out of its copy-list.
 * Sent by the deleted copy's *predecessor* after the splice, over the same
 * FIFO path as forwarded updates, so it arrives only after every update
 * the predecessor forwarded to the dying copy; the receiver then frees
 * the frame and drops its coherence-table entries.
 */
struct FrameFlush : ProtoMsg {
    FrameFlush() : ProtoMsg(MsgType::FrameFlush) {}
    std::unique_ptr<net::Payload>
    clone() const override
    {
        return std::make_unique<FrameFlush>(*this);
    }
    FrameId frame = kInvalidFrame;
    static constexpr unsigned kBytes = 8;
};

} // namespace proto
} // namespace plus

#endif // PLUS_PROTO_MESSAGES_HPP_
