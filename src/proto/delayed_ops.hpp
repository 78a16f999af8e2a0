/**
 * @file
 * The delayed-operations cache (Section 3.1): when the processor issues a
 * delayed synchronization operation it receives an identifier — the
 * address of a location in this cache, allocated at issue time and
 * deallocated when the result is read. Up to 8 operations can be in
 * progress simultaneously in the 1990 implementation. If the result is
 * not yet available when the processor reads it, the read blocks; the
 * software can also inspect the status for a non-blocking poll.
 */

#ifndef PLUS_PROTO_DELAYED_OPS_HPP_
#define PLUS_PROTO_DELAYED_OPS_HPP_

#include <cstdint>
#include <vector>

#include "common/panic.hpp"
#include "common/types.hpp"
#include "proto/rmw.hpp"

namespace plus {
namespace proto {

/** Identifier of a slot in the delayed-operations cache. */
using DelayedOpHandle = std::uint32_t;

/** Fixed-capacity table of delayed operations in progress. */
class DelayedOpCache
{
  public:
    explicit DelayedOpCache(unsigned capacity) : slots_(capacity)
    {
        PLUS_ASSERT(capacity > 0, "delayed-op cache needs capacity");
    }

    unsigned capacity() const
    {
        return static_cast<unsigned>(slots_.size());
    }

    unsigned inFlight() const { return used_; }
    bool full() const { return used_ >= capacity(); }

    /**
     * One issued operation: what a crash-recovery walk needs to abort
     * and replay it while its slot is in flight.
     */
    struct Op {
        RmwOp kind = RmwOp::Xchng;
        Vpn vpn = 0;
        Addr wordOffset = 0;
        Word operand = 0;
        /** Node the request was last dispatched to (the issuer if local). */
        NodeId dst = kInvalidNode;
        /** The pending write tracking the op's update chain (0 = none yet). */
        std::uint32_t writeTag = 0;
    };

    /**
     * Allocate a slot for an operation being issued.
     * @pre !full()
     */
    DelayedOpHandle
    allocate(RmwOp kind, Vpn vpn = 0, Addr word_offset = 0, Word operand = 0)
    {
        PLUS_ASSERT(!full(), "delayed-op cache overflow");
        for (DelayedOpHandle h = 0; h < capacity(); ++h) {
            if (slots_[h].state == State::Free) {
                slots_[h] = Slot{};
                slots_[h].state = State::InFlight;
                slots_[h].op = Op{kind, vpn, word_offset, operand};
                ++used_;
                maxUsed_ = std::max(maxUsed_, used_);
                return h;
            }
        }
        PLUS_PANIC("delayed-op cache bookkeeping is inconsistent");
    }

    /** Deliver the master's result for @p handle. */
    void
    complete(DelayedOpHandle handle, Word result)
    {
        Slot& slot = at(handle);
        PLUS_ASSERT(slot.state == State::InFlight,
                    "result for a slot that is not in flight");
        slot.state = State::Ready;
        slot.result = result;
    }

    /** True while @p handle's result has not arrived. */
    bool
    inFlight(DelayedOpHandle handle) const
    {
        return at(handle).state == State::InFlight;
    }

    /** The issue record of the operation in slot @p handle. */
    Op&
    op(DelayedOpHandle handle)
    {
        Slot& slot = at(handle);
        PLUS_ASSERT(slot.state != State::Free, "record of a free slot");
        return slot.op;
    }

    /** Non-blocking status poll (the paper's software status inspect). */
    bool
    ready(DelayedOpHandle handle) const
    {
        return at(handle).state == State::Ready;
    }

    /**
     * Consume a ready result and free the slot.
     * @pre ready(handle)
     */
    Word
    take(DelayedOpHandle handle)
    {
        Slot& slot = at(handle);
        PLUS_ASSERT(slot.state == State::Ready, "take() before result");
        slot.state = State::Free;
        --used_;
        return slot.result;
    }

    unsigned maxInFlight() const { return maxUsed_; }

  private:
    enum class State : std::uint8_t { Free, InFlight, Ready };

    struct Slot {
        State state = State::Free;
        Op op;
        Word result = 0;
    };

    Slot&
    at(DelayedOpHandle handle)
    {
        PLUS_ASSERT(handle < slots_.size(), "bad delayed-op handle");
        return slots_[handle];
    }

    const Slot&
    at(DelayedOpHandle handle) const
    {
        PLUS_ASSERT(handle < slots_.size(), "bad delayed-op handle");
        return slots_[handle];
    }

    std::vector<Slot> slots_;
    unsigned used_ = 0;
    unsigned maxUsed_ = 0;
};

} // namespace proto
} // namespace plus

#endif // PLUS_PROTO_DELAYED_OPS_HPP_
