/**
 * @file
 * The pending-writes cache (Section 2.3): remembers the addresses of the
 * node's incomplete write operations. It is what makes PLUS's writes
 * non-blocking yet strongly ordered within one processor — a processor
 * can have several writes in flight (8 in the 1990 implementation), but
 * reading a location that is currently being written blocks until the
 * write completes, and a fence blocks until the cache is empty.
 */

#ifndef PLUS_PROTO_PENDING_WRITES_HPP_
#define PLUS_PROTO_PENDING_WRITES_HPP_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "check/event.hpp"
#include "common/panic.hpp"
#include "common/tag_table.hpp"
#include "common/types.hpp"

namespace plus {
namespace proto {

/** Fixed-capacity cache of in-flight writes, keyed by small tags. */
class PendingWrites
{
  public:
    using Tag = std::uint32_t;

    explicit PendingWrites(unsigned capacity) : capacity_(capacity)
    {
        PLUS_ASSERT(capacity_ > 0, "pending-writes cache needs capacity");
        entries_.reserve(capacity_);
    }

    /** Report cache events to @p events (null to disable). */
    void
    setEventStream(check::EventStream* events, NodeId self)
    {
        events_ = events;
        self_ = self;
    }

    unsigned inFlight() const
    {
        return static_cast<unsigned>(entries_.size());
    }
    bool full() const { return inFlight() >= capacity_; }
    bool empty() const { return entries_.empty(); }

    /**
     * One in-flight write: its address plus what a crash-recovery walk
     * needs to abort and replay it.
     */
    struct Entry {
        Vpn vpn = 0;
        Addr wordOffset = 0;
        /** The written value (an interlocked op's operand). */
        Word value = 0;
        /** Node the write was last dispatched to (the issuer if local). */
        NodeId dst = kInvalidNode;
        /** Tracks an interlocked op's update chain, not a plain write. */
        bool fromRmw = false;
    };

    /**
     * Record a new in-flight write of @p value to (vpn, word offset);
     * @p from_rmw marks the entry of an interlocked op's update chain.
     * @pre !full()
     * @return the tag the eventual acknowledgement must carry.
     */
    Tag
    insert(Vpn vpn, Addr word_offset, Word value = 0, bool from_rmw = false)
    {
        PLUS_ASSERT(!full(), "pending-writes cache overflow");
        const Tag tag = nextTag_++;
        entries_.append(tag, Entry{vpn, word_offset, value, kInvalidNode,
                                   from_rmw});
        maxInFlight_ = std::max(maxInFlight_, inFlight());
        if (events_) {
            events_->emit({.kind = check::EventKind::PendingInsert,
                           .node = self_,
                           .vpn = vpn,
                           .word = word_offset,
                           .a = tag});
        }
        return tag;
    }

    /** Complete the write with @p tag. */
    void
    complete(Tag tag)
    {
        if (events_) {
            // Before the assert: a double retire must reach the checker so
            // the panic carries the event history.
            events_->emit({.kind = check::EventKind::PendingComplete,
                           .node = self_,
                           .a = tag});
        }
        PLUS_ASSERT(live(tag), "ack for unknown write tag ", tag);
        entries_.take(tag);
    }

    /** True while the write with @p tag is in flight. */
    bool live(Tag tag) const { return entries_.find(tag) != nullptr; }

    /** The in-flight write with @p tag. */
    Entry&
    entry(Tag tag)
    {
        Entry* e = entries_.find(tag);
        PLUS_ASSERT(e, "no in-flight write with tag ", tag);
        return *e;
    }

    /** Tags of every in-flight write, ascending (= issue order). */
    std::vector<Tag>
    sortedTags() const
    {
        std::vector<Tag> tags;
        tags.reserve(entries_.size());
        for (const auto& item : entries_) {
            tags.push_back(item.tag);
        }
        return tags;
    }

    /** True if any in-flight write targets (vpn, word offset). */
    bool
    pendingOn(Vpn vpn, Addr word_offset) const
    {
        for (const auto& item : entries_) {
            if (item.record.vpn == vpn &&
                item.record.wordOffset == word_offset) {
                return true;
            }
        }
        return false;
    }

    /** Peak simultaneous in-flight writes seen (diagnostics). */
    unsigned maxInFlight() const { return maxInFlight_; }

  private:
    unsigned capacity_;
    check::EventStream* events_ = nullptr;
    NodeId self_ = kInvalidNode;
    Tag nextTag_ = 1;
    TagTable<Tag, Entry> entries_;
    unsigned maxInFlight_ = 0;
};

} // namespace proto
} // namespace plus

#endif // PLUS_PROTO_PENDING_WRITES_HPP_
