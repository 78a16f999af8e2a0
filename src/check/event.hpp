/**
 * @file
 * The instrumentation event stream shared by the plus::check subsystem
 * and the telemetry tracer.
 *
 * Every paper event the simulator reports — a write entering the
 * pending-writes cache, an update chain applying at a copy, a fence
 * completing, a packet crossing a link — is one fixed-size Event record.
 * The coherence manager, the pending-writes cache, the processor, the
 * network and core::Machine each hold one EventStream pointer that is
 * null when nothing listens, so the disabled hot path pays exactly one
 * branch per event. An installed stream stamps the record with the
 * current cycle and hands it to its sinks in a fixed order: the checker
 * (check::Checker) first, then the tracer (telemetry::Telemetry).
 *
 * Both sinks keep a bounded EventRing of recent records: the checker's
 * history is rendered into violation panics, the tracer's ring feeds
 * the Perfetto export and the machine's panic dump.
 */

#ifndef PLUS_CHECK_EVENT_HPP_
#define PLUS_CHECK_EVENT_HPP_

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "sim/engine.hpp"

namespace plus {
namespace check {

/**
 * Identity of one write-propagation chain: the journey of one write's (or
 * one interlocked operation's) effects from the master copy down the
 * copy-list to the tail. Assigned by the master's coherence manager when
 * the chain starts and carried by every UpdateReq of the chain.
 */
using ChainId = std::uint64_t;

/**
 * What an Event records. Fields not listed for a kind stay at their
 * defaults (0, or kInvalidNode for node/peer).
 */
enum class EventKind : std::uint8_t {
    /**
     * A write — or, when cls is 1, a tracked interlocked operation's
     * pseudo-write — entered node's pending-writes cache. a = tag,
     * vpn/word = target. Qualifies the matching PendingInsert.
     */
    WriteIssued,
    /** A write occupied a pending-writes entry. a = tag, vpn/word. */
    PendingInsert,
    /** The pending-writes entry a = tag on node retired. */
    PendingComplete,
    /**
     * Crash recovery aborted the in-flight write a = tag on node because
     * its update chain touched the dead node. cls = 1 when the operation
     * is re-dispatched under the same tag; 0 when its page is lost and
     * the entry force-retires. The only path that may relax retire-once.
     */
    PendingAborted,
    /**
     * Tracer-only: the lifetime of one pending-writes entry, synthesized
     * from PendingInsert/PendingComplete. a = tag, b = insert cycle,
     * cycle = retire cycle, vpn/word = target.
     */
    PendingWrite,
    /**
     * Chain a = chain id applied its effects at the copy (node, frame) of
     * page vpn, starting at word for bytes = word count. peer = the
     * chain's originator, b = packFrameTag(frame, tag) of the pending
     * entry it retires, cls = kChainAtMaster | kChainTracked flags.
     * kChainAtMaster is the applying manager's own belief that it acted
     * as the chain's head; the checker validates it against the
     * copy-list.
     */
    ChainApplied,
    /**
     * A blocking fence completed on node; cls = 1 when the pending-writes
     * cache was empty at that instant (it must be).
     */
    FenceComplete,
    /**
     * A processor-side read of vpn/word was served on node after any
     * conflicting pending-write wait.
     */
    ReadServed,
    /**
     * A read of vpn/word on node was served from the node's own copy
     * without consulting the master (under write-invalidate the word must
     * be valid there).
     */
    LocalValueServed,
    /**
     * Write-invalidate only: one word of node's copy of vpn was marked
     * invalid. Precedes the matching ChainApplied at a sharer.
     */
    WordInvalidated,
    /** Write-invalidate only: a re-fetch restored word of node's copy. */
    WordRevalidated,
    /**
     * Write-invalidate only: the master copy on node saw page vpn's
     * writer change hands from a to peer.
     */
    OwnershipTransfer,
    /**
     * The coherence manager of node handed a message of class cls (a
     * proto::MsgType value) of bytes payload to the network, bound for
     * peer. vpn attributes the traffic to a page (0 when none).
     */
    MessageSent,
    /**
     * The coherence manager of node dispatched a delivered message of
     * class cls sent by peer (the crashed-source invariant).
     */
    MessageProcessed,
    /**
     * A packet of class cls (0xff unclassified) and bytes payload from
     * peer reached node. a = end-to-end latency, b = cycles queued
     * behind busy links.
     */
    PacketDelivered,
    /**
     * The directed mesh link node -> peer serialized a packet of class
     * cls and bytes payload for b cycles starting at cycle a.
     */
    LinkBusy,
    /**
     * The fault layer discarded a packet of class cls and bytes payload
     * travelling node -> peer; a = its DropReason. For LinkDown the pair
     * names the killed link's endpoints.
     */
    PacketDropped,
    /**
     * The reliable layer re-sent frame a = sequence number of channel
     * node -> peer; b = attempt (1 = first re-send).
     */
    Retransmit,
    /**
     * The application access kinds below carry a = thread id and
     * b = virtual address; vpn/word are the address's page and word.
     * Thread a completed a coherent read.
     */
    ProcRead,
    /** Thread a issued a coherent write. */
    ProcWrite,
    /** Thread a issued interlocked operation cls (a proto::RmwOp). */
    ProcRmwIssue,
    /** Thread a consumed the delayed result of an operation. */
    ProcVerify,
    /** Thread a completed a full (blocking) fence. No address. */
    ProcFence,
    /** Thread a armed the non-blocking write fence. No address. */
    ProcWriteFence,
    /**
     * Thread a accessed a page whose every copy died with a crashed node;
     * the access completed degraded.
     */
    ProcPageLost,
    /**
     * The processor on node left a free interval of cls (a
     * node::StallKind value) that began at cycle a and lasted b cycles.
     */
    ProcStall,
    /** The OS changed the copy-list of vpn (machine context). */
    CopyListChanged,
    /** node fail-stop crashed (machine context). */
    NodeCrashed,
    /** Recovery for node completed; its epoch a sealed. */
    EpochSealed,
};

const char* toString(EventKind kind);

/** ChainApplied cls bits. */
inline constexpr std::uint8_t kChainAtMaster = 1;
inline constexpr std::uint8_t kChainTracked = 2;

constexpr std::uint8_t
chainFlags(bool at_master, bool tracked)
{
    return (at_master ? kChainAtMaster : 0) | (tracked ? kChainTracked : 0);
}

/** ChainApplied b: the applying copy's frame and the retired tag. */
constexpr std::uint64_t
packFrameTag(FrameId frame, std::uint32_t tag)
{
    return (static_cast<std::uint64_t>(frame) << 32) | tag;
}

/**
 * Why the fault layer discarded a packet (see net::FaultInjector and
 * net::LinkLayer), carried in PacketDropped's a.
 */
enum class DropReason : std::uint8_t {
    Injected,  ///< probabilistic or scripted drop at injection
    Corrupt,   ///< payload CRC failed at the receiver
    LinkDown,  ///< the packet reached a killed link
    NodeDown,  ///< the source or destination router is dead
    Duplicate, ///< suppressed by the reliable layer's sequence check
    Sealed,    ///< sent by a crashed node whose recovery epoch sealed
};

inline const char*
toString(DropReason reason)
{
    switch (reason) {
      case DropReason::Injected: return "injected";
      case DropReason::Corrupt: return "corrupt";
      case DropReason::LinkDown: return "link-down";
      case DropReason::NodeDown: return "node-down";
      case DropReason::Duplicate: return "duplicate";
      case DropReason::Sealed: return "sealed";
    }
    return "?";
}

/** One instrumentation event; see EventKind for each kind's fields. */
struct Event {
    EventKind kind = EventKind::WriteIssued;
    /** Kind-dependent class byte: message class, flags, op or stall. */
    std::uint8_t cls = 0;
    NodeId node = kInvalidNode;
    /** Second party: message peer, link endpoint, chain originator. */
    NodeId peer = kInvalidNode;
    /** Message bytes, or a kind-dependent count. */
    std::uint32_t bytes = 0;
    /** Stamped by EventStream::emit. */
    Cycles cycle = 0;
    Vpn vpn = 0;
    /** Word offset within the page. */
    Addr word = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

static_assert(sizeof(Event) <= 64, "Event must fit one cache line");

/** A consumer of the event stream. */
class EventSink
{
  public:
    virtual ~EventSink() = default;

    virtual void consume(const Event& event) = 0;
};

/**
 * The fan-out every instrumented subsystem points at: stamps each record
 * with the engine's clock once, then hands it to every sink in the order
 * they were added.
 */
class EventStream
{
  public:
    static constexpr std::size_t kMaxSinks = 2;

    explicit EventStream(const sim::Engine& engine) : engine_(engine) {}

    /** Append @p sink; it sees every event after the earlier sinks. */
    void addSink(EventSink* sink);

    void
    emit(Event event)
    {
        event.cycle = engine_.now();
        for (std::size_t i = 0; i < count_; ++i) {
            sinks_[i]->consume(event);
        }
    }

  private:
    const sim::Engine& engine_;
    std::array<EventSink*, kMaxSinks> sinks_{};
    std::size_t count_ = 0;
};

/**
 * Bounded ring of recent events; overwrites the oldest when full.
 *
 * The checker's history (Checker::kHistoryDepth) and the tracer's ring
 * (TelemetryConfig::ringCapacity) are two instances. They stay separate
 * because the history also keeps kinds Perfetto never exports (proc
 * reads and writes, pending inserts, read serves): one shared buffer
 * would change telemetry.events.recorded, the stats export, and what a
 * long run's Perfetto ring retains.
 */
class EventRing
{
  public:
    explicit EventRing(std::size_t capacity);

    void push(const Event& event);

    /** Events ever pushed (including overwritten ones). */
    std::uint64_t recorded() const { return recorded_; }

    /**
     * Events lost to wrap-around, counted at each overwrite so overflow
     * is an observable signal (telemetry.trace.dropped), not a silent
     * loss.
     */
    std::uint64_t dropped() const { return dropped_; }

    /** Visit the retained events oldest to newest. */
    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        const std::size_t n = events_.size();
        const std::size_t start = n == capacity_ ? next_ : 0;
        for (std::size_t i = 0; i < n; ++i) {
            fn(events_[(start + i) % n]);
        }
    }

    /**
     * Render the newest @p newest retained events, oldest first, one per
     * line, under a "last N of M events:" header.
     */
    std::string
    render(std::size_t newest = std::numeric_limits<std::size_t>::max())
        const;

  private:
    std::size_t capacity_;
    std::vector<Event> events_;
    std::size_t next_ = 0;
    std::uint64_t recorded_ = 0;
    std::uint64_t dropped_ = 0;
};

/** Opens every violation's panic text (which carries its history). */
inline constexpr std::string_view kViolationPrefix =
    "plus::check invariant violation: ";

/**
 * Raise a checker violation: panics with @p message followed by the
 * rendered @p history.
 */
[[noreturn]] void violation(const EventRing& history,
                            const std::string& message);

} // namespace check
} // namespace plus

#endif // PLUS_CHECK_EVENT_HPP_
