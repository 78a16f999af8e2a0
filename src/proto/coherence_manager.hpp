/**
 * @file
 * The coherence manager: the per-node hardware module that implements
 * the coherence protocol and the delayed interlocked operations
 * (Sections 2.3 and 3.1).
 *
 * The manager is modelled as a single server: each request or message it
 * handles occupies it for a cost-model-defined number of cycles, and
 * concurrent work queues behind a busy-until horizon, so contention at a
 * hot manager (e.g. the master of a contended lock) is visible in the
 * results exactly as the paper's evaluation assumes.
 *
 * The manager owns the protocol-independent plumbing: occupancy,
 * message dispatch, the pending-writes cache and fences, nack/retry,
 * page-copy framing, the crash-recovery walk and statistics. What a write
 * does at the master, what a chain stop does at a copy, and how reads
 * are served is the installed proto::Protocol strategy's business
 * (protocol.hpp) — PLUS's write-update protocol by default.
 *
 * Invariants maintained by the plumbing regardless of protocol:
 *  - chains walk the ordered copy-list from the master, and the tail
 *    acknowledges so the originator can retire its pending entry;
 *  - a processor's read of a location with an in-flight write by the
 *    same processor blocks until the acknowledgement arrives;
 *  - a fence completes only when the pending-writes cache is empty.
 */

#ifndef PLUS_PROTO_COHERENCE_MANAGER_HPP_
#define PLUS_PROTO_COHERENCE_MANAGER_HPP_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "check/event.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/coherence_tables.hpp"
#include "mem/local_memory.hpp"
#include "mem/page_table.hpp"
#include "mem/ref_counters.hpp"
#include "proto/delayed_ops.hpp"
#include "proto/messages.hpp"
#include "proto/pending_writes.hpp"
#include "proto/protocol.hpp"
#include "sim/event.hpp"

namespace plus {

namespace sim {
class Engine;
} // namespace sim

namespace net {
class Network;
struct Packet;
} // namespace net

namespace proto {

/** Per-manager statistics; the bench harnesses aggregate these. */
struct CmStats {
    /** Reads served from local memory / requiring a ReadReq. */
    std::uint64_t localReads = 0;
    std::uint64_t remoteReads = 0;
    /** Writes completing with no network traffic / with some. */
    std::uint64_t localWrites = 0;
    std::uint64_t remoteWrites = 0;
    /** Interlocked ops executing entirely locally / over the network. */
    std::uint64_t localRmws = 0;
    std::uint64_t remoteRmws = 0;
    /** Messages sent, by type. */
    std::array<std::uint64_t, static_cast<std::size_t>(MsgType::NumTypes)>
        sent{};
    /** Nacks received and requests retried after re-translation. */
    std::uint64_t retries = 0;
    /** In-flight ops crash recovery aborted (replayed or completed lost). */
    std::uint64_t recoveryAborts = 0;
    /** Stale responses swallowed after a recovery replay raced them. */
    std::uint64_t staleAcks = 0;
    /** Write-invalidate only: words invalidated at sharer copies. */
    std::uint64_t invalidations = 0;
    /** Write-invalidate only: reads re-fetching an invalidated word. */
    std::uint64_t refetches = 0;
    /** Write-invalidate only: the master saw the writing node change. */
    std::uint64_t ownershipTransfers = 0;
    /** Most retries any single request needed before completing. */
    std::uint64_t nackRetryHighWater = 0;
    /** Cycles this manager was busy serving work. */
    Cycles busyCycles = 0;

    std::uint64_t sentOf(MsgType t) const
    {
        return sent[static_cast<std::size_t>(t)];
    }
    std::uint64_t totalSent() const;
};

/** CmStats exported as sums over nodes; cm.sent.* is a per-type loop. */
inline constexpr StatRow<CmStats> kCmStatRows[] = {
    {"cm.localReads", &CmStats::localReads},
    {"cm.remoteReads", &CmStats::remoteReads},
    {"cm.localWrites", &CmStats::localWrites},
    {"cm.remoteWrites", &CmStats::remoteWrites},
    {"cm.localRmws", &CmStats::localRmws},
    {"cm.remoteRmws", &CmStats::remoteRmws},
    {"cm.retries", &CmStats::retries},
    {"cm.recoveryAborts", &CmStats::recoveryAborts},
    {"cm.staleAcks", &CmStats::staleAcks},
    {"proto.invalidations", &CmStats::invalidations},
    {"proto.refetches", &CmStats::refetches},
    {"proto.ownershipTransfers", &CmStats::ownershipTransfers},
    {"cm.busyCycles", &CmStats::busyCycles},
};

/** retries again, exported after recovery.* (see noteNackRetry). */
inline constexpr StatRow<CmStats> kCmNackStatRows[] = {
    {"proto.nack_retries", &CmStats::retries},
};

/**
 * One node's coherence manager. Each processor-side entry point returns
 * the op's result when the op can proceed inside the call. Otherwise the
 * manager parks the op as one ParkedOp record (or, for a remote read,
 * its ReadWaiter) and returns nullopt/false: the processor blocks the
 * thread, and the completion hook reports the result once the op
 * finishes.
 */
class CoherenceManager
{
  public:
    /** Services the manager needs from its node and the OS. */
    struct Deps {
        sim::Engine* engine = nullptr;
        net::Network* network = nullptr;
        mem::LocalMemory* memory = nullptr;
        mem::CoherenceTables* tables = nullptr;
        mem::RefCounters* refCounters = nullptr; ///< optional
    };

    /** @p protocol selects the coherence-protocol strategy. */
    CoherenceManager(NodeId self, const CostModel& cost, Deps deps,
                     CoherenceProtocol protocol =
                         CoherenceProtocol::WriteUpdate);
    ~CoherenceManager();

    NodeId nodeId() const { return self_; }

    /** The installed coherence-protocol strategy. */
    Protocol& protocol() { return *protocol_; }
    const Protocol& protocol() const { return *protocol_; }

    // --- OS hooks ---------------------------------------------------------

    /**
     * Translation service used to retry nacked and crash-torn requests:
     * maps a virtual page to the node's current physical copy
     * (performing a lazy page-table fill if needed), or to nullopt once
     * the page lost its last copy to a crash.
     */
    using Translator = std::function<std::optional<PhysPage>(Vpn)>;
    void setTranslator(Translator t) { translate_ = std::move(t); }

    /**
     * Node-bus snoop: invoked for every word the manager writes into
     * local memory so the processor cache can stay coherent
     * (write-update snooping, Section 2.3).
     */
    using SnoopHook = std::function<void(FrameId, Addr, Word)>;
    void setSnoopHook(SnoopHook hook) { snoop_ = std::move(hook); }

    /**
     * Finishes a parked op: thread @p thread (the index the processor
     * passed in) gets @p value — the read or verify result, the
     * delayed-op handle of an interlocked issue, 0 for a write or fence.
     */
    using CompletionHook = std::function<void(unsigned thread, Word value)>;
    void setCompletionHook(CompletionHook hook)
    {
        complete_ = std::move(hook);
    }

    /** Completion callback for page copies this node *initiated*. */
    using PageCopyDoneHandler = std::function<void(std::uint32_t copyId)>;
    void setPageCopyDoneHandler(PageCopyDoneHandler h)
    {
        pageCopyDone_ = std::move(h);
    }

    /**
     * Report protocol milestones (and the pending-writes cache) to
     * @p events. Null (the default) disables instrumentation.
     */
    void
    setEventStream(check::EventStream* events)
    {
        events_ = events;
        pendingWrites_.setEventStream(events, self_);
    }

    // --- processor-side interface ------------------------------------------
    //
    // @p thread names the issuing thread in the completion hook.

    /**
     * Read one word. @p phys is the node's current translation of
     * (vpn, offset). Local reads only wait for conflicting pending
     * writes; remote reads issue a ReadReq.
     */
    std::optional<Word> procRead(unsigned thread, Vpn vpn, Addr word_offset,
                                 PhysAddr phys);

    /**
     * Issue a write. True once the write occupies a pending-writes entry
     * (the processor may then continue); the write completes
     * asynchronously when the copy-list acknowledges.
     */
    bool procWrite(unsigned thread, Vpn vpn, Addr word_offset, PhysAddr phys,
                   Word value);

    /**
     * Issue a delayed interlocked operation. Returns its delayed-op
     * handle once a cache slot is allocated and the request is on its
     * way (the processor may then continue).
     */
    std::optional<DelayedOpHandle> procIssueRmw(unsigned thread, RmwOp op,
                                                Vpn vpn, Addr word_offset,
                                                PhysAddr phys, Word operand);

    /**
     * Degraded-mode interlocked issue against a *lost* page (every
     * copy died with a crashed node): a cache slot is still allocated,
     * so the issue/verify protocol is unchanged, but the operation
     * completes locally and immediately with kPageLostValue.
     */
    std::optional<DelayedOpHandle> procIssueLostRmw(unsigned thread,
                                                    RmwOp op);

    /** Non-blocking poll of a delayed operation's status. */
    bool rmwReady(DelayedOpHandle handle) const;

    /**
     * Read a delayed operation's result and free its cache slot, as
     * soon as the result is available.
     */
    std::optional<Word> procVerify(unsigned thread, DelayedOpHandle handle);

    /** Fence: true once the pending-writes cache is empty. */
    bool procFence(unsigned thread);

    /**
     * The paper's write fence: "causes the coherence manager to block
     * any subsequent write by the processor until all its earlier ones
     * have completed" — the processor itself continues immediately and
     * may keep reading/computing; only later writes and interlocked
     * operations are held behind the drain.
     */
    void procWriteFence();

    // --- background page replication ----------------------------------------

    /**
     * Start copying the page in local @p src_frame to @p dst (this node
     * must be the new copy's predecessor in the copy-list, and the
     * copy-list and coherence tables must already include @p dst, so
     * concurrent writes flow through it while the copy proceeds).
     * @p vpn attributes the copy's batches to the page for per-word
     * validity tracking (write-invalidate) and checker attribution.
     */
    void startPageCopy(FrameId src_frame, PhysPage dst,
                       std::uint32_t copy_id, Vpn vpn = 0);

    /**
     * Send a FrameFlush to a copy this node just spliced out of the
     * copy-list (this node must be the deleted copy's former
     * predecessor; FIFO ordering guarantees every update this node
     * forwarded to the dying copy is applied first).
     */
    void osFlushRemoteFrame(PhysPage victim);

    // --- crash recovery ------------------------------------------------------

    /** What recoverAfterCrash did at this manager, for recovery.* metrics. */
    struct RecoveryOutcome {
        unsigned abortedReads = 0;
        unsigned abortedWrites = 0;
        unsigned abortedRmws = 0;
        /** Operations completed with kPageLostValue (their page died). */
        unsigned lostCompletions = 0;
    };

    /**
     * Entry point run by core::RecoveryManager once @p dead
     * is detected down and the directory is repaired. Walks the records
     * the manager already keeps for each in-flight operation (read
     * waiters, pending writes, delayed-op slots): aborts every one that
     * was last addressed to the dead node or rides a page whose
     * copy-list contained it (@p affected, sorted ascending), replays
     * those against the repaired placement under their original tags,
     * and completes operations on @p lost pages (sorted ascending) with
     * the PageLost sentinel. From the first walk on, responses to
     * operations no longer in flight are counted stale and dropped.
     */
    RecoveryOutcome recoverAfterCrash(NodeId dead,
                                      const std::vector<Vpn>& affected,
                                      const std::vector<Vpn>& lost);

    // --- network entry -------------------------------------------------------

    /** Delivery handler registered with the network. */
    void onPacket(net::Packet&& packet);

    const CmStats& stats() const { return stats_; }
    const PendingWrites& pendingWrites() const { return pendingWrites_; }
    const DelayedOpCache& delayedOps() const { return delayedOps_; }

  private:
    // The protocol strategies drive the private helpers directly.
    friend class Protocol;
    friend class WriteUpdateProtocol;
    friend class WriteInvalidateProtocol;

    /**
     * Serialize @p work behind the manager's busy-until horizon. Takes
     * a sim::Event so a continuation that captures its message rides
     * inline in the engine's event record when it fits.
     */
    void enqueue(Cycles occupancy, sim::Event work);

    /** Send a protocol message, sized (wireBytes) and counted. */
    void send(NodeId dst, Message msg);

    /** Apply one word write to local memory and snoop the node bus. */
    void applyLocal(FrameId frame, Addr word_offset, Word value);

    // Write path.
    void dispatchWrite(Vpn vpn, Addr word_offset, PhysAddr phys, Word value,
                       WriteTag tag);
    /**
     * Forward effects down the list or, at the tail, acknowledge: the
     * originator directly (update chains), or the master first when
     * @p invalidate (which commits the chain, then relays the ack).
     */
    void continueChain(Vpn vpn, check::ChainId chain, FrameId frame,
                       const WordWrites& writes, NodeId originator,
                       WriteTag tag, bool from_rmw, bool invalidate);
    void retireWrite(WriteTag tag);

    /**
     * Crash recovery aborted pending write @p tag: report it, then
     * retire it unless the caller re-sends it under the same tag
     * (@p retried).
     */
    void abortPendingWrite(WriteTag tag, bool retried);

    /** Chain identity for a write this master starts propagating. */
    check::ChainId
    nextChainId()
    {
        return (static_cast<check::ChainId>(self_) << 32) | ++chainCounter_;
    }

    // RMW path.
    void dispatchRmw(RmwOp op, Vpn vpn, Addr word_offset, PhysAddr phys,
                     Word operand, DelayedOpHandle handle, WriteTag tag);
    void rmwAtMaster(RmwOp op, Vpn vpn, FrameId frame, Addr word_offset,
                     Word operand, NodeId originator, OpTag op_tag,
                     WriteTag write_tag);
    void completeRmw(OpTag tag, Word old_value);

    /** Consume a ready result; resumes ops waiting for a slot. */
    Word takeResult(DelayedOpHandle handle);

    // Message handlers. Handlers that defer work behind the manager's
    // occupancy capture a copy of their message in the continuation.
    void onReadReq(const ReadReq& msg);
    void onReadResp(const ReadResp& msg);
    void onWriteReq(const WriteReq& msg);
    void onUpdateReq(const UpdateReq& msg);
    void onWriteAck(const WriteAck& msg);
    void onRmwReq(const RmwReq& msg);
    void onRmwResp(const RmwResp& msg);
    void onNack(const Nack& msg);
    /** True if the nacked operation is still in flight. */
    bool nackTargetLive(const Nack& nack) const;
    /** Complete a nacked operation on a lost page with the sentinel. */
    void completeNackedAsLost(const Nack& nack);
    void onPageCopyData(PageCopyData msg, NodeId src);
    void onPageCopyDone(const PageCopyDone& msg);
    void onFrameFlush(const FrameFlush& msg);

    void sendPageCopyBatch(FrameId src_frame, PhysPage dst,
                           std::uint32_t copy_id, Vpn vpn,
                           Addr next_offset);

    NodeId self_;
    CostModel cost_;
    Deps deps_;
    std::unique_ptr<Protocol> protocol_;

    PendingWrites pendingWrites_;
    DelayedOpCache delayedOps_;

    /**
     * A processor op waiting inside the manager, or the write fence's
     * drain. The manager keeps one such record in the queue of the wait
     * it parked on; run() resumes it from there.
     */
    struct ParkedOp {
        enum class Kind : std::uint8_t {
            Read, Write, Rmw, LostRmw, Fence,
            FenceRelease ///< releases the oldest write-fence group
        };
        /**
         * The waits an op can park on, in the order it meets them. An
         * op checks only the waits after the one it last parked on.
         */
        enum class Stage : std::uint8_t {
            Start,       ///< not parked yet
            Gate,        ///< behind an armed write fence (fenceGroups_)
            DelayedSlot, ///< delayed-op cache full
            PendingSlot, ///< pending-writes cache full
            Empty,       ///< pending-writes cache not empty
            Addr,        ///< a write to the word is in flight
        };

        Kind kind = Kind::Read;
        unsigned thread = 0;
        Vpn vpn = 0;
        Addr wordOffset = 0;
        PhysAddr phys{};
        /** The written value, or an interlocked op's operand. */
        Word value = 0;
        RmwOp op = RmwOp::Xchng;
        Stage stage = Stage::Start;
        /** An interlocked op's slot, once allocated. */
        DelayedOpHandle handle = 0;
    };

    /**
     * Take @p op as far as it can go. Returns its result if it finished
     * inside the call, nullopt if it parked (or sent a remote read).
     * A @p resumed op also reports its result through the completion
     * hook, and a resumed write or interlocked issue does so before it
     * dispatches: the thread's wake is scheduled first.
     */
    std::optional<Word> run(ParkedOp op, bool resumed);

    /** Report parked op @p thread's result through the hook. */
    void finish(unsigned thread, Word value);

    /**
     * A pending write retired: resume slot waiters (FIFO, until one
     * refills the cache), then empty waiters if the cache drained, then
     * address waiters whose word is clear.
     */
    void resumeAfterRetire();

    /**
     * Write-fence state: each procWriteFence() opens a group; writes,
     * interlocked issues and fences append to the newest group and are
     * released, group by group, as the preceding group's writes drain.
     */
    std::deque<std::vector<ParkedOp>> fenceGroups_;
    void armFenceDrain();
    void releaseFenceGroup();

    std::vector<ParkedOp> delayedSlotWaiters_;
    std::vector<ParkedOp> pendingSlotWaiters_;
    std::vector<ParkedOp> emptyWaiters_;
    std::vector<ParkedOp> addrWaiters_;
    /** Thread blocked in procVerify on each delayed-op slot. */
    std::vector<unsigned> verifyWaiters_;
    static constexpr unsigned kNoThread = ~0u;

    /** Blocked remote reads, in tag order. */
    TagTable<ReadTag, ReadWaiter> readWaiters_;
    ReadTag nextReadTag_ = 1;

    /** Register a blocked remote read under a fresh tag; returns it. */
    ReadTag addReadWaiter(ReadWaiter read);

    /**
     * (Re-)send the ReadReq of waiting read @p tag to @p phys; @p refetch
     * marks a write-invalidate re-fetch (ReadReq::refetch).
     */
    void sendRead(ReadTag tag, PhysAddr phys, bool refetch = false);

    /** Retire waiting read @p tag; returns its record. */
    ReadWaiter takeReadWaiter(ReadTag tag);

    /**
     * Complete @p read with @p value: revalidate what it re-fetched,
     * then report to its thread. Every path that ends a read waiter.
     */
    void finishRead(const ReadWaiter& read, Word value);

    Cycles busyUntil_ = 0;

    /**
     * Retry bookkeeping key for one nacked request: kind + its tag
     * namespace (read/write/op tags are independent counters).
     */
    static std::uint64_t
    nackKey(NackedKind kind, std::uint32_t tag)
    {
        return ((static_cast<std::uint64_t>(kind) + 1) << 32) | tag;
    }

    /**
     * Count one more retry of the request and return the extra backoff
     * delay; panics past 64 retries of one request. The first retry is
     * free of backoff so fault-free runs (where migration nacks a
     * request at most transiently) keep their exact seed timing.
     */
    Cycles noteNackRetry(NackedKind kind, std::uint32_t tag);

    /** Forget a request's retry count once it completes. */
    void
    clearNackRetries(NackedKind kind, std::uint32_t tag)
    {
        // Empty in fault-free steady state: one branch, no hashing.
        if (!nackRetries_.empty()) {
            nackRetries_.erase(nackKey(kind, tag));
        }
    }

    Translator translate_;
    SnoopHook snoop_;
    CompletionHook complete_;
    PageCopyDoneHandler pageCopyDone_;
    check::EventStream* events_ = nullptr;
    std::unordered_map<std::uint64_t, unsigned> nackRetries_;
    std::uint32_t chainCounter_ = 0;

    /**
     * Set by the first recovery walk. Before it every response must
     * match a live operation (a mismatch is a protocol bug); after it a
     * replay can race the original response, so mismatches are stale.
     */
    bool recovered_ = false;

    CmStats stats_;
};

} // namespace proto
} // namespace plus

#endif // PLUS_PROTO_COHERENCE_MANAGER_HPP_
