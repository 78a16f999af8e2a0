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
#include "sim/event.hpp"

namespace plus {

namespace sim {
class Engine;
} // namespace sim

namespace net {
class Network;
} // namespace net

namespace proto {

class Protocol;

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
 * One node's coherence manager. All processor-side entry points take
 * continuations: the manager never blocks, it calls back when the
 * operation reaches the appropriate milestone.
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

    /**
     * Read one word. @p phys is the node's current translation of
     * (vpn, offset). Local reads only wait for conflicting pending
     * writes; remote reads issue a ReadReq. @p done receives the value.
     */
    void procRead(Vpn vpn, Addr word_offset, PhysAddr phys,
                  std::function<void(Word)> done);

    /**
     * Issue a write. @p accepted fires once the write occupies a
     * pending-writes entry (the processor may then continue); the write
     * completes asynchronously when the copy-list acknowledges.
     */
    void procWrite(Vpn vpn, Addr word_offset, PhysAddr phys, Word value,
                   std::function<void()> accepted);

    /**
     * Issue a delayed interlocked operation. @p issued fires with the
     * delayed-op handle once a cache slot is allocated and the request
     * is on its way (the processor may then continue).
     */
    void procIssueRmw(RmwOp op, Vpn vpn, Addr word_offset, PhysAddr phys,
                      Word operand,
                      std::function<void(DelayedOpHandle)> issued);

    /**
     * Degraded-mode interlocked issue against a *lost* page (every
     * copy died with a crashed node): a cache slot is still allocated,
     * so the issue/verify protocol is unchanged, but the operation
     * completes locally and immediately with kPageLostValue.
     */
    void procIssueLostRmw(RmwOp op,
                          std::function<void(DelayedOpHandle)> issued);

    /** Non-blocking poll of a delayed operation's status. */
    bool rmwReady(DelayedOpHandle handle) const;

    /**
     * Read a delayed operation's result: @p done fires with the value as
     * soon as it is available (immediately if it already is) and the
     * cache slot is freed.
     */
    void procVerify(DelayedOpHandle handle, std::function<void(Word)> done);

    /** Fence: @p done fires when the pending-writes cache is empty. */
    void procFence(std::function<void()> done);

    /**
     * The paper's write fence: "causes the coherence manager to block
     * any subsequent write by the processor until all its earlier ones
     * have completed" — the processor itself continues immediately and
     * may keep reading/computing; only later writes and interlocked
     * operations are held behind the drain.
     */
    void procWriteFence();

    /** True if a write by this node to the location is still in flight. */
    bool
    writePending(Vpn vpn, Addr word_offset) const
    {
        return pendingWrites_.pendingOn(vpn, word_offset);
    }

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
     * Machine-lane entry point run by core::RecoveryManager once @p dead
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
    void onPacket(net::Packet packet);

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
     * a sim::Event so the continuation rides inline in the engine's
     * event record — handlers move message ownership straight into the
     * capture instead of copying the message struct.
     */
    void enqueue(Cycles occupancy, sim::Event work);

    /** Send a protocol message, sized and counted. */
    void send(NodeId dst, std::unique_ptr<ProtoMsg> msg, unsigned bytes);

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
                       std::vector<WordWrite> writes, NodeId originator,
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
    void issueRmwUngated(RmwOp op, Vpn vpn, Addr word_offset,
                         PhysAddr phys, Word operand,
                         std::function<void(DelayedOpHandle)> issued);
    void dispatchRmw(RmwOp op, Vpn vpn, Addr word_offset, PhysAddr phys,
                     Word operand, DelayedOpHandle handle, WriteTag tag);
    void rmwAtMaster(RmwOp op, Vpn vpn, FrameId frame, Addr word_offset,
                     Word operand, NodeId originator, OpTag op_tag,
                     WriteTag write_tag);
    void completeRmw(OpTag tag, Word old_value);

    // Message handlers. Handlers that defer work behind the manager's
    // occupancy own their message and move it into the continuation;
    // the synchronous responses only borrow theirs.
    void onReadReq(std::unique_ptr<ReadReq> msg);
    void onReadResp(const ReadResp& msg);
    void onWriteReq(std::unique_ptr<WriteReq> msg);
    void onUpdateReq(std::unique_ptr<UpdateReq> msg);
    void onWriteAck(const WriteAck& msg);
    void onRmwReq(std::unique_ptr<RmwReq> msg);
    void onRmwResp(const RmwResp& msg);
    void onNack(std::unique_ptr<Nack> msg);
    /** True if the nacked operation is still in flight. */
    bool nackTargetLive(const Nack& nack) const;
    /** Complete a nacked operation on a lost page with the sentinel. */
    void completeNackedAsLost(const Nack& nack);
    void onPageCopyData(std::unique_ptr<PageCopyData> msg, NodeId src);
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
     * Hold @p fn until no write fence is armed (immediately if none);
     * entry point for writes and interlocked issues.
     */
    void gateBehindFence(std::function<void()> fn);

    /** An outstanding remote read: ReadReq sent, response pending. */
    struct ReadWaiter {
        Vpn vpn = 0;
        Addr wordOffset = 0;
        /** Node the request was last sent to. */
        NodeId dst = kInvalidNode;
        std::function<void(Word)> done;
    };

    /** Blocked remote reads, by tag. */
    std::unordered_map<ReadTag, ReadWaiter> readWaiters_;
    ReadTag nextReadTag_ = 1;

    /**
     * (Re-)send the ReadReq of waiting read @p tag to @p phys; @p refetch
     * marks a write-invalidate re-fetch (ReadReq::refetch).
     */
    void sendRead(ReadTag tag, PhysAddr phys, bool refetch = false);

    /** Retire waiting read @p tag; returns its continuation. */
    std::function<void(Word)> takeReadWaiter(ReadTag tag);

    /**
     * Write-fence state: each procWriteFence() opens a group; writes
     * and interlocked issues append to the newest group and are
     * released, group by group, as the preceding group's writes drain.
     */
    std::deque<std::vector<std::function<void()>>> fenceGroups_;
    void armFenceDrain();
    void releaseFenceGroup();

    /** Local-read continuations use PendingWrites address waiters. */

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
