/**
 * @file
 * Protocol-invariant checker: validates, on every instrumented event,
 * the ordering rules PLUS's correctness rests on (PAPER.md Sections 2.3
 * and 3.1):
 *
 *  - every write takes effect at the master copy before any replica;
 *  - a chain's effects walk the copy-list in order, with no skipped and
 *    no twice-updated copies;
 *  - a pending-write entry retires exactly once, and only after the last
 *    copy in the list acknowledged (or, for an interlocked operation with
 *    no memory effect, immediately);
 *  - a processor's read of a location with an in-flight write by the same
 *    processor is served only after that write completes;
 *  - a blocking fence completes only on an empty pending-writes cache.
 *
 * Any violation panics (PanicError) with the recent event history.
 *
 * Copy-list mutations by the OS (replication, deletion, migration) are
 * legal while chains are in flight; the checker tracks a generation
 * counter per page and relaxes the strict order check — but never the
 * master-first, no-duplicate or retire-once checks — for chains that
 * overlap a mutation.
 *
 * The checker is parameterized by the coherence protocol (setProtocol).
 * The chain-traversal invariants above hold under both protocols (an
 * invalidation chain walks the copy-list exactly like an update chain).
 * Under write-invalidate the checker additionally shadows per-copy word
 * validity from the WordInvalidated/WordRevalidated events and
 * enforces: no read is ever served from an invalidated word of a copy
 * (no-stale-read), and a chain stop at a non-master copy invalidates
 * rather than applies a value (single-writer: only the master holds
 * written data until re-fetched). Under write-update the invalidate-only
 * events themselves are violations — that protocol never invalidates.
 */

#ifndef PLUS_CHECK_INVARIANT_CHECKER_HPP_
#define PLUS_CHECK_INVARIANT_CHECKER_HPP_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "check/event.hpp"
#include "common/config.hpp"
#include "common/tag_table.hpp"
#include "common/types.hpp"

namespace plus {

namespace mem {
class CopyList;
} // namespace mem

namespace check {

/** Checks the protocol ordering invariants; see file comment. */
class InvariantChecker
{
  public:
    using Tag = std::uint32_t;

    /** Resolve a page's current copy-list (null if the page is gone). */
    using CopyListResolver =
        std::function<const mem::CopyList*(Vpn)>;

    explicit InvariantChecker(const EventRing* history);

    void setCopyListResolver(CopyListResolver resolver)
    {
        resolve_ = std::move(resolver);
    }

    /** Select the invariant set to enforce (default: write-update). */
    void setProtocol(CoherenceProtocol mode) { mode_ = mode; }

    CoherenceProtocol protocol() const { return mode_; }

    /** The OS mutated the copy-list of @p vpn (splice, reorder, ...). */
    void copyListChanged(Vpn vpn);

    // --- recovery epochs --------------------------------------------------

    /** Node @p node fail-stop crashed (machine context, crash cycle). */
    void nodeCrashed(NodeId node);

    /**
     * Crash recovery for @p dead completed and its epoch @p epoch
     * sealed: from here on, processing any message it sent is fatal
     * (the crashed-source invariant, checked by messageProcessed).
     */
    void epochSealed(NodeId dead, std::uint64_t epoch);

    /** Recovery epochs sealed so far (0 = no crash recovered yet). */
    std::uint64_t epoch() const { return epoch_; }

    // --- event entry points (dispatched by check::Checker) ----------------

    void pendingInsert(NodeId node, Tag tag, Vpn vpn, Addr word_offset);
    void writeIssued(NodeId node, Tag tag, Vpn vpn, Addr word_offset,
                     bool from_rmw);
    void pendingComplete(NodeId node, Tag tag);
    void pendingAborted(NodeId node, Tag tag, bool retried);
    void messageProcessed(NodeId src, NodeId dst, std::uint8_t msg_class);
    void chainApplied(ChainId chain, PhysPage copy, Vpn vpn,
                      Addr word_offset, unsigned words, NodeId originator,
                      Tag tag, bool tracked, bool at_master);
    void fenceComplete(NodeId node, bool pending_empty);
    void readServed(NodeId node, Vpn vpn, Addr word_offset);
    void wordInvalidated(NodeId node, Vpn vpn, Addr word_offset);
    void wordRevalidated(NodeId node, Vpn vpn, Addr word_offset);
    void localValueServed(NodeId node, Vpn vpn, Addr word_offset);

    // --- diagnostics ------------------------------------------------------

    /** Pending-write entries retired so far. */
    std::uint64_t writesRetired() const { return retired_; }

    /** Chains whose full list walk was verified. */
    std::uint64_t chainsCompleted() const { return chainsCompleted_; }

    /** Entries currently in flight across all nodes (checker view). */
    std::uint64_t writesInFlight() const;

  private:
    struct Entry {
        Vpn vpn = 0;
        Addr wordOffset = 0;
        bool fromRmw = false;
        ChainId chain = 0;
        bool chainDone = false;
        /**
         * Crash recovery touched this entry (force-retire of a lost
         * page, or abort-and-retry against a repaired copy-list); the
         * retire-order check is relaxed for it, never retire-once.
         */
        bool aborted = false;
    };

    struct Chain {
        Vpn vpn = 0;
        NodeId originator = kInvalidNode;
        Tag tag = 0;
        bool tracked = false;
        /**
         * The chain belongs to (or overlaps) a crash-recovery epoch:
         * its originator's pending entry may retire before the walk
         * finishes, so an ownerless tail is tolerated.
         */
        bool orphaned = false;
        PhysPage head; ///< the master copy it started at
        PhysPage lastCopy;
        std::uint64_t genAtStart = 0;
        /** Copies after the head (empty for a chain that stops there). */
        std::vector<PhysPage> visited;
    };

    [[noreturn]] void violation(const std::string& message) const
    {
        check::violation(*history_, message);
    }

    std::uint64_t generation(Vpn vpn) const;
    /** Node @p node's in-flight entry with @p tag, or null. */
    Entry* findEntry(NodeId node, Tag tag);
    /** The open chain @p chain, or null. */
    Chain* findChain(ChainId chain);
    /** @pre chain was opened (its master's table exists). */
    void eraseChain(ChainId chain);
    /** True if the shadow state has @p word_offset invalid there. */
    bool wordInvalid(NodeId node, Vpn vpn, Addr word_offset) const;
    const mem::CopyList* listOf(Vpn vpn) const;

    const EventRing* history_;
    CopyListResolver resolve_;

    // Tables keyed by node or page are vectors indexed by that dense id,
    // grown on demand.

    /**
     * In-flight pending-write entries, per node, in tag order (a
     * violation names the lowest matching tag).
     */
    std::vector<TagTable<Tag, Entry>> entries_;
    /**
     * Open propagation chains, per master node, by the low half of the
     * chain id (node << 32 | count).
     */
    std::vector<TagTable<std::uint32_t, Chain>> chains_;
    /** Copy-list mutation counters per page. */
    std::vector<std::uint64_t> generations_;

    CoherenceProtocol mode_ = CoherenceProtocol::WriteUpdate;
    /**
     * Write-invalidate shadow validity: word offsets currently invalid
     * at each node's copy of each page, maintained purely from the
     * WordInvalidated/WordRevalidated events (never from the copy's
     * memory, so a protocol bug cannot hide from the check).
     */
    std::vector<std::unordered_map<Vpn, std::unordered_set<Addr>>>
        invalidWords_;

    /** Nodes reported fail-stop crashed (nodeCrashed). */
    std::vector<bool> crashedNodes_;
    /** Crashed nodes whose recovery epoch sealed (see epochSealed). */
    std::vector<bool> sealedNodes_;
    std::uint64_t epoch_ = 0;

    std::uint64_t retired_ = 0;
    std::uint64_t chainsCompleted_ = 0;
};

} // namespace check
} // namespace plus

#endif // PLUS_CHECK_INVARIANT_CHECKER_HPP_
