#include "check/invariant_checker.hpp"

#include <algorithm>

#include "common/panic.hpp"
#include "mem/copy_list.hpp"

namespace plus {
namespace check {

namespace {

using detail::concat;

} // namespace

InvariantChecker::InvariantChecker(const EventRing* history)
    : history_(history)
{
    PLUS_ASSERT(history_, "invariant checker needs an event history");
}

std::uint64_t
InvariantChecker::generation(Vpn vpn) const
{
    auto it = generations_.find(vpn);
    return it == generations_.end() ? 0 : it->second;
}

const mem::CopyList*
InvariantChecker::listOf(Vpn vpn) const
{
    return resolve_ ? resolve_(vpn) : nullptr;
}

void
InvariantChecker::copyListChanged(Vpn vpn)
{
    generations_[vpn] += 1;
}

void
InvariantChecker::nodeCrashed(NodeId node)
{
    crashedNodes_.insert(node);
}

void
InvariantChecker::epochSealed(NodeId dead, std::uint64_t epoch)
{
    if (crashedNodes_.find(dead) == crashedNodes_.end()) {
        violation(concat("recovery epoch ", epoch, " sealed for n", dead,
                         " which never crashed"));
    }
    sealedNodes_.insert(dead);
    epoch_ = epoch;

    // Write off the dead node's own protocol state: its pending entries
    // can never retire (acks to it are dropped), and chains it
    // originated may finish their walk with no owner. Purging here is
    // what lets survivors reach writesInFlight() == 0 after recovery.
    auto it = entries_.find(dead);
    if (it != entries_.end()) {
        entries_.erase(it);
    }
    // pluslint: allow(R1) -- order-independent flagging; every chain is
    // visited exactly once and the flag writes commute.
    for (auto& [id, chain] : chains_) {
        if (chain.originator == dead) {
            chain.orphaned = true;
        }
    }
}

void
InvariantChecker::messageProcessed(NodeId src, NodeId dst,
                                   std::uint8_t msg_class)
{
    if (!sealedNodes_.empty() &&
        sealedNodes_.find(src) != sealedNodes_.end()) {
        violation(concat("n", dst, " processed a message of class ",
                         static_cast<unsigned>(msg_class),
                         " from crashed node n", src,
                         " after its recovery epoch sealed"));
    }
}

std::uint64_t
InvariantChecker::writesInFlight() const
{
    std::uint64_t total = 0;
    // pluslint: allow(R1) -- commutative sum; the visit order cannot
    // reach the total.
    for (const auto& [node, entries] : entries_) {
        (void)node;
        total += entries.size();
    }
    return total;
}

void
InvariantChecker::pendingInsert(NodeId node, Tag tag, Vpn vpn,
                                Addr word_offset)
{
    auto [it, inserted] = entries_[node].emplace(
        tag, Entry{vpn, word_offset, false, 0, false});
    (void)it;
    if (!inserted) {
        violation(concat("node ", node, " re-used in-flight write tag ",
                         tag));
    }
}

void
InvariantChecker::writeIssued(NodeId node, Tag tag, Vpn vpn,
                              Addr word_offset, bool from_rmw)
{
    auto nit = entries_.find(node);
    auto it = nit == entries_.end() ? decltype(nit->second.begin()){}
                                    : nit->second.find(tag);
    if (nit == entries_.end() || it == nit->second.end()) {
        violation(concat("node ", node, " issued write tag ", tag,
                         " without a pending-writes entry"));
    }
    if (it->second.vpn != vpn || it->second.wordOffset != word_offset) {
        violation(concat("node ", node, " write tag ", tag,
                         " issued for a different address than its "
                         "pending-writes entry"));
    }
    it->second.fromRmw = from_rmw;
}

void
InvariantChecker::chainApplied(ChainId chain, PhysPage copy, Vpn vpn,
                               Addr word_offset, unsigned words,
                               NodeId originator, Tag tag, bool tracked,
                               bool at_master)
{
    (void)word_offset;
    (void)words;
    const mem::CopyList* list = listOf(vpn);
    const std::uint64_t gen = generation(vpn);

    auto markTail = [&](Chain& c) {
        if (c.tracked) {
            auto nit = entries_.find(c.originator);
            auto eit = nit == entries_.end()
                           ? decltype(nit->second.end()){}
                           : nit->second.find(c.tag);
            if (nit == entries_.end() || eit == nit->second.end()) {
                // An orphaned chain's entry legally retired early: its
                // write was aborted by crash recovery and completed by
                // whichever acknowledgement arrived first.
                if (!c.orphaned) {
                    violation(concat("chain ", chain,
                                     " reached the copy-list tail but its "
                                     "originator n", c.originator,
                                     " holds no pending entry with tag ",
                                     c.tag));
                }
            } else {
                eit->second.chainDone = true;
            }
        }
        ++chainsCompleted_;
    };

    if (at_master) {
        if (chains_.count(chain)) {
            violation(concat("chain ", chain,
                             " applied at the master copy twice"));
        }
        if (!list || list->empty()) {
            violation(concat("chain ", chain, " applied on page ", vpn,
                             " which has no copy-list"));
        }
        if (!(list->master() == copy)) {
            violation(concat("write took effect at ", toString(copy),
                             " as chain head, but the master copy of page ",
                             vpn, " is ", toString(list->master())));
        }
        Chain c;
        c.vpn = vpn;
        c.originator = originator;
        c.tag = tag;
        c.tracked = tracked;
        c.lastCopy = copy;
        c.genAtStart = gen;
        c.visited.push_back(copy);
        if (tracked) {
            auto nit = entries_.find(originator);
            auto eit = nit == entries_.end() ? decltype(nit->second.end()){}
                                             : nit->second.find(tag);
            if (nit == entries_.end() || eit == nit->second.end()) {
                violation(concat("tracked chain ", chain,
                                 " started for n", originator, " tag ", tag,
                                 " with no pending-writes entry"));
            }
            if (eit->second.chain != 0) {
                violation(concat("pending entry n", originator, " tag ",
                                 tag, " re-used by a second chain"));
            }
            eit->second.chain = chain;
            // A re-dispatched (crash-aborted) write may race the old
            // chain's acknowledgement; its new chain tolerates an
            // ownerless tail.
            c.orphaned = eit->second.aborted;
        }
        const bool tail = !list->successorOf(copy).has_value();
        if (tail) {
            markTail(c);
            if (!tracked) {
                return; // fully verified; nothing retires it later
            }
        }
        chains_.emplace(chain, std::move(c));
        return;
    }

    auto cit = chains_.find(chain);
    if (cit == chains_.end()) {
        violation(concat("chain ", chain, " applied its effects at replica ",
                         toString(copy), " of page ", vpn,
                         " before (or without) the master copy"));
    }
    Chain& c = cit->second;
    if (c.vpn != vpn) {
        violation(concat("chain ", chain, " crossed from page ", c.vpn,
                         " to page ", vpn));
    }
    if (std::find(c.visited.begin(), c.visited.end(), copy) !=
        c.visited.end()) {
        violation(concat("chain ", chain, " applied twice at copy ",
                         toString(copy)));
    }
    if (mode_ == CoherenceProtocol::WriteInvalidate) {
        // Single-writer: a chain stop at a non-master copy must have
        // invalidated its words (WordInvalidated precedes this event),
        // never applied the written values.
        auto nit = invalidWords_.find(copy.node);
        auto vit = nit == invalidWords_.end() ? decltype(nit->second.end()){}
                                              : nit->second.find(vpn);
        if (nit == invalidWords_.end() || vit == nit->second.end() ||
            vit->second.find(word_offset) == vit->second.end()) {
            violation(concat("write-invalidate chain ", chain,
                             " stopped at non-master copy ", toString(copy),
                             " of page ", vpn, " without invalidating word ",
                             word_offset,
                             " (values may only be applied at the master)"));
        }
    }
    // Strict list-order checking only while the list is unchanged since
    // the chain started; an OS splice mid-flight legally re-routes it.
    const bool strict = list != nullptr && c.genAtStart == gen;
    if (strict) {
        const auto expected = list->successorOf(c.lastCopy);
        if (!expected) {
            violation(concat("chain ", chain, " applied at ",
                             toString(copy),
                             " past the tail of the copy-list of page ",
                             vpn));
        }
        if (!(*expected == copy)) {
            violation(concat("copy-list propagation of chain ", chain,
                             " on page ", vpn, " skipped: expected ",
                             toString(*expected), " after ",
                             toString(c.lastCopy), " but got ",
                             toString(copy)));
        }
    }
    c.lastCopy = copy;
    c.visited.push_back(copy);
    const bool tail = list == nullptr ||
                      !list->successorOf(copy).has_value();
    if (tail) {
        markTail(c);
        if ((!c.tracked && strict) || c.orphaned) {
            chains_.erase(cit);
        }
    }
}

void
InvariantChecker::pendingAborted(NodeId node, Tag tag, bool retried)
{
    auto nit = entries_.find(node);
    auto it = nit == entries_.end() ? decltype(nit->second.begin()){}
                                    : nit->second.find(tag);
    if (nit == entries_.end() || it == nit->second.end()) {
        violation(concat("recovery aborted write tag ", tag, " on n", node,
                         " which is not in flight"));
    }
    Entry& entry = it->second;
    if (entry.chain != 0) {
        // The old chain may still be walking surviving copies; let it
        // finish without an owner instead of violating at its tail.
        auto cit = chains_.find(entry.chain);
        if (cit != chains_.end()) {
            cit->second.orphaned = true;
        }
    }
    entry.aborted = true;
    if (retried) {
        entry.chain = 0;
        entry.chainDone = false;
    }
    ++aborted_;
}

void
InvariantChecker::pendingComplete(NodeId node, Tag tag)
{
    auto nit = entries_.find(node);
    auto it = nit == entries_.end() ? decltype(nit->second.begin()){}
                                    : nit->second.find(tag);
    if (nit == entries_.end() || it == nit->second.end()) {
        violation(concat("node ", node, " retired write tag ", tag,
                         " which is not in flight (double retire?)"));
    }
    const Entry entry = it->second;
    if (entry.aborted) {
        // Crash recovery touched this entry: it retires on whichever
        // acknowledgement (old chain's or re-dispatched chain's)
        // arrives first. A chain still in flight dies tolerantly at
        // its own tail; retire-once stays fully enforced.
        if (entry.chain != 0 && entry.chainDone) {
            chains_.erase(entry.chain);
        } else if (entry.chain != 0) {
            auto cit = chains_.find(entry.chain);
            if (cit != chains_.end()) {
                cit->second.orphaned = true;
            }
        }
        nit->second.erase(it);
        ++retired_;
        return;
    }
    if (entry.chain != 0) {
        if (!entry.chainDone) {
            const auto cit = chains_.find(entry.chain);
            const bool relaxed =
                cit != chains_.end() &&
                cit->second.genAtStart != generation(entry.vpn);
            if (!relaxed) {
                violation(concat("node ", node, " retired write tag ", tag,
                                 " before the last copy of page ",
                                 entry.vpn, " acknowledged"));
            }
        }
        chains_.erase(entry.chain);
    } else if (!entry.fromRmw && mode_ != CoherenceProtocol::WriteInvalidate) {
        // Write-invalidate legally retires chainless: a write whose words
        // are already invalidated at every copy skips the chain entirely.
        violation(concat("node ", node, " retired write tag ", tag,
                         " which never took effect at the master copy"));
    }
    nit->second.erase(it);
    ++retired_;
}

void
InvariantChecker::fenceComplete(NodeId node, bool pending_empty)
{
    if (!pending_empty) {
        violation(concat("fence completed on n", node,
                         " with a non-empty pending-writes cache"));
    }
    auto nit = entries_.find(node);
    if (nit != entries_.end() && !nit->second.empty()) {
        violation(concat("fence completed on n", node, " with ",
                         nit->second.size(),
                         " write(s) still unretired (checker view)"));
    }
}

void
InvariantChecker::readServed(NodeId node, Vpn vpn, Addr word_offset)
{
    auto nit = entries_.find(node);
    if (nit == entries_.end()) {
        return;
    }
    for (const auto& [tag, entry] : nit->second) {
        if (entry.vpn == vpn && entry.wordOffset == word_offset) {
            violation(concat("read on n", node, " of page ", vpn,
                             " word ", word_offset,
                             " served while its own write (tag ", tag,
                             ") is still in flight"));
        }
    }
}

void
InvariantChecker::wordInvalidated(NodeId node, Vpn vpn, Addr word_offset)
{
    if (mode_ == CoherenceProtocol::WriteUpdate) {
        violation(concat("word invalidation reported for page ", vpn,
                         " word ", word_offset, " at n", node,
                         " under write-update, which never invalidates"));
    }
    invalidWords_[node][vpn].insert(word_offset);
}

void
InvariantChecker::wordRevalidated(NodeId node, Vpn vpn, Addr word_offset)
{
    if (mode_ == CoherenceProtocol::WriteUpdate) {
        violation(concat("word revalidation reported for page ", vpn,
                         " word ", word_offset, " at n", node,
                         " under write-update, which never invalidates"));
    }
    // Idempotent: concurrent re-fetches of the same word each revalidate.
    auto nit = invalidWords_.find(node);
    if (nit != invalidWords_.end()) {
        auto vit = nit->second.find(vpn);
        if (vit != nit->second.end()) {
            vit->second.erase(word_offset);
        }
    }
}

void
InvariantChecker::localValueServed(NodeId node, Vpn vpn, Addr word_offset)
{
    if (mode_ != CoherenceProtocol::WriteInvalidate) {
        return; // write-update never invalidates: every local serve is legal
    }
    auto nit = invalidWords_.find(node);
    if (nit == invalidWords_.end()) {
        return;
    }
    auto vit = nit->second.find(vpn);
    if (vit != nit->second.end() &&
        vit->second.find(word_offset) != vit->second.end()) {
        violation(concat("stale read: n", node, " served page ", vpn,
                         " word ", word_offset,
                         " from its own copy while the word is invalidated"));
    }
}

} // namespace check
} // namespace plus
