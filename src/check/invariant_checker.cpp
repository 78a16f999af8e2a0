#include "check/invariant_checker.hpp"

#include <algorithm>

#include "common/determinism.hpp"
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
    return vpn < generations_.size() ? generations_[vpn] : 0;
}

InvariantChecker::Entry*
InvariantChecker::findEntry(NodeId node, Tag tag)
{
    if (node >= entries_.size()) {
        return nullptr;
    }
    return entries_[node].find(tag);
}

InvariantChecker::Chain*
InvariantChecker::findChain(ChainId chain)
{
    const ChainId node = chain >> 32;
    return node < chains_.size()
               ? chains_[node].find(static_cast<std::uint32_t>(chain))
               : nullptr;
}

void
InvariantChecker::eraseChain(ChainId chain)
{
    chains_[chain >> 32].erase(static_cast<std::uint32_t>(chain));
}

bool
InvariantChecker::wordInvalid(NodeId node, Vpn vpn, Addr word_offset) const
{
    if (node >= invalidWords_.size()) {
        return false;
    }
    auto it = invalidWords_[node].find(vpn);
    return it != invalidWords_[node].end() && it->second.count(word_offset);
}

const mem::CopyList*
InvariantChecker::listOf(Vpn vpn) const
{
    return resolve_ ? resolve_(vpn) : nullptr;
}

void
InvariantChecker::copyListChanged(Vpn vpn)
{
    denseSlot(generations_, vpn) += 1;
}

void
InvariantChecker::nodeCrashed(NodeId node)
{
    denseSlot(crashedNodes_, node) = true;
}

void
InvariantChecker::epochSealed(NodeId dead, std::uint64_t epoch)
{
    if (dead >= crashedNodes_.size() || !crashedNodes_[dead]) {
        violation(concat("recovery epoch ", epoch, " sealed for n", dead,
                         " which never crashed"));
    }
    denseSlot(sealedNodes_, dead) = true;
    epoch_ = epoch;

    // Write off the dead node's own protocol state: its pending entries
    // can never retire (acks to it are dropped), and chains it
    // originated may finish their walk with no owner. Purging here is
    // what lets survivors reach writesInFlight() == 0 after recovery.
    if (dead < entries_.size()) {
        entries_[dead].clear();
    }
    for (auto& chains : chains_) {
        for (auto& [id, chain] : chains) {
            if (chain.originator == dead) {
                chain.orphaned = true;
            }
        }
    }
}

void
InvariantChecker::messageProcessed(NodeId src, NodeId dst,
                                   std::uint8_t msg_class)
{
    if (src < sealedNodes_.size() && sealedNodes_[src]) {
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
    for (const auto& entries : entries_) {
        total += entries.size();
    }
    return total;
}

void
InvariantChecker::pendingInsert(NodeId node, Tag tag, Vpn vpn,
                                Addr word_offset)
{
    if (!denseSlot(entries_, node).insert(
            tag, Entry{vpn, word_offset, false, 0, false})) {
        violation(concat("node ", node, " re-used in-flight write tag ",
                         tag));
    }
}

void
InvariantChecker::writeIssued(NodeId node, Tag tag, Vpn vpn,
                              Addr word_offset, bool from_rmw)
{
    Entry* entry = findEntry(node, tag);
    if (!entry) {
        violation(concat("node ", node, " issued write tag ", tag,
                         " without a pending-writes entry"));
    }
    if (entry->vpn != vpn || entry->wordOffset != word_offset) {
        violation(concat("node ", node, " write tag ", tag,
                         " issued for a different address than its "
                         "pending-writes entry"));
    }
    entry->fromRmw = from_rmw;
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
            Entry* entry = findEntry(c.originator, c.tag);
            if (!entry) {
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
                entry->chainDone = true;
            }
        }
        ++chainsCompleted_;
    };

    if (at_master) {
        if (findChain(chain)) {
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
        c.head = copy;
        if (tracked) {
            Entry* entry = findEntry(originator, tag);
            if (!entry) {
                violation(concat("tracked chain ", chain,
                                 " started for n", originator, " tag ", tag,
                                 " with no pending-writes entry"));
            }
            if (entry->chain != 0) {
                violation(concat("pending entry n", originator, " tag ",
                                 tag, " re-used by a second chain"));
            }
            entry->chain = chain;
            // A re-dispatched (crash-aborted) write may race the old
            // chain's acknowledgement; its new chain tolerates an
            // ownerless tail.
            c.orphaned = entry->aborted;
        }
        const bool tail = !list->successorOf(copy).has_value();
        if (tail) {
            markTail(c);
            if (!tracked) {
                return; // fully verified; nothing retires it later
            }
        }
        denseSlot(chains_, chain >> 32)
            .insert(static_cast<std::uint32_t>(chain), std::move(c));
        return;
    }

    Chain* cp = findChain(chain);
    if (!cp) {
        violation(concat("chain ", chain, " applied its effects at replica ",
                         toString(copy), " of page ", vpn,
                         " before (or without) the master copy"));
    }
    Chain& c = *cp;
    if (c.vpn != vpn) {
        violation(concat("chain ", chain, " crossed from page ", c.vpn,
                         " to page ", vpn));
    }
    if (copy == c.head || std::ranges::find(c.visited, copy) !=
                              c.visited.end()) {
        violation(concat("chain ", chain, " applied twice at copy ",
                         toString(copy)));
    }
    if (mode_ == CoherenceProtocol::WriteInvalidate) {
        // Single-writer: a chain stop at a non-master copy must have
        // invalidated its words (WordInvalidated precedes this event),
        // never applied the written values.
        if (!wordInvalid(copy.node, vpn, word_offset)) {
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
            eraseChain(chain);
        }
    }
}

void
InvariantChecker::pendingAborted(NodeId node, Tag tag, bool retried)
{
    Entry* entry = findEntry(node, tag);
    if (!entry) {
        violation(concat("recovery aborted write tag ", tag, " on n", node,
                         " which is not in flight"));
    }
    if (entry->chain != 0) {
        // The old chain may still be walking surviving copies; let it
        // finish without an owner instead of violating at its tail.
        if (Chain* c = findChain(entry->chain)) {
            c->orphaned = true;
        }
    }
    entry->aborted = true;
    if (retried) {
        entry->chain = 0;
        entry->chainDone = false;
    }
}

void
InvariantChecker::pendingComplete(NodeId node, Tag tag)
{
    const Entry* found = findEntry(node, tag);
    if (!found) {
        violation(concat("node ", node, " retired write tag ", tag,
                         " which is not in flight (double retire?)"));
    }
    const Entry entry = *found;
    if (entry.aborted) {
        // Crash recovery touched this entry: it retires on whichever
        // acknowledgement (old chain's or re-dispatched chain's)
        // arrives first. A chain still in flight dies tolerantly at
        // its own tail; retire-once stays fully enforced.
        if (entry.chain != 0 && entry.chainDone) {
            eraseChain(entry.chain);
        } else if (entry.chain != 0) {
            if (Chain* c = findChain(entry.chain)) {
                c->orphaned = true;
            }
        }
        entries_[node].erase(tag);
        ++retired_;
        return;
    }
    if (entry.chain != 0) {
        if (!entry.chainDone) {
            const Chain* c = findChain(entry.chain);
            const bool relaxed =
                c && c->genAtStart != generation(entry.vpn);
            if (!relaxed) {
                violation(concat("node ", node, " retired write tag ", tag,
                                 " before the last copy of page ",
                                 entry.vpn, " acknowledged"));
            }
        }
        eraseChain(entry.chain);
    } else if (!entry.fromRmw && mode_ != CoherenceProtocol::WriteInvalidate) {
        // Write-invalidate legally retires chainless: a write whose words
        // are already invalidated at every copy skips the chain entirely.
        violation(concat("node ", node, " retired write tag ", tag,
                         " which never took effect at the master copy"));
    }
    entries_[node].erase(tag);
    ++retired_;
}

void
InvariantChecker::fenceComplete(NodeId node, bool pending_empty)
{
    if (!pending_empty) {
        violation(concat("fence completed on n", node,
                         " with a non-empty pending-writes cache"));
    }
    if (node < entries_.size() && !entries_[node].empty()) {
        violation(concat("fence completed on n", node, " with ",
                         entries_[node].size(),
                         " write(s) still unretired (checker view)"));
    }
}

void
InvariantChecker::readServed(NodeId node, Vpn vpn, Addr word_offset)
{
    if (node >= entries_.size()) {
        return;
    }
    for (const auto& [tag, entry] : entries_[node]) {
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
    denseSlot(invalidWords_, node)[vpn].insert(word_offset);
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
    if (node < invalidWords_.size()) {
        auto it = invalidWords_[node].find(vpn);
        if (it != invalidWords_[node].end()) {
            it->second.erase(word_offset);
        }
    }
}

void
InvariantChecker::localValueServed(NodeId node, Vpn vpn, Addr word_offset)
{
    if (mode_ != CoherenceProtocol::WriteInvalidate) {
        return; // write-update never invalidates: every local serve is legal
    }
    if (wordInvalid(node, vpn, word_offset)) {
        violation(concat("stale read: n", node, " served page ", vpn,
                         " word ", word_offset,
                         " from its own copy while the word is invalidated"));
    }
}

} // namespace check
} // namespace plus
