#include "sim/timing_wheel.hpp"

#include <algorithm>
#include <bit>

#include "common/panic.hpp"

namespace plus {
namespace sim {

namespace {

/** Heap comparator: std::*_heap keeps the EventKey minimum at [0]. */
constexpr auto kPreLater = [](const auto& a, const auto& b) {
    return b.key < a.key;
};

} // namespace

TimingWheel::TimingWheel(EventSlab& slab) : slab_(slab)
{
    std::fill(std::begin(heads_), std::end(heads_), kNilRecord);
    std::fill(std::begin(tails_), std::end(tails_), kNilRecord);
}

unsigned
TimingWheel::levelOf(Cycles when, Cycles cursor)
{
    const Cycles differing = when ^ cursor;
    if (differing == 0) {
        return 0;
    }
    return static_cast<unsigned>(std::bit_width(differing) - 1) / kSlotBits;
}

unsigned
TimingWheel::cursorSlot(unsigned level) const
{
    return static_cast<unsigned>(cursor_ >> (kSlotBits * level)) &
           (kSlots - 1);
}

Cycles
TimingWheel::lowerBound(unsigned level, unsigned slot) const
{
    const unsigned aboveBits = kSlotBits * (level + 1);
    const Cycles base =
        aboveBits >= 64 ? 0 : (cursor_ >> aboveBits) << aboveBits;
    return base | (static_cast<Cycles>(slot) << (kSlotBits * level));
}

void
TimingWheel::insert(std::uint32_t idx)
{
    EventRecord& rec = slab_[idx];
    if (rec.when < cursor_) {
        // runUntil() probing advanced the cursor past now(); park the
        // event in the pre-cursor heap (always drained before the
        // wheel, so global EventKey order is preserved).
        rec.home = EventRecord::kHomePre;
        pre_.push_back(PreEntry{rec.key(), idx, rec.gen});
        std::push_heap(pre_.begin(), pre_.end(), kPreLater);
        return;
    }
    fileAt(idx, rec.when);
}

void
TimingWheel::fileAt(std::uint32_t idx, Cycles when)
{
    EventRecord& rec = slab_[idx];
    const unsigned level = levelOf(when, cursor_);
    const unsigned slot =
        static_cast<unsigned>(when >> (kSlotBits * level)) & (kSlots - 1);
    const unsigned home = level * kSlots + slot;

    rec.home = static_cast<std::uint16_t>(home);
    // Higher levels are unordered staging: the cascade refiles each list
    // in order. A level-0 slot holds exactly one timestamp, and every
    // event due then arrives in seq order (new schedules carry the
    // largest seq; a cascade refiles its whole group in order), so the
    // append keeps the slot sorted for head-first dispatch.
    rec.next = kNilRecord;
    rec.prev = tails_[home];
    if (rec.prev == kNilRecord) {
        heads_[home] = idx;
        pending_[level] |= Cycles{1} << slot;
        levelMask_ |= 1U << level;
    } else {
        PLUS_ASSERT(level > 0 || slab_[rec.prev].seq < rec.seq,
                    "level-0 slot filed out of seq order at cycle ", when);
        slab_[rec.prev].next = idx;
    }
    tails_[home] = idx;
}

void
TimingWheel::unlink(std::uint32_t idx, unsigned home)
{
    EventRecord& rec = slab_[idx];
    if (rec.prev != kNilRecord) {
        slab_[rec.prev].next = rec.next;
    } else {
        heads_[home] = rec.next;
    }
    if (rec.next != kNilRecord) {
        slab_[rec.next].prev = rec.prev;
    } else {
        tails_[home] = rec.prev;
    }
    if (heads_[home] == kNilRecord) {
        const unsigned level = home / kSlots;
        pending_[level] &= ~(Cycles{1} << (home % kSlots));
        if (pending_[level] == 0) {
            levelMask_ &= ~(1U << level);
        }
    }
}

void
TimingWheel::remove(std::uint32_t idx)
{
    const EventRecord& rec = slab_[idx];
    if (rec.home == EventRecord::kHomePre) {
        // Lazy: the heap entry goes stale and is skipped on pop (the
        // caller frees the record, which bumps its generation).
        return;
    }
    PLUS_ASSERT(rec.home < kLevels * kSlots, "removing unfiled record ",
                idx);
    unlink(idx, rec.home);
}

std::uint32_t
TimingWheel::popPre(Cycles limit)
{
    while (!pre_.empty()) {
        const PreEntry top = pre_.front();
        const EventRecord& rec = slab_[top.idx];
        const bool stale =
            rec.gen != top.gen || rec.home != EventRecord::kHomePre;
        if (!stale && top.key.when > limit) {
            return kNilRecord;
        }
        std::pop_heap(pre_.begin(), pre_.end(), kPreLater);
        pre_.pop_back();
        if (!stale) {
            return top.idx;
        }
    }
    return kNilRecord;
}

std::uint32_t
TimingWheel::extractNext(Cycles limit)
{
    // Events below the cursor strictly precede everything on the
    // wheel (pre.when < cursor_ <= wheel lower bounds).
    if (!pre_.empty()) {
        const std::uint32_t idx = popPre(limit);
        if (idx != kNilRecord) {
            return idx;
        }
        if (!pre_.empty()) {
            return kNilRecord; // valid pre entry beyond the limit
        }
    }

    for (;;) {
        int bestLevel = -1;
        Cycles bestLb = 0;
        for (std::uint32_t mask = levelMask_; mask != 0;
             mask &= mask - 1) {
            const unsigned level =
                static_cast<unsigned>(std::countr_zero(mask));
            // Invariant: every occupied slot sits at or after the
            // cursor's position within its level, so the mask below
            // never erases the whole bitmap.
            const std::uint64_t ahead =
                pending_[level] & (~std::uint64_t{0} << cursorSlot(level));
            PLUS_ASSERT(ahead != 0, "wheel slot behind cursor at level ",
                        level);
            const unsigned slot =
                static_cast<unsigned>(std::countr_zero(ahead));
            const Cycles lb = lowerBound(level, slot);
            if (bestLevel < 0 || lb < bestLb) {
                bestLevel = static_cast<int>(level);
                bestLb = lb;
            }
        }
        if (bestLevel < 0 || bestLb > limit) {
            return kNilRecord; // empty, or next event past the limit
        }

        cursor_ = bestLb;
        const unsigned level = static_cast<unsigned>(bestLevel);
        const unsigned home =
            level * kSlots +
            (static_cast<unsigned>(bestLb >> (kSlotBits * level)) &
             (kSlots - 1));
        if (level == 0) {
            // Level-0 slots hold exactly one timestamp; pop the head.
            const std::uint32_t idx = heads_[home];
            unlink(idx, home);
            return idx;
        }

        // Cascade: refile the whole slot list (in order) now that the
        // cursor entered its window; everything lands strictly lower.
        ++cascades_;
        std::uint32_t idx = heads_[home];
        heads_[home] = kNilRecord;
        tails_[home] = kNilRecord;
        pending_[level] &= ~(Cycles{1} << (home % kSlots));
        if (pending_[level] == 0) {
            levelMask_ &= ~(1U << level);
        }
        while (idx != kNilRecord) {
            const std::uint32_t next = slab_[idx].next;
            fileAt(idx, slab_[idx].when);
            idx = next;
        }
    }
}

} // namespace sim
} // namespace plus
