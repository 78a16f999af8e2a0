#include "sim/timing_wheel.hpp"

#include <algorithm>
#include <bit>

#include "common/panic.hpp"

namespace plus {
namespace sim {

namespace {

/** Heap comparator: std::*_heap keeps the EventKey minimum at [0]. */
constexpr auto kFarLater = [](const auto& a, const auto& b) {
    return b.key < a.key;
};

} // namespace

TimingWheel::TimingWheel(EventSlab& slab) : slab_(slab)
{
    std::fill(std::begin(heads_), std::end(heads_), kNilRecord);
    std::fill(std::begin(tails_), std::end(tails_), kNilRecord);
}

void
TimingWheel::insert(std::uint32_t idx)
{
    EventRecord& rec = slab_[idx];
    PLUS_ASSERT(rec.when >= base_, "event at cycle ", rec.when,
                " filed behind the calendar base ", base_);
    if (rec.when - base_ < kSlots) {
        append(idx, static_cast<unsigned>(rec.when % kSlots));
        return;
    }
    rec.home = EventRecord::kHomeFar;
    far_.push_back(FarEntry{rec.key(), idx, rec.gen});
    std::push_heap(far_.begin(), far_.end(), kFarLater);
}

void
TimingWheel::append(std::uint32_t idx, unsigned slot)
{
    // Records reach a slot in seq order (file comment), so appending
    // keeps it sorted for head-first dispatch.
    EventRecord& rec = slab_[idx];
    rec.home = static_cast<std::uint16_t>(slot);
    rec.next = kNilRecord;
    rec.prev = tails_[slot];
    if (rec.prev == kNilRecord) {
        heads_[slot] = idx;
        occupied_[slot / 64] |= std::uint64_t{1} << (slot % 64);
    } else {
        PLUS_ASSERT(slab_[rec.prev].seq < rec.seq,
                    "calendar slot filed out of seq order at cycle ",
                    rec.when);
        slab_[rec.prev].next = idx;
    }
    tails_[slot] = idx;
}

void
TimingWheel::remove(std::uint32_t idx)
{
    const EventRecord& rec = slab_[idx];
    if (rec.home == EventRecord::kHomeFar) {
        // Lazy: the heap entry goes stale and is dropped when it
        // surfaces (the caller frees the record, bumping its generation).
        return;
    }
    PLUS_ASSERT(rec.home < kSlots, "removing unfiled record ", idx);
    const unsigned slot = rec.home;
    if (rec.prev != kNilRecord) {
        slab_[rec.prev].next = rec.next;
    } else {
        heads_[slot] = rec.next;
    }
    if (rec.next != kNilRecord) {
        slab_[rec.next].prev = rec.prev;
    } else {
        tails_[slot] = rec.prev;
    }
    if (heads_[slot] == kNilRecord) {
        occupied_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    }
}

unsigned
TimingWheel::nextOffset() const
{
    // Scan the bitmap from base's slot round the ring; the last pass
    // revisits the first word for the slots below base's.
    const auto start = static_cast<unsigned>(base_ % kSlots);
    const std::uint64_t atOrAfter = ~std::uint64_t{0} << (start % 64);
    for (unsigned i = 0; i <= kWords; ++i) {
        const unsigned word = (start / 64 + i) % kWords;
        std::uint64_t bits = occupied_[word];
        if (i == 0) {
            bits &= atOrAfter;
        } else if (i == kWords) {
            bits &= ~atOrAfter;
        }
        if (bits != 0) {
            const unsigned slot =
                word * 64 + static_cast<unsigned>(std::countr_zero(bits));
            return (slot - start) % kSlots;
        }
    }
    return kSlots;
}

TimingWheel::FarEntry
TimingWheel::popFar()
{
    const FarEntry top = far_.front();
    std::pop_heap(far_.begin(), far_.end(), kFarLater);
    far_.pop_back();
    return top;
}

void
TimingWheel::advance(Cycles base)
{
    base_ = base;
    while (!far_.empty() && far_.front().key.when - base_ < kSlots) {
        const FarEntry top = popFar();
        if (slab_[top.idx].gen == top.gen) { // else cancelled
            append(top.idx, static_cast<unsigned>(top.key.when % kSlots));
            ++cascades_;
        }
    }
}

std::uint32_t
TimingWheel::extractNext(Cycles limit)
{
    const unsigned offset = nextOffset();
    Cycles when = base_ + offset;
    if (offset == kSlots) {
        // The window is empty: the next event is the earliest live far
        // entry (every far entry is due at or after base + kSlots); a
        // cancelled one's record has moved on to a new generation.
        while (!far_.empty() &&
               slab_[far_.front().idx].gen != far_.front().gen) {
            popFar();
        }
        if (far_.empty()) {
            return kNilRecord;
        }
        when = far_.front().key.when;
    }
    if (when > limit) {
        return kNilRecord;
    }
    if (when != base_) {
        advance(when);
    }
    const std::uint32_t idx = heads_[when % kSlots];
    remove(idx);
    return idx;
}

} // namespace sim
} // namespace plus
