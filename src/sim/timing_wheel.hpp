/**
 * @file
 * One-level event calendar over the event slab (a single-level timing
 * wheel with a far heap; Brown's calendar queue, CACM 31(10), 1988).
 *
 * The window is `[base, base + kSlots)`, where `base` is the due cycle
 * of the last record extractNext() returned, i.e. Engine::now(). An
 * event due inside the window is appended to the list of slot
 * `when % kSlots`, which inside the window holds exactly one timestamp;
 * later events wait in a (when, seq) min-heap. Whenever `base` advances,
 * every heap entry the window now covers is refiled into its slot, in
 * heap order, before anything can be filed into that slot directly.
 * EventKey::seq grows with every schedule, so each slot list is in
 * (when, seq) order and filing is an O(1) append: dispatch realises the
 * total (when, seq) order with no sorting. `base` never passes now(),
 * so every schedule lands at or after it. docs/PERF.md has the delay
 * distribution that sizes kSlots.
 */

#ifndef PLUS_SIM_TIMING_WHEEL_HPP_
#define PLUS_SIM_TIMING_WHEEL_HPP_

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "sim/event_slab.hpp"

namespace plus {
namespace sim {

/** Time-ordered container of slab records; the Engine's event queue. */
class TimingWheel
{
  public:
    /** Window length in cycles (one cycle per slot). */
    static constexpr unsigned kSlots = 1024;

    explicit TimingWheel(EventSlab& slab);

    /** File record @p idx by its EventKey. @pre its when >= base */
    void insert(std::uint32_t idx);

    /** Unlink record @p idx (O(1); far-heap entries go stale lazily). */
    void remove(std::uint32_t idx);

    /**
     * Unlink and return the next record in EventKey order whose due
     * cycle is <= @p limit, moving the window's base to its cycle;
     * kNilRecord (base unmoved) when none qualifies.
     */
    std::uint32_t extractNext(Cycles limit);

    /** Far-heap entries refiled into the window so far. */
    std::uint64_t cascades() const { return cascades_; }

  private:
    static constexpr unsigned kWords = kSlots / 64;

    struct FarEntry {
        EventKey key;
        std::uint32_t idx;
        std::uint32_t gen;
    };

    /** Cycles from base to the first occupied slot; kSlots if none. */
    unsigned nextOffset() const;
    void append(std::uint32_t idx, unsigned slot);
    FarEntry popFar();
    /** Move base to @p base and refile the far entries it uncovers. */
    void advance(Cycles base);

    EventSlab& slab_;
    std::uint32_t heads_[kSlots];
    std::uint32_t tails_[kSlots];
    std::uint64_t occupied_[kWords] = {}; ///< non-empty slot bitmap
    Cycles base_ = 0;
    std::uint64_t cascades_ = 0;
    /** Min-heap on EventKey of events due at or after base + kSlots. */
    std::vector<FarEntry> far_;
};

} // namespace sim
} // namespace plus

#endif // PLUS_SIM_TIMING_WHEEL_HPP_
