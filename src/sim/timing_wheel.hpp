/**
 * @file
 * Hierarchical timing wheel over the event slab.
 *
 * Eleven levels of 64 slots cover the full 64-bit cycle space. An
 * event due at `when` is filed at the level of the highest bit block
 * in which `when` differs from the wheel cursor (level 0 when equal),
 * in slot `(when >> 6*level) & 63` — so short delays (link hops,
 * cache latencies, CM service times) go straight into the near wheel
 * and insertion, cancellation and dispatch are all O(1). When the
 * cursor reaches a higher-level slot its whole list cascades down in
 * order; see docs/PERF.md for the determinism argument. All events
 * with equal `when` always share one slot, filed in schedule-call
 * order; since EventKey::seq grows with every schedule, each level-0
 * slot list is already in (when, seq) order and insertion is an O(1)
 * append, so dispatch realises the total (when, seq) order.
 *
 * One wrinkle keeps `runUntil()` honest: probing for "is the next
 * event past the limit" may legitimately advance the cursor beyond
 * `Engine::now()` (the cursor tracks dispatch *lower bounds*, not
 * executed time). An event subsequently scheduled between now and the
 * cursor would be mis-filed, so such events are parked in a tiny
 * (when, seq)-ordered pre-cursor heap that is always drained first.
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
    static constexpr unsigned kSlotBits = 6;
    static constexpr unsigned kSlots = 1U << kSlotBits;       // 64
    static constexpr unsigned kLevels =
        (64 + kSlotBits - 1) / kSlotBits;                     // 11

    explicit TimingWheel(EventSlab& slab);

    /** File record @p idx by its EventKey (sets home + links). */
    void insert(std::uint32_t idx);

    /** Unlink record @p idx (O(1); pre-cursor entries go stale lazily). */
    void remove(std::uint32_t idx);

    /**
     * Unlink and return the next record in EventKey order whose due
     * cycle is <= @p limit, cascading higher levels as the cursor
     * advances; kNilRecord when none qualifies. The cursor never
     * advances past @p limit.
     */
    std::uint32_t extractNext(Cycles limit);

    Cycles cursor() const { return cursor_; }

    /** Higher-level slot lists redistributed so far. */
    std::uint64_t cascades() const { return cascades_; }

  private:
    struct PreEntry {
        EventKey key;
        std::uint32_t idx;
        std::uint32_t gen;
    };

    static unsigned levelOf(Cycles when, Cycles cursor);
    unsigned cursorSlot(unsigned level) const;
    Cycles lowerBound(unsigned level, unsigned slot) const;

    void fileAt(std::uint32_t idx, Cycles when);
    void unlink(std::uint32_t idx, unsigned home);
    std::uint32_t popPre(Cycles limit);

    EventSlab& slab_;
    std::uint32_t heads_[kLevels * kSlots];
    std::uint32_t tails_[kLevels * kSlots];
    std::uint64_t pending_[kLevels] = {};  ///< occupied-slot bitmap per level
    std::uint32_t levelMask_ = 0;          ///< non-empty levels
    Cycles cursor_ = 0;
    std::uint64_t cascades_ = 0;
    /** Min-heap on EventKey of events filed below the cursor. */
    std::vector<PreEntry> pre_;
};

} // namespace sim
} // namespace plus

#endif // PLUS_SIM_TIMING_WHEEL_HPP_
