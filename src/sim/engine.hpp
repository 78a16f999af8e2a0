/**
 * @file
 * Discrete-event simulation engine.
 *
 * The whole PLUS machine is simulated by an event loop. Components
 * schedule closures at future cycles; events due the same cycle run in
 * the order their schedule calls were made (see sim::EventKey), so runs
 * are fully deterministic: dispatch order is the total `(when, seq)`
 * order.
 *
 * Internally events live in a slab of reusable records (no per-event
 * heap allocation: the callable is a `sim::Event` with inline capture
 * storage, run in place) ordered by a one-level calendar of one-cycle
 * slots and a heap for far events — O(1) schedule, cancel and dispatch
 * for the short delays that dominate the simulation. test_engine checks
 * it against a `(when, seq)` priority-queue reference (docs/PERF.md).
 */

#ifndef PLUS_SIM_ENGINE_HPP_
#define PLUS_SIM_ENGINE_HPP_

#include <cstdint>
#include <utility>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "sim/event.hpp"
#include "sim/event_slab.hpp"
#include "sim/timing_wheel.hpp"

namespace plus {
namespace sim {

/**
 * Handle identifying a scheduled event, usable for cancellation.
 * Encodes (generation << 32 | slab slot); stale handles — including
 * those of events that already fired — are rejected in O(1).
 */
using EventId = std::uint64_t;

/** Sentinel meaning "no event". */
inline constexpr EventId kInvalidEvent = 0;

/** Read only by perfbench/; delete when it may change (ROADMAP item 6). */
enum class EngineImpl { Wheel, Heap };

/** Counters describing engine health (exported as sim.* metrics). */
struct EngineStats {
    std::uint64_t scheduled = 0;    ///< events ever scheduled
    std::uint64_t executed = 0;     ///< events dispatched
    std::uint64_t cancelled = 0;    ///< successful cancel() calls
    std::uint64_t cascades = 0;     ///< far events refiled into slots
    std::size_t slabLive = 0;       ///< records currently allocated
    std::size_t slabHighWater = 0;  ///< peak simultaneous records
    std::size_t slabSlots = 0;      ///< slab capacity (bounded by peak)
};

/** EngineStats exported as sim.* counters and gauges. */
inline constexpr StatRow<EngineStats> kEngineStatRows[] = {
    {"sim.eventsScheduled", &EngineStats::scheduled},
    {"sim.eventsExecuted", &EngineStats::executed},
    {"sim.eventsCancelled", &EngineStats::cancelled},
    {"sim.wheelCascades", &EngineStats::cascades},
};
inline constexpr StatRow<EngineStats, std::size_t> kEngineGaugeRows[] = {
    {"sim.slabHighWater", &EngineStats::slabHighWater},
    {"sim.slabSlots", &EngineStats::slabSlots},
};

/** The event loop: a time-ordered queue of closures. */
class Engine
{
  public:
    Engine();
    ~Engine();

    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    /** Current simulated time in cycles. */
    Cycles now() const { return now_; }

    /** Schedule @p fn to run @p delay cycles from now. */
    EventId
    schedule(Cycles delay, Event fn)
    {
        return scheduleImpl(now_ + delay, std::move(fn), false);
    }

    /** Schedule @p fn at absolute cycle @p when (must be >= now). */
    EventId
    scheduleAt(Cycles when, Event fn)
    {
        return scheduleImpl(when, std::move(fn), false);
    }

    /**
     * Schedule a daemon event (cf. Unix daemon threads): it executes
     * like any other event while ordinary work remains, but does not
     * keep the loop alive — run()/runUntil() return once only daemon
     * events are pending, without executing them or advancing now().
     * For periodic observers (the forward-progress watchdog) that must
     * never stretch a run to their own next deadline. Excluded from
     * pendingEvents(); cancel() works normally.
     */
    EventId
    scheduleDaemon(Cycles delay, Event fn)
    {
        return scheduleImpl(now_ + delay, std::move(fn), true);
    }

    /**
     * Cancel a previously scheduled event.
     * @return true if the event was pending and is now cancelled;
     *         false for invalid ids and events that already fired.
     */
    bool cancel(EventId id);

    /** Run until the queue is empty or stop() is called. */
    void run();

    /**
     * Run until simulated time would exceed @p limit; events at exactly
     * @p limit still execute. now() stays at the last executed event's
     * time (it does not fast-forward to the limit).
     */
    void runUntil(Cycles limit);

    /** Execute at most one event. @return false if the queue was empty. */
    bool step();

    /** Request that run() return after the current event. */
    void stop() { stopping_ = true; }

    /**
     * Number of ordinary events pending (exact; cancelled events leave,
     * daemon events never count — they represent no work of their own).
     */
    std::size_t pendingEvents() const;

    /** Total events executed since construction. */
    std::uint64_t executedEvents() const { return executed_; }

    EngineImpl impl() const { return EngineImpl::Wheel; }

    /** Engine health counters for telemetry. */
    EngineStats stats() const;

  private:
    EventId scheduleImpl(Cycles when, Event&& fn, bool daemon);
    bool dispatchNext(Cycles limit);

    EventSlab slab_;
    TimingWheel wheel_{slab_};
    Cycles now_ = 0;
    std::uint64_t nextSeq_ = 0; ///< EventKey::seq of the next schedule
    std::uint64_t executed_ = 0;
    std::uint64_t scheduledTotal_ = 0;
    std::uint64_t cancelledTotal_ = 0;
    std::size_t pending_ = 0;
    std::size_t daemonPending_ = 0;
    bool stopping_ = false;
};

} // namespace sim
} // namespace plus

#endif // PLUS_SIM_ENGINE_HPP_
