/**
 * @file
 * Forward-progress watchdog for the event loop.
 *
 * Hangs in a discrete-event simulator are silent: the engine happily
 * dispatches retransmit timers or polling events forever while the
 * workload makes no progress. The watchdog turns that into a diagnosis:
 * armed with a progress counter (core::Machine supplies packets
 * delivered + processor operations retired), it checks once per window
 * that the counter moved. A full window with no progress while other
 * events are still pending means livelock or deadlock — the watchdog
 * panics, and the panic decorator appends the running machine's
 * dossier (engine state, network counters, recent telemetry).
 *
 * Disarmed (the default and the state after stop()), the watchdog
 * schedules nothing at all, so it cannot perturb event order or
 * timing — the same cannot-observe-cannot-disturb contract as the
 * event-stream sinks. While armed its check events do execute, but they
 * only read counters; they never touch protocol state. Checks are
 * daemon events (Engine::scheduleDaemon), so an armed watchdog never
 * keeps an otherwise-finished run alive: once its check is all that
 * remains, run()/runUntil() return without executing it.
 */

#ifndef PLUS_SIM_WATCHDOG_HPP_
#define PLUS_SIM_WATCHDOG_HPP_

#include <cstdint>
#include <functional>

#include "common/types.hpp"
#include "sim/engine.hpp"

namespace plus {
namespace sim {

/** Panics when a progress counter stalls for a full window. */
class Watchdog
{
  public:
    /** Monotone counter of useful work (any unit; only deltas matter). */
    using ProgressFn = std::function<std::uint64_t()>;

    Watchdog(Engine& engine, Cycles window, ProgressFn progress);

    Watchdog(const Watchdog&) = delete;
    Watchdog& operator=(const Watchdog&) = delete;

    ~Watchdog() { cancelNow(); }

    /** Schedule the first check, one window from now (re-arm allowed). */
    void arm();

    /**
     * Request quiet. Safe from any context: the pending check fires
     * once more as a no-op and disarms itself. Kept that way (rather
     * than cancelling outright) because the extra dispatch is part of
     * the event order the goldens record.
     */
    void stop();

    /**
     * Cancel the pending check immediately. Machine context only (the
     * Machine calls it once a run has returned, and on teardown).
     */
    void cancelNow();

    bool armed() const { return pending_ != kInvalidEvent; }

    /** Windows that ended with no progress but pending work (so far). */
    std::uint64_t stallWindows() const { return stallWindows_; }

  private:
    void check();

    Engine& engine_;
    Cycles window_;
    ProgressFn progress_;
    EventId pending_ = kInvalidEvent;
    bool stopRequested_ = false;
    std::uint64_t lastProgress_ = 0;
    std::uint64_t stallWindows_ = 0;
};

} // namespace sim
} // namespace plus

#endif // PLUS_SIM_WATCHDOG_HPP_
