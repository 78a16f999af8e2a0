#include "sim/watchdog.hpp"

#include "common/panic.hpp"

namespace plus {
namespace sim {

Watchdog::Watchdog(Engine& engine, Cycles window, ProgressFn progress)
    : engine_(engine), window_(window), progress_(std::move(progress))
{
    PLUS_ASSERT(window_ > 0, "watchdog window must be positive");
    PLUS_ASSERT(progress_, "watchdog needs a progress counter");
}

void
Watchdog::arm()
{
    cancelNow();
    lastProgress_ = progress_();
    pending_ = engine_.scheduleDaemon(window_, [this] { check(); });
}

void
Watchdog::stop()
{
    if (pending_ != kInvalidEvent) {
        stopRequested_ = true;
    }
}

void
Watchdog::cancelNow()
{
    if (pending_ != kInvalidEvent) {
        engine_.cancel(pending_);
        pending_ = kInvalidEvent;
    }
    stopRequested_ = false;
}

void
Watchdog::check()
{
    pending_ = kInvalidEvent;
    if (stopRequested_) {
        stopRequested_ = false;
        return; // stop() arrived since the last check; go quiet
    }
    const std::uint64_t current = progress_();
    if (current == lastProgress_) {
        if (engine_.pendingEvents() == 0) {
            // The run drained on its own; nothing to watch any more.
            return;
        }
        // A full window of dispatched events with zero useful work:
        // livelock or deadlock. Diagnose instead of hanging.
        stallWindows_ += 1;
        PLUS_PANIC("watchdog: no forward progress in ", window_,
                   " cycles (now ", engine_.now(), ", ",
                   engine_.pendingEvents(), " events pending)");
    }
    lastProgress_ = current;
    if (engine_.pendingEvents() == 0) {
        // Nothing left to watch; stay quiet until re-armed.
        return;
    }
    pending_ = engine_.scheduleDaemon(window_, [this] { check(); });
}

} // namespace sim
} // namespace plus
