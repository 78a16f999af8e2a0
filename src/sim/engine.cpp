#include "sim/engine.hpp"

#include "common/log.hpp"
#include "common/panic.hpp"
#include "telemetry/prof.hpp"

namespace plus {
namespace sim {

Engine::Engine()
{
    Log::instance().setClock([this] { return now(); });
}

Engine::~Engine()
{
    Log::instance().setClock(nullptr);
}

EventId
Engine::scheduleImpl(Cycles when, Event&& fn, bool daemon)
{
    PLUS_ASSERT(fn, "scheduling a null event");
    PLUS_ASSERT(when >= now_, "scheduling into the past: ", when, " < ",
                now_);
    const std::uint32_t idx = slab_.allocate();
    EventRecord& rec = slab_[idx];
    rec.fn = std::move(fn);
    rec.when = when;
    rec.seq = nextSeq_++;
    rec.daemon = daemon;
    const EventId id =
        (static_cast<EventId>(rec.gen) << 32U) | static_cast<EventId>(idx);
    wheel_.insert(idx);
    ++pending_;
    if (daemon) {
        ++daemonPending_;
    }
    ++scheduledTotal_;
    return id;
}

bool
Engine::cancel(EventId id)
{
    if (id == kInvalidEvent) {
        return false;
    }
    const auto idx = static_cast<std::uint32_t>(id & 0xffffffffU);
    const auto gen = static_cast<std::uint32_t>(id >> 32U);
    if (gen == 0 || idx >= slab_.size()) {
        return false;
    }
    EventRecord& rec = slab_[idx];
    if (rec.gen != gen || rec.home >= EventRecord::kHomeFired) {
        return false; // fired or firing, already cancelled, or recycled
    }
    wheel_.remove(idx);
    if (rec.daemon) {
        --daemonPending_;
    }
    slab_.free(idx);
    --pending_;
    ++cancelledTotal_;
    return true;
}

bool
Engine::dispatchNext(Cycles limit)
{
    const std::uint32_t idx = wheel_.extractNext(limit);
    if (idx == kNilRecord) {
        return false;
    }
    EventRecord& rec = slab_[idx];
    if (rec.daemon) {
        --daemonPending_;
    }
    --pending_;
    now_ = rec.when;
    ++executed_;
    // Run the callable in place (slab records never move) and free the
    // record afterwards, even if the callable throws; cancel() of the
    // running id reports false.
    rec.home = EventRecord::kHomeFired;
    struct FreeOnExit {
        EventSlab& slab;
        std::uint32_t idx;
        ~FreeOnExit() { slab.free(idx); }
    } const freeOnExit{slab_, idx};
    rec.fn();
    return true;
}

void
Engine::run()
{
    runUntil(~Cycles{0});
}

void
Engine::runUntil(Cycles limit)
{
    stopping_ = false;
    const prof::RunTimer prof_run;
    const prof::ScopedPhase prof_scope(prof::Phase::EngineRun);
    // Daemon events execute interleaved with ordinary work but must not
    // keep the loop spinning on their own, so the exit check looks at
    // the ordinary count, not the raw queue.
    while (!stopping_ && pending_ > daemonPending_ &&
           dispatchNext(limit)) {
    }
}

bool
Engine::step()
{
    return dispatchNext(~Cycles{0});
}

std::size_t
Engine::pendingEvents() const
{
    return pending_ - daemonPending_;
}

EngineStats
Engine::stats() const
{
    EngineStats s;
    s.scheduled = scheduledTotal_;
    s.executed = executed_;
    s.cancelled = cancelledTotal_;
    s.cascades = wheel_.cascades();
    s.slabLive = slab_.live();
    s.slabHighWater = slab_.highWater();
    s.slabSlots = slab_.size();
    return s;
}

} // namespace sim
} // namespace plus
