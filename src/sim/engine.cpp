#include "sim/engine.hpp"

#include "common/log.hpp"
#include "common/panic.hpp"
#include "telemetry/prof.hpp"

namespace plus {
namespace sim {

Engine::Engine(EngineImpl impl) : impl_(impl)
{
    Log::instance().setClock([this] { return now(); });
}

Engine::~Engine()
{
    Log::instance().setClock(nullptr);
}

void
Engine::configure(unsigned nodes)
{
    PLUS_ASSERT(pending_ == 0 && executed_ == 0,
                "configure() must precede any scheduling");
    PLUS_ASSERT(nodes < kMachineLane, "too many node lanes: ", nodes);
    nodes_ = nodes;
    initStep_.assign(nodes_, 0);
    execStep_.assign(nodes_, 0);
}

std::uint64_t
Engine::makeKey2()
{
    SchedCtx& c = ctx_;
    if (c.node == kMachineLane) {
        PLUS_ASSERT(machineSeq_ != 0xffffffffU,
                    "machine-context key space exhausted");
        return (std::uint64_t{kMachineLane} << 48U) |
               (std::uint64_t{machineSeq_++} << 16U);
    }
    if (c.init) {
        // withNodeContext() seeding: a persistent per-node counter in
        // the step field; child 0xffff keeps the space disjoint from
        // executed-event children.
        return (std::uint64_t{c.node} << 48U) |
               (std::uint64_t{initStep_[c.node]++} << 16U) | 0xffffU;
    }
    PLUS_ASSERT(c.child != 0xffffU,
                "event scheduled too many children for its key space");
    return (std::uint64_t{c.node} << 48U) |
           (std::uint64_t{c.step} << 16U) | c.child++;
}

EventId
Engine::scheduleForNode(NodeId node, Cycles delay, Event fn)
{
    if (nodes_ == 0) {
        // Unconfigured engine (unit tests driving one subsystem
        // directly): a single machine lane serialises everything.
        return scheduleImpl(now_ + delay, std::move(fn), false,
                            kMachineLane);
    }
    PLUS_ASSERT(node < nodes_, "scheduleForNode(", node,
                ") outside configured lanes (", nodes_, ")");
    return scheduleImpl(now_ + delay, std::move(fn), false,
                        static_cast<std::uint16_t>(node));
}

void
Engine::scheduleMachine(Cycles delay, Event fn)
{
    scheduleImpl(now_ + delay, std::move(fn), false, kMachineLane);
}

EventId
Engine::scheduleDaemon(Cycles delay, Event fn)
{
    PLUS_ASSERT(ctx_.node == kMachineLane,
                "daemon events are machine-lane only");
    return scheduleImpl(now_ + delay, std::move(fn), true, kMachineLane);
}

EventId
Engine::scheduleImpl(Cycles when, Event fn, bool daemon,
                     std::uint16_t lane)
{
    PLUS_ASSERT(fn, "scheduling a null event");
    PLUS_ASSERT(when >= now_, "scheduling into the past: ", when, " < ",
                now_);
    const std::uint32_t idx = slab_.allocate();
    EventRecord& rec = slab_[idx];
    rec.fn = std::move(fn);
    rec.when = when;
    rec.schedWhen = now_;
    rec.key2 = makeKey2();
    rec.lane = lane;
    rec.daemon = daemon;
    const EventId id =
        (static_cast<EventId>(rec.gen) << 32U) | static_cast<EventId>(idx);
    if (impl_ == EngineImpl::Heap) {
        rec.home = EventRecord::kHomeHeap;
        heap_.push(HeapEntry{rec.key(), idx, rec.gen});
    } else {
        wheel_.insert(idx);
    }
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
    if (rec.gen != gen || rec.home == EventRecord::kHomeFree) {
        return false; // already fired, already cancelled, or recycled
    }
    if (impl_ != EngineImpl::Heap) {
        wheel_.remove(idx);
    }
    // Heap backend: the HeapEntry goes stale and is skipped on pop
    // (the generation bump below invalidates it).
    if (rec.daemon) {
        --daemonPending_;
    }
    slab_.free(idx);
    --pending_;
    ++cancelledTotal_;
    return true;
}

std::uint32_t
Engine::nextFromHeap(Cycles limit)
{
    while (!heap_.empty()) {
        const HeapEntry top = heap_.top();
        const EventRecord& rec = slab_[top.idx];
        if (rec.gen != top.gen || rec.home != EventRecord::kHomeHeap) {
            heap_.pop(); // cancelled; the record was already recycled
            continue;
        }
        if (top.key.when > limit) {
            return kNilRecord;
        }
        heap_.pop();
        return top.idx;
    }
    return kNilRecord;
}

void
Engine::enterEventContext(const EventRecord& rec)
{
    ctx_.node = rec.lane;
    ctx_.child = 0;
    ctx_.init = false;
    if (rec.lane != kMachineLane) {
        ctx_.step = ++execStep_[rec.lane];
    }
}

bool
Engine::dispatchNext(Cycles limit)
{
    const std::uint32_t idx = impl_ == EngineImpl::Heap
                                  ? nextFromHeap(limit)
                                  : wheel_.extractNext(limit);
    if (idx == kNilRecord) {
        return false;
    }
    EventRecord& rec = slab_[idx];
    const Cycles when = rec.when;
    Event fn = std::move(rec.fn);
    if (rec.daemon) {
        --daemonPending_;
    }
    enterEventContext(rec);
    // Free before invoking: the callback may reschedule into this very
    // slot, and cancel() of the now-fired id must report false.
    slab_.free(idx);
    --pending_;
    now_ = when;
    ++executed_;
    fn();
    ctx_.node = kMachineLane;
    ctx_.init = false;
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
