/**
 * @file
 * Unit tests for the discrete-event engine: ordering, determinism,
 * cancellation, and time-limit semantics.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "common/panic.hpp"
#include "sim/engine.hpp"

namespace plus {
namespace sim {
namespace {

TEST(Engine, StartsAtCycleZero)
{
    Engine engine;
    EXPECT_EQ(engine.now(), 0u);
    EXPECT_EQ(engine.pendingEvents(), 0u);
}

TEST(Engine, RunsEventsInTimeOrder)
{
    Engine engine;
    std::vector<int> order;
    engine.schedule(30, [&] { order.push_back(3); });
    engine.schedule(10, [&] { order.push_back(1); });
    engine.schedule(20, [&] { order.push_back(2); });
    engine.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(engine.now(), 30u);
}

TEST(Engine, TiesBreakInScheduleOrder)
{
    Engine engine;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        engine.schedule(5, [&order, i] { order.push_back(i); });
    }
    engine.run();
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(order[i], i);
    }
}

TEST(Engine, NowAdvancesToEventTime)
{
    Engine engine;
    Cycles seen = 0;
    engine.schedule(42, [&] { seen = engine.now(); });
    engine.run();
    EXPECT_EQ(seen, 42u);
}

TEST(Engine, EventsCanReschedule)
{
    Engine engine;
    int fired = 0;
    std::function<void()> tick = [&] {
        ++fired;
        if (fired < 5) {
            engine.schedule(10, tick);
        }
    };
    engine.schedule(10, tick);
    engine.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(engine.now(), 50u);
}

TEST(Engine, CancelPreventsExecution)
{
    Engine engine;
    bool ran = false;
    const EventId id = engine.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(engine.cancel(id));
    engine.run();
    EXPECT_FALSE(ran);
}

TEST(Engine, CancelTwiceReturnsFalse)
{
    Engine engine;
    const EventId id = engine.schedule(10, [] {});
    EXPECT_TRUE(engine.cancel(id));
    EXPECT_FALSE(engine.cancel(id));
}

TEST(Engine, CancelUnknownIdReturnsFalse)
{
    Engine engine;
    EXPECT_FALSE(engine.cancel(kInvalidEvent));
    EXPECT_FALSE(engine.cancel(9999));
}

TEST(Engine, RunUntilStopsAtLimit)
{
    Engine engine;
    std::vector<Cycles> fired;
    engine.schedule(10, [&] { fired.push_back(10); });
    engine.schedule(20, [&] { fired.push_back(20); });
    engine.schedule(30, [&] { fired.push_back(30); });
    engine.runUntil(20);
    EXPECT_EQ(fired, (std::vector<Cycles>{10, 20}));
    EXPECT_EQ(engine.now(), 20u);
    engine.run();
    EXPECT_EQ(fired.size(), 3u);
}

TEST(Engine, RunUntilKeepsTimeAtLastEvent)
{
    Engine engine;
    engine.schedule(5, [] {});
    engine.runUntil(100);
    EXPECT_EQ(engine.now(), 5u);
}

TEST(Engine, StopHaltsTheLoop)
{
    Engine engine;
    int fired = 0;
    engine.schedule(10, [&] {
        ++fired;
        engine.stop();
    });
    engine.schedule(20, [&] { ++fired; });
    engine.run();
    EXPECT_EQ(fired, 1);
    engine.run();
    EXPECT_EQ(fired, 2);
}

TEST(Engine, StepExecutesExactlyOneEvent)
{
    Engine engine;
    int fired = 0;
    engine.schedule(1, [&] { ++fired; });
    engine.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(engine.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(engine.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(engine.step());
}

TEST(Engine, SchedulingInThePastPanics)
{
    Engine engine;
    engine.schedule(10, [&] {
        EXPECT_THROW(engine.scheduleAt(5, [] {}), PanicError);
    });
    engine.run();
}

TEST(Engine, CountsExecutedEvents)
{
    Engine engine;
    for (int i = 0; i < 7; ++i) {
        engine.schedule(i, [] {});
    }
    engine.run();
    EXPECT_EQ(engine.executedEvents(), 7u);
}

TEST(Engine, PendingExcludesCancelled)
{
    Engine engine;
    engine.schedule(1, [] {});
    const EventId id = engine.schedule(2, [] {});
    EXPECT_EQ(engine.pendingEvents(), 2u);
    engine.cancel(id);
    EXPECT_EQ(engine.pendingEvents(), 1u);
}

TEST(Engine, TiesFromDifferentEventsRunInScheduleCallOrder)
{
    // Two events stand for work on node 3 and node 1 in the same cycle,
    // node 3's first. Each sends a message due the same later cycle. The
    // messages run in the order they were sent, whatever the node ids.
    Engine engine;
    std::vector<int> order;
    for (const int node : {3, 1}) {
        engine.schedule(5, [&engine, &order, node] {
            engine.schedule(7, [&order, node] { order.push_back(node); });
        });
    }
    engine.run();
    EXPECT_EQ(order, (std::vector<int>{3, 1}));
    EXPECT_EQ(engine.now(), 12u);
}

TEST(Engine, RandomScheduleCancelIsDeterministic)
{
    // Property: two engines fed the same pseudo-random schedule/cancel
    // stream execute the same events in the same order; and leaving one
    // event (with the children it would schedule) out of the stream
    // keeps the relative order of all the others.
    // Delays, children and cancel targets derive from each event's own
    // tag, never from a shared stream, so the left-out event changes
    // nothing else.
    auto mix = [](std::uint64_t x) {
        x = (x ^ (x >> 30U)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27U)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31U);
    };
    constexpr int kEvents = 200;
    constexpr int kChild = 1000; // a child's tag is its parent's + kChild
    auto run = [&mix](int skip) {
        Engine engine;
        std::vector<std::pair<Cycles, int>> log;
        std::function<void(int, Cycles)> spawn = [&](int tag, Cycles delay) {
            engine.schedule(delay, [&, tag] {
                log.push_back({engine.now(), tag});
                const std::uint64_t h = mix(tag + 7);
                if (tag < 2 * kChild && h % 3 == 0) {
                    spawn(tag + kChild, h % 20);
                }
            });
        };
        std::vector<EventId> ids(kEvents, kInvalidEvent);
        for (int i = 0; i < kEvents; ++i) {
            const std::uint64_t h = mix(i);
            if (i != skip) {
                spawn(i, h % 50);
                ids[i] = engine.schedule(h % 50, [&log, &engine, i] {
                    log.push_back({engine.now(), -i});
                });
            }
            if (h % 4 == 0) {
                engine.cancel(ids[(h >> 8U) % (i + 1)]);
            }
        }
        engine.run();
        return log;
    };
    const auto full = run(-1);
    EXPECT_EQ(full, run(-1));
    for (const int skip : {0, 17, 118, kEvents - 1}) {
        auto expected = full;
        std::erase_if(expected, [skip](const auto& entry) {
            const int tag = entry.second;
            return tag == -skip || tag % kChild == skip;
        });
        EXPECT_EQ(run(skip), expected) << "skip " << skip;
    }
}

TEST(Engine, CancelOfFiredIdReturnsFalse)
{
    Engine engine;
    // The id is already fired while its own event runs.
    EventId id = kInvalidEvent;
    bool cancelledWhileRunning = true;
    id = engine.schedule(10,
                         [&] { cancelledWhileRunning = engine.cancel(id); });
    engine.run();
    EXPECT_FALSE(cancelledWhileRunning);
    EXPECT_EQ(engine.stats().cancelled, 0u);
    EXPECT_FALSE(engine.cancel(id));
    // The slot is recycled: the stale id must not cancel its successor.
    bool ran = false;
    engine.schedule(5, [&] { ran = true; });
    EXPECT_FALSE(engine.cancel(id));
    engine.run();
    EXPECT_TRUE(ran);
}

TEST(Engine, ScheduleAtNowExecutesThisCycle)
{
    Engine engine;
    std::vector<int> order;
    engine.schedule(10, [&] {
        order.push_back(1);
        engine.scheduleAt(engine.now(), [&] { order.push_back(2); });
    });
    engine.schedule(10, [&] { order.push_back(3); });
    engine.runUntil(10);
    // The same-cycle event runs within this cycle, after already-queued
    // ties (FIFO), and not past the limit.
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
    EXPECT_EQ(engine.now(), 10u);
}

TEST(Engine, RunUntilBoundaryAcrossCascade)
{
    // Limits landing on the calendar window's edges (kSlots - 1, kSlots,
    // kSlots + 1, 2 * kSlots) must still execute events at the limit and
    // hold back the rest; events past the first window wait in the far
    // heap until the base comes within kSlots of them.
    constexpr Cycles k = TimingWheel::kSlots;
    Engine engine;
    std::vector<Cycles> fired;
    for (const Cycles when : {k - 1, k, k + 1, 2 * k - 1, 2 * k, 2 * k + 1}) {
        engine.scheduleAt(when, [&fired, when] { fired.push_back(when); });
    }
    engine.runUntil(k - 1);
    EXPECT_EQ(fired, (std::vector<Cycles>{k - 1}));
    engine.runUntil(k);
    EXPECT_EQ(fired, (std::vector<Cycles>{k - 1, k}));
    engine.runUntil(k + 1);
    EXPECT_EQ(fired, (std::vector<Cycles>{k - 1, k, k + 1}));
    engine.runUntil(2 * k);
    EXPECT_EQ(fired,
              (std::vector<Cycles>{k - 1, k, k + 1, 2 * k - 1, 2 * k}));
    engine.run();
    EXPECT_EQ(fired.size(), 6u);
    EXPECT_EQ(engine.now(), 2 * k + 1);
}

TEST(Engine, FifoTieBreakAcrossCascade)
{
    // One far cycle takes events while it is past the window (they wait
    // in the far heap) and after it entered the window (they go straight
    // to its slot); all of them still fire in issue order.
    constexpr Cycles k = TimingWheel::kSlots;
    Engine engine;
    std::vector<int> order;
    const Cycles target = 2 * k + 5;
    engine.scheduleAt(target, [&] { order.push_back(0); }); // far
    engine.schedule(50, [&] {
        engine.scheduleAt(target, [&] { order.push_back(1); }); // far
    });
    engine.schedule(k + 10, [&] {
        engine.scheduleAt(target, [&] { order.push_back(2); }); // in window
    });
    engine.schedule(target - 1, [&] {
        engine.scheduleAt(target, [&] { order.push_back(3); });
    });
    engine.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(engine.now(), target);
}

TEST(Engine, Cancel10kEventsStaysBounded)
{
    // Regression: cancelled events used to linger in the queue and in a
    // tombstone set until lazily popped. With generation counters they
    // are purged eagerly and their records recycled.
    Engine engine;
    std::vector<EventId> ids;
    ids.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
        ids.push_back(engine.schedule(1000 + i % 97, [] {}));
    }
    for (const EventId id : ids) {
        EXPECT_TRUE(engine.cancel(id));
    }
    EXPECT_EQ(engine.pendingEvents(), 0u);
    EXPECT_EQ(engine.stats().cancelled, 10000u);
    EXPECT_EQ(engine.stats().slabLive, 0u);

    // Schedule/cancel churn reuses the freed records: no growth.
    const std::size_t slots = engine.stats().slabSlots;
    for (int i = 0; i < 10000; ++i) {
        engine.cancel(engine.schedule(50, [] {}));
    }
    EXPECT_EQ(engine.stats().slabSlots, slots);
    EXPECT_EQ(engine.pendingEvents(), 0u);
    engine.run();
    EXPECT_EQ(engine.executedEvents(), 0u);
}

TEST(Engine, PreCursorScheduleAfterRunUntilProbe)
{
    // A runUntil() probe finds the next event past the limit; events
    // then scheduled between now() and that event must still run, in
    // (when, seq) order, before it.
    Engine engine;
    std::vector<Cycles> fired;
    engine.schedule(5, [&] { fired.push_back(5); });
    engine.schedule(5000, [&] { fired.push_back(5000); });
    engine.runUntil(4999);
    EXPECT_EQ(engine.now(), 5u);
    EXPECT_EQ(fired, (std::vector<Cycles>{5}));

    engine.scheduleAt(6, [&] { fired.push_back(6); });
    engine.scheduleAt(7, [&] { fired.push_back(7); });
    const EventId dropped = engine.scheduleAt(8, [&] { fired.push_back(8); });
    EXPECT_TRUE(engine.cancel(dropped));
    EXPECT_EQ(engine.pendingEvents(), 3u);
    engine.run();
    EXPECT_EQ(fired, (std::vector<Cycles>{5, 6, 7, 5000}));
}

TEST(Engine, MoveOnlyAndLargeCapturesExecute)
{
    Engine engine;
    // Move-only capture (rejected by std::function, accepted by Event).
    auto owned = std::make_unique<int>(41);
    int seen = 0;
    engine.schedule(1, [&seen, p = std::move(owned)] { seen = *p + 1; });
    // Oversized capture: falls back to one heap cell, still runs.
    struct Big {
        char bytes[96] = {};
    } big;
    big.bytes[0] = 7;
    bool bigRan = false;
    engine.schedule(2, [&bigRan, big] { bigRan = big.bytes[0] == 7; });
    engine.run();
    EXPECT_EQ(seen, 42);
    EXPECT_TRUE(bigRan);
}

TEST(Engine, StatsCountCascadesAndHighWater)
{
    Engine engine;
    engine.schedule(TimingWheel::kSlots, [] {}); // far: one refile
    engine.schedule(TimingWheel::kSlots - 1, [] {}); // in the window
    engine.schedule(1, [] {});
    EXPECT_EQ(engine.stats().slabHighWater, 3u);
    engine.run();
    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.scheduled, 3u);
    EXPECT_EQ(stats.executed, 3u);
    EXPECT_EQ(stats.cascades, 1u);
    EXPECT_EQ(stats.slabLive, 0u);
}

TEST(Engine, ThrowingEventStillFreesItsRecord)
{
    // An event runs inside its slab record. One that throws still frees
    // the record (destroying its captures), and a later run() executes
    // the events that remain.
    Engine engine;
    std::vector<int> fired;
    auto token = std::make_shared<int>(0);
    engine.schedule(1, [&] { fired.push_back(1); });
    engine.schedule(2, [token] { PLUS_PANIC("event ", *token, " fails"); });
    engine.schedule(3, [&] { fired.push_back(3); });
    token.reset();
    EXPECT_THROW(engine.run(), PanicError);
    EXPECT_EQ(fired, (std::vector<int>{1}));
    EXPECT_EQ(engine.stats().slabLive, 1u);
    engine.run();
    EXPECT_EQ(fired, (std::vector<int>{1, 3}));
    EXPECT_EQ(engine.stats().slabLive, 0u);
    EXPECT_EQ(engine.pendingEvents(), 0u);
}

/**
 * Reference model of the engine's contract: a priority queue keyed
 * (when, seq), the ids still pending (a cancelled entry stays queued and
 * is skipped when it surfaces), and the daemon rule — run() and
 * runUntil() return once only daemon events are pending.
 */
class RefEngine
{
  public:
    Cycles now() const { return now_; }

    EventId
    scheduleAt(Cycles when, std::function<void()> fn)
    {
        return push(when, std::move(fn), false);
    }

    EventId
    scheduleDaemon(Cycles delay, std::function<void()> fn)
    {
        return push(now_ + delay, std::move(fn), true);
    }

    bool
    cancel(EventId id)
    {
        const auto it = pending_.find(id);
        if (it == pending_.end()) {
            return false;
        }
        ordinary_ -= it->second ? 0 : 1;
        pending_.erase(it);
        return true;
    }

    void run() { runUntil(~Cycles{0}); }

    void
    runUntil(Cycles limit)
    {
        while (ordinary_ > 0) {
            while (!pending_.contains(queue_.top().seq)) {
                queue_.pop();
            }
            if (queue_.top().when > limit) {
                return;
            }
            const Entry next = queue_.top();
            queue_.pop();
            cancel(next.seq); // it is no longer pending once it runs
            now_ = next.when;
            next.fn();
        }
    }

    std::size_t pendingEvents() const { return ordinary_; }

  private:
    struct Entry {
        Cycles when;
        std::uint64_t seq; ///< doubles as the event's id
        std::function<void()> fn;
    };
    struct Later {
        bool
        operator()(const Entry& a, const Entry& b) const
        {
            return std::tie(b.when, b.seq) < std::tie(a.when, a.seq);
        }
    };

    EventId
    push(Cycles when, std::function<void()> fn, bool daemon)
    {
        const std::uint64_t seq = ++lastSeq_;
        queue_.push(Entry{when, seq, std::move(fn)});
        pending_.emplace(seq, daemon);
        ordinary_ += daemon ? 0 : 1;
        return seq;
    }

    std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
    std::map<EventId, bool> pending_; ///< pending id -> is a daemon
    std::size_t ordinary_ = 0;        ///< pending non-daemon events
    std::uint64_t lastSeq_ = 0;
    Cycles now_ = 0;
};

std::uint64_t
mix64(std::uint64_t x)
{
    x = (x ^ (x >> 30U)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27U)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31U);
}

/**
 * A delay drawn from @p h: same-cycle and near ties, delays inside the
 * calendar window, delays straddling its edge (kSlots - 1 to kSlots + 1),
 * a few windows ahead, and far beyond.
 */
Cycles
pickDelay(std::uint64_t h)
{
    constexpr Cycles k = TimingWheel::kSlots;
    const std::uint64_t r = h >> 8U;
    switch (h % 10) {
      case 0: return 0;
      case 1:
      case 2: return r % 8;
      case 3: return r % 64;
      case 4: return 64 + r % (k - 64);
      case 5: return k - 1 + r % 3;
      case 6: return k * (2 + r % 4) + r % 3 - 1;
      case 7: return k + r % (4 * k);
      case 8: return 4 * k + r % (Cycles{1} << 24U);
      default: return r % 600;
    }
}

/**
 * One engine under the differential test. Every event is tagged with
 * its schedule index; when it fires it logs (cycle, tag) and, as its
 * tag's hash decides, schedules a nested child, a same-cycle child or a
 * daemon, or cancels an earlier id (pending, fired or recycled; a
 * successful cancel logs (cycle, -1 - target)).
 */
template <typename E>
struct Side {
    static constexpr std::size_t kMaxEvents = 3000;

    explicit Side(std::uint64_t seed) : seed(seed) {}

    void
    add(Cycles when, bool daemon)
    {
        const int tag = static_cast<int>(ids.size());
        if (when - engine.now() >= TimingWheel::kSlots) {
            far.push_back(ids.size());
        }
        auto fire = [this, tag] { this->fire(tag); };
        ids.push_back(daemon ? engine.scheduleDaemon(when - engine.now(), fire)
                             : engine.scheduleAt(when, fire));
    }

    void
    cancel(std::size_t target)
    {
        if (engine.cancel(ids[target])) {
            log.push_back({engine.now(), -1 - static_cast<int>(target)});
        }
    }

    void
    fire(int tag)
    {
        log.push_back({engine.now(), tag});
        const std::uint64_t h = mix64(seed * 0x9e3779b97f4a7c15ull + tag);
        if (ids.size() >= kMaxEvents) {
            return;
        }
        if (h % 3 == 0) {
            add(engine.now() + pickDelay(h >> 4U), false);
        }
        if (h % 5 == 0) {
            add(engine.now(), false);
        }
        if (h % 7 == 0) {
            cancel((h >> 20U) % ids.size());
        }
        if (h % 11 == 0) {
            add(engine.now() + pickDelay(h >> 12U), true);
        }
    }

    E engine;
    std::uint64_t seed;
    std::vector<EventId> ids; ///< by tag
    std::vector<std::size_t> far; ///< tags scheduled kSlots or more ahead
    std::vector<std::pair<Cycles, int>> log;
};

TEST(Engine, MatchesPriorityQueueReferenceModel)
{
    // The engine and RefEngine take the same pseudo-random stream of
    // schedules, cancels (some aimed at far-heap events) and runUntil
    // probes, and must agree on what ran when after every probe. After a
    // probe, events are scheduled between now() and the limit, where a
    // probe that moved the calendar's base would mis-file them.
    for (const std::uint64_t seed :
         {1ull, 2ull, 3ull, 42ull, 1990ull, 77213ull, 0xdeadull,
          123456789ull}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        Side<Engine> real(seed);
        Side<RefEngine> ref(seed);
        std::uint64_t state = seed;
        auto next = [&state] { return state = mix64(state + 1); };
        auto both = [&real, &ref](const auto& op) {
            op(real);
            op(ref);
        };
        for (int round = 0; round < 24; ++round) {
            for (std::uint64_t n = 8 + next() % 24; n > 0; --n) {
                const Cycles when = real.engine.now() + pickDelay(next());
                const bool daemon = next() % 10 == 0;
                both([&](auto& side) { side.add(when, daemon); });
            }
            for (std::uint64_t n = next() % 4; n > 0; --n) {
                const std::size_t target = next() % real.ids.size();
                both([&](auto& side) { side.cancel(target); });
            }
            for (std::uint64_t n = next() % 3; n > 0 && !real.far.empty();
                 --n) {
                const std::size_t target =
                    real.far[next() % real.far.size()];
                both([&](auto& side) { side.cancel(target); });
            }
            const Cycles limit = real.engine.now() + pickDelay(next());
            both([&](auto& side) { side.engine.runUntil(limit); });
            ASSERT_EQ(real.log, ref.log) << "round " << round;
            ASSERT_EQ(real.engine.now(), ref.engine.now());
            ASSERT_EQ(real.engine.pendingEvents(),
                      ref.engine.pendingEvents());
            for (std::uint64_t n = next() % 4; n > 0; --n) {
                const Cycles now = real.engine.now();
                const Cycles when = now + next() % (limit - now + 1);
                both([&](auto& side) { side.add(when, false); });
            }
        }
        both([](auto& side) { side.engine.run(); });
        ASSERT_EQ(real.log, ref.log);
        ASSERT_EQ(real.engine.now(), ref.engine.now());
        EXPECT_EQ(real.engine.pendingEvents(), 0u);
    }
}

} // namespace
} // namespace sim
} // namespace plus
