/**
 * @file
 * Unit tests for the discrete-event engine: ordering, determinism,
 * cancellation, and time-limit semantics.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
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
    for (const EngineImpl impl : {EngineImpl::Wheel, EngineImpl::Heap}) {
        Engine engine(impl);
        std::vector<int> order;
        for (const int node : {3, 1}) {
            engine.schedule(5, [&engine, &order, node] {
                engine.schedule(7, [&order, node] { order.push_back(node); });
            });
        }
        engine.run();
        EXPECT_EQ(order, (std::vector<int>{3, 1}))
            << "impl wheel=" << (impl == EngineImpl::Wheel);
        EXPECT_EQ(engine.now(), 12u);
    }
}

TEST(Engine, RandomScheduleCancelIsDeterministic)
{
    // Property: two engines fed the same pseudo-random schedule/cancel
    // stream execute the same events in the same order; and leaving one
    // event (with the children it would schedule) out of the stream
    // keeps the relative order of all the others, on both backends.
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
    auto run = [&mix](EngineImpl impl, int skip) {
        Engine engine(impl);
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
    for (const EngineImpl impl : {EngineImpl::Wheel, EngineImpl::Heap}) {
        const auto full = run(impl, -1);
        EXPECT_EQ(full, run(impl, -1));
        for (const int skip : {0, 17, 118, kEvents - 1}) {
            auto expected = full;
            std::erase_if(expected, [skip](const auto& entry) {
                const int tag = entry.second;
                return tag == -skip || tag % kChild == skip;
            });
            EXPECT_EQ(run(impl, skip), expected)
                << "skip " << skip << " wheel="
                << (impl == EngineImpl::Wheel);
        }
    }
}

TEST(Engine, CancelOfFiredIdReturnsFalse)
{
    Engine engine;
    const EventId id = engine.schedule(10, [] {});
    engine.run();
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
    // Limits landing exactly on wheel-window edges (64, 4096) must
    // still execute events at the limit and hold back the rest.
    for (const EngineImpl impl : {EngineImpl::Wheel, EngineImpl::Heap}) {
        Engine engine(impl);
        std::vector<Cycles> fired;
        for (const Cycles when : {Cycles{63}, Cycles{64}, Cycles{65},
                                  Cycles{4095}, Cycles{4096},
                                  Cycles{4097}}) {
            engine.scheduleAt(when, [&fired, when] {
                fired.push_back(when);
            });
        }
        engine.runUntil(64);
        EXPECT_EQ(fired, (std::vector<Cycles>{63, 64})) << "impl wheel="
            << (impl == EngineImpl::Wheel);
        engine.runUntil(4096);
        EXPECT_EQ(fired,
                  (std::vector<Cycles>{63, 64, 65, 4095, 4096}));
        engine.run();
        EXPECT_EQ(fired.size(), 6u);
        EXPECT_EQ(engine.now(), 4097u);
    }
}

TEST(Engine, FifoTieBreakAcrossCascade)
{
    // Events due the same far cycle, scheduled from different points in
    // time (so they enter the wheel at different levels and cascade a
    // different number of times), still fire in issue order.
    Engine engine;
    std::vector<int> order;
    const Cycles target = 4161; // crosses two window boundaries
    engine.scheduleAt(target, [&] { order.push_back(0); });
    engine.schedule(50, [&] {
        engine.scheduleAt(target, [&] { order.push_back(1); });
    });
    engine.schedule(4100, [&] {
        engine.scheduleAt(target, [&] { order.push_back(2); });
    });
    engine.schedule(4160, [&] {
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
    // runUntil() may cascade the wheel past now() while probing whether
    // the next event exceeds the limit; events scheduled into that gap
    // must still run, in (when, seq) order, before the far event.
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
    Engine engine(EngineImpl::Wheel);
    engine.schedule(70, [] {}); // level 1 -> cascades on dispatch
    engine.schedule(1, [] {});
    EXPECT_EQ(engine.stats().slabHighWater, 2u);
    engine.run();
    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.scheduled, 2u);
    EXPECT_EQ(stats.executed, 2u);
    EXPECT_GE(stats.cascades, 1u);
    EXPECT_EQ(stats.slabLive, 0u);
}

TEST(Engine, WheelAndHeapBackendsExecuteIdentically)
{
    // Determinism oracle: the same pseudo-random schedule/cancel stream
    // (with runUntil checkpoints) produces identical execution logs on
    // both backends.
    auto run = [](EngineImpl impl) {
        Engine engine(impl);
        std::vector<std::pair<Cycles, int>> log;
        std::uint64_t state = 98765;
        auto next = [&state] {
            state = state * 6364136223846793005ull + 1442695040888963407ull;
            return state >> 33;
        };
        std::vector<EventId> ids;
        for (int round = 0; round < 8; ++round) {
            for (int i = 0; i < 100; ++i) {
                const int tag = round * 100 + i;
                const Cycles delay = next() % 5000;
                ids.push_back(engine.schedule(
                    delay, [&log, &engine, tag] {
                        log.push_back({engine.now(), tag});
                    }));
                if (next() % 4 == 0) {
                    engine.cancel(ids[next() % ids.size()]);
                }
            }
            engine.runUntil(engine.now() + next() % 2000);
        }
        engine.run();
        return log;
    };
    EXPECT_EQ(run(EngineImpl::Wheel), run(EngineImpl::Heap));
}

} // namespace
} // namespace sim
} // namespace plus
