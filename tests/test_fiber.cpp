/**
 * @file
 * Unit tests for the cooperative fibers underlying execution-driven
 * simulation.
 */

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/fiber.hpp"

namespace plus {
namespace sim {
namespace {

TEST(Fiber, RunsBodyToCompletion)
{
    bool ran = false;
    Fiber fiber([&] { ran = true; }, 64 * 1024);
    EXPECT_FALSE(fiber.finished());
    fiber.resume();
    EXPECT_TRUE(ran);
    EXPECT_TRUE(fiber.finished());
}

TEST(Fiber, YieldReturnsToResumer)
{
    std::vector<int> order;
    Fiber fiber([&] {
        order.push_back(1);
        Fiber::yield();
        order.push_back(3);
    }, 64 * 1024);
    fiber.resume();
    order.push_back(2);
    fiber.resume();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(fiber.finished());
}

TEST(Fiber, ManyYields)
{
    int counter = 0;
    Fiber fiber([&] {
        for (int i = 0; i < 100; ++i) {
            ++counter;
            Fiber::yield();
        }
    }, 64 * 1024);
    for (int i = 0; i < 100; ++i) {
        fiber.resume();
        EXPECT_EQ(counter, i + 1);
    }
    EXPECT_FALSE(fiber.finished());
    fiber.resume();
    EXPECT_TRUE(fiber.finished());
}

TEST(Fiber, CurrentTracksRunningFiber)
{
    EXPECT_EQ(Fiber::current(), nullptr);
    Fiber* seen = nullptr;
    Fiber fiber([&] { seen = Fiber::current(); }, 64 * 1024);
    fiber.resume();
    EXPECT_EQ(seen, &fiber);
    EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, InterleavesTwoFibers)
{
    std::vector<std::string> log;
    Fiber a([&] {
        log.push_back("a1");
        Fiber::yield();
        log.push_back("a2");
    }, 64 * 1024);
    Fiber b([&] {
        log.push_back("b1");
        Fiber::yield();
        log.push_back("b2");
    }, 64 * 1024);
    a.resume();
    b.resume();
    a.resume();
    b.resume();
    EXPECT_EQ(log,
              (std::vector<std::string>{"a1", "b1", "a2", "b2"}));
}

TEST(Fiber, DeepStackUsage)
{
    // Recursion must fit comfortably in the configured stack.
    std::function<int(int)> fib = [&](int n) {
        return n < 2 ? n : fib(n - 1) + fib(n - 2);
    };
    int result = 0;
    Fiber fiber([&] { result = fib(18); }, 256 * 1024);
    fiber.resume();
    EXPECT_EQ(result, 2584);
}

TEST(Fiber, LocalStateSurvivesYield)
{
    int out = 0;
    Fiber fiber([&] {
        int local = 11;
        Fiber::yield();
        local += 31;
        Fiber::yield();
        out = local;
    }, 64 * 1024);
    fiber.resume();
    fiber.resume();
    fiber.resume();
    EXPECT_EQ(out, 42);
}

TEST(Fiber, EscapingExceptionIsRethrownByResume)
{
    bool caught = false;
    Fiber fiber([] {
        Fiber::yield();
        throw std::runtime_error("boom");
    }, 64 * 1024);
    fiber.resume();
    try {
        fiber.resume();
    } catch (const std::runtime_error& e) {
        // Caught here, on the resumer's stack, after the switch back.
        caught = true;
        EXPECT_STREQ(e.what(), "boom");
        EXPECT_TRUE(fiber.finished());
        EXPECT_EQ(Fiber::current(), nullptr);
    }
    EXPECT_TRUE(caught);
}

/** Counts destructor runs of objects parked on a fiber stack. */
struct DtorCounter {
    int* count;
    ~DtorCounter() { ++*count; }
};

TEST(Fiber, DestroyingSuspendedFiberUnwindsItsStack)
{
    int destroyed = 0;
    bool ranPastYield = false;
    {
        Fiber fiber([&] {
            DtorCounter outer{&destroyed};
            auto inner = std::make_unique<DtorCounter>(&destroyed);
            Fiber::yield();
            ranPastYield = true;
        }, 64 * 1024);
        fiber.resume();
        EXPECT_EQ(destroyed, 0);
        EXPECT_FALSE(fiber.finished());
    }
    // Both the stack object and the heap object the stack owned.
    EXPECT_EQ(destroyed, 2);
    EXPECT_FALSE(ranPastYield);
    EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, UnstartedFiberIsDestroyedWithoutRunningBody)
{
    bool ran = false;
    {
        Fiber fiber([&] { ran = true; }, 64 * 1024);
        EXPECT_FALSE(fiber.finished());
    }
    EXPECT_FALSE(ran);
}

/** 1/3 in the current rounding mode; volatile keeps it at run time. */
double
oneThird()
{
    volatile double one = 1.0;
    volatile double three = 3.0;
    return one / three;
}

TEST(Fiber, RoundingModeStaysWithItsFiber)
{
    ASSERT_EQ(std::fegetround(), FE_TONEAREST);
    const double nearest = oneThird();
    int modeAfterYield = -1;
    double quotientAfterYield = 0.0;
    Fiber fiber([&] {
        std::fesetround(FE_UPWARD);
        Fiber::yield();
        modeAfterYield = std::fegetround();
        quotientAfterYield = oneThird();
        std::fesetround(FE_TONEAREST);
    }, 64 * 1024);
    fiber.resume();
    // Neither the x87 control word (fegetround) nor MXCSR (the SSE
    // division) leaks to the resumer.
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
    EXPECT_EQ(oneThird(), nearest);
    fiber.resume();
    EXPECT_EQ(modeAfterYield, FE_UPWARD);
    EXPECT_GT(quotientAfterYield, nearest);
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

/** True if a 16-byte-aligned local of a fresh frame really is aligned. */
[[gnu::noinline]] bool
alignedLocal()
{
    alignas(16) unsigned char buf[16] = {};
    auto addr = reinterpret_cast<std::uintptr_t>(buf);
    // Hide the address so the compiler cannot fold the test to true.
    asm volatile("" : "+r"(addr));
    return addr % 16 == 0;
}

/** snprintf of a double: glibc spills vector registers with aligned stores. */
std::string
formatted(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%f", value);
    return buf;
}

TEST(Fiber, StackIsAbiAligned)
{
    std::vector<bool> aligned;
    std::vector<std::string> text;
    Fiber fiber([&] {
        aligned.push_back(alignedLocal());
        text.push_back(formatted(1.5));
        Fiber::yield();
        aligned.push_back(alignedLocal());
        text.push_back(formatted(-2.25));
    }, 64 * 1024);
    fiber.resume();
    fiber.resume();
    EXPECT_EQ(aligned, (std::vector<bool>{true, true}));
    EXPECT_EQ(text, (std::vector<std::string>{"1.500000", "-2.250000"}));
}

TEST(Fiber, ManyFibersRoundRobin)
{
    constexpr int kFibers = 64;
    constexpr int kYields = 1000;
    auto mix = [](std::uint64_t acc, std::uint64_t i) {
        return acc * 6364136223846793005ULL + i;
    };
    std::uint64_t turn = 0;
    std::vector<std::uint64_t> results(kFibers, 0);
    int misordered = 0;
    std::vector<std::unique_ptr<Fiber>> fibers;
    for (int id = 0; id < kFibers; ++id) {
        fibers.push_back(std::make_unique<Fiber>([&, id] {
            std::uint64_t acc = static_cast<std::uint64_t>(id);
            for (int i = 0; i < kYields; ++i) {
                if (turn != static_cast<std::uint64_t>(i) * kFibers +
                                static_cast<std::uint64_t>(id)) {
                    ++misordered;
                }
                ++turn;
                acc = mix(acc, static_cast<std::uint64_t>(i));
                Fiber::yield();
            }
            results[static_cast<std::size_t>(id)] = acc;
        }, 64 * 1024));
    }
    for (int round = 0; round <= kYields; ++round) {
        for (auto& fiber : fibers) {
            fiber->resume();
        }
    }
    EXPECT_EQ(misordered, 0);
    for (int id = 0; id < kFibers; ++id) {
        EXPECT_TRUE(fibers[static_cast<std::size_t>(id)]->finished());
        std::uint64_t want = static_cast<std::uint64_t>(id);
        for (int i = 0; i < kYields; ++i) {
            want = mix(want, static_cast<std::uint64_t>(i));
        }
        EXPECT_EQ(results[static_cast<std::size_t>(id)], want) << id;
    }
}

} // namespace
} // namespace sim
} // namespace plus
