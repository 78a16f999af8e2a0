/**
 * @file
 * The paper_results sweep (bench/sweep.hpp) on fake experiments:
 * results reach the printer in point order whatever order the points
 * finish in, a point that throws is reported by experiment and point
 * without stopping the others, and the exported machine is the last one
 * the last point built.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include "bench/sweep.hpp"
#include "common/panic.hpp"

namespace plus {
namespace bench {
namespace {

/** An experiment whose printer writes its results space-separated. */
Experiment
numbers(const std::string& name, Points<int> points)
{
    return experiment<int>(name, name, "", std::move(points),
                           [](const std::vector<int>& r, std::ostream& os) {
                               for (int v : r) {
                                   os << v << " ";
                               }
                               return true;
                           });
}

std::string
printed(const Experiment& e)
{
    std::ostringstream os;
    EXPECT_TRUE(e.print(os));
    return os.str();
}

TEST(Sweep, PointsFinishingOutOfOrderPrintInPointOrder)
{
    // Point 0 waits until point 2 has finished, so with three workers
    // the points complete in the order 2, 1, 0 (or 1, 2, 0).
    std::atomic<bool> lastDone{false};
    std::atomic<int> finished{0};
    std::vector<int> finishOrder(3, -1);
    auto point = [&](int i) {
        return [&, i](PointRun&) {
            if (i == 0) {
                const auto deadline =
                    std::chrono::steady_clock::now() + std::chrono::seconds(10);
                while (!lastDone && std::chrono::steady_clock::now() < deadline) {
                    std::this_thread::yield();
                }
            }
            if (i == 2) {
                lastDone = true;
            }
            finishOrder[finished++] = i;
            return 10 * i;
        };
    };
    const std::vector<Experiment> experiments{
        numbers("a", {{"p0", point(0)}, {"p1", point(1)}, {"p2", point(2)}})};
    const SweepOutcome out = runSweep(experiments, 3);
    EXPECT_TRUE(out.failures.empty());
    EXPECT_EQ(finishOrder.back(), 0);
    EXPECT_EQ(printed(experiments[0]), "0 10 20 ");
}

TEST(Sweep, ThrowingPointIsReportedAndTheOthersStillRun)
{
    std::atomic<int> ran{0};
    auto ok = [&](int v) {
        return [&, v](PointRun&) {
            ++ran;
            return v;
        };
    };
    auto panics = [](PointRun&) -> int { PLUS_PANIC("boom"); };
    const std::vector<Experiment> experiments{
        numbers("first", {{"x", ok(1)}, {"y", ok(2)}}),
        numbers("second", {{"good", ok(3)}, {"bad", panics}, {"z", ok(4)}})};
    for (unsigned workers : {1u, 4u}) {
        ran = 0;
        const SweepOutcome out = runSweep(experiments, workers);
        EXPECT_EQ(ran, 4);
        ASSERT_EQ(out.failures.size(), 1u);
        EXPECT_EQ(out.failures[0].experiment, "second");
        EXPECT_EQ(out.failures[0].point, "bad");
        EXPECT_NE(out.failures[0].what.find("boom"), std::string::npos);
        EXPECT_EQ(printed(experiments[0]), "1 2 ");
    }
}

TEST(Sweep, ExportsTheLastMachineOfTheLastPoint)
{
    auto machine = [](unsigned nodes) {
        return [nodes](PointRun& run) {
            run.build(MachineBuilder().nodes(1));
            return static_cast<int>(run.build(MachineBuilder().nodes(nodes))
                                        .nodeCount());
        };
    };
    const std::vector<Experiment> experiments{
        numbers("a", {{"two", machine(2)}}),
        numbers("b", {{"three", machine(3)}, {"four", machine(4)}})};
    const SweepOutcome out = runSweep(experiments, 2);
    EXPECT_TRUE(out.failures.empty());
    ASSERT_NE(out.exported, nullptr);
    EXPECT_EQ(out.exported->nodeCount(), 4u);
}

} // namespace
} // namespace bench
} // namespace plus
