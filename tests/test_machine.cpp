/**
 * @file
 * End-to-end machine tests: allocation, coherent reads/writes across
 * nodes, interlocked operations, fences, and the pending-writes rules of
 * Section 2.3.
 */

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "core/context.hpp"
#include "core/machine.hpp"

namespace plus {
namespace core {
namespace {

MachineConfig
smallConfig(unsigned nodes)
{
    MachineConfig cfg;
    cfg.nodes = nodes;
    cfg.framesPerNode = 64;
    return cfg;
}

TEST(Machine, AllocAndBackdoors)
{
    Machine m(smallConfig(4));
    const Addr a = m.alloc(kPageBytes, 2);
    EXPECT_EQ(m.peek(a), 0u);
    m.poke(a + 8, 1234);
    EXPECT_EQ(m.peek(a + 8), 1234u);
    EXPECT_EQ(m.copyListOf(a).master().node, 2u);
    EXPECT_EQ(m.copyListOf(a).size(), 1u);
}

TEST(Machine, AllocRoundsUpToPages)
{
    Machine m(smallConfig(2));
    const Addr a = m.alloc(kPageBytes * 2 + 1, 0);
    // Three consecutive pages, all addressable.
    m.poke(a, 1);
    m.poke(a + kPageBytes, 2);
    m.poke(a + 2 * kPageBytes, 3);
    EXPECT_EQ(m.peek(a + 2 * kPageBytes), 3u);
}

TEST(Machine, LocalReadAndWrite)
{
    Machine m(smallConfig(2));
    const Addr a = m.alloc(kPageBytes, 0);
    Word seen = ~0u;
    m.spawn(0, [&](Context& ctx) {
        ctx.write(a, 77);
        seen = ctx.read(a);
    });
    m.run();
    EXPECT_EQ(seen, 77u);
    EXPECT_EQ(m.peek(a), 77u);
}

TEST(Machine, RemoteReadSeesRemoteData)
{
    Machine m(smallConfig(4));
    const Addr a = m.alloc(kPageBytes, 3);
    m.poke(a, 555);
    Word seen = 0;
    m.spawn(0, [&](Context& ctx) { seen = ctx.read(a); });
    m.run();
    EXPECT_EQ(seen, 555u);
}

TEST(Machine, RemoteWriteReachesMaster)
{
    Machine m(smallConfig(4));
    const Addr a = m.alloc(kPageBytes, 3);
    m.spawn(0, [&](Context& ctx) {
        ctx.write(a, 99);
        ctx.fence();
    });
    m.run();
    EXPECT_EQ(m.peek(a), 99u);
}

TEST(Machine, ReadAfterWriteSameProcessorIsStronglyOrdered)
{
    // "Reading a location that is currently being written blocks until
    // the write completes": a read after a remote write must observe it.
    Machine m(smallConfig(4));
    const Addr a = m.alloc(kPageBytes, 2);
    Word seen = 0;
    m.spawn(0, [&](Context& ctx) {
        ctx.write(a, 1);
        ctx.write(a, 2);
        ctx.write(a, 3);
        seen = ctx.read(a);
    });
    m.run();
    EXPECT_EQ(seen, 3u);
}

TEST(Machine, FadAddAccumulatesAcrossNodes)
{
    Machine m(smallConfig(4));
    const Addr a = m.alloc(kPageBytes, 0);
    for (NodeId n = 0; n < 4; ++n) {
        m.spawn(n, [&](Context& ctx) {
            for (int i = 0; i < 10; ++i) {
                ctx.fadd(a, 1);
            }
        });
    }
    m.run();
    EXPECT_EQ(m.peek(a), 40u);
}

TEST(Machine, FetchAddReturnsOldValue)
{
    Machine m(smallConfig(2));
    const Addr a = m.alloc(kPageBytes, 1);
    m.poke(a, 5);
    Word old = 0;
    m.spawn(0, [&](Context& ctx) { old = ctx.fadd(a, 3); });
    m.run();
    EXPECT_EQ(old, 5u);
    EXPECT_EQ(m.peek(a), 8u);
}

TEST(Machine, XchngSwapsAndReturnsOld)
{
    Machine m(smallConfig(2));
    const Addr a = m.alloc(kPageBytes, 1);
    m.poke(a, 10);
    Word old = 0;
    m.spawn(0, [&](Context& ctx) { old = ctx.xchng(a, 20); });
    m.run();
    EXPECT_EQ(old, 10u);
    EXPECT_EQ(m.peek(a), 20u);
}

TEST(Machine, MinXchngKeepsMinimum)
{
    Machine m(smallConfig(2));
    const Addr a = m.alloc(kPageBytes, 1);
    m.poke(a, 100);
    m.spawn(0, [&](Context& ctx) {
        ctx.minXchng(a, 150); // larger: no change
        ctx.minXchng(a, 40);  // smaller: stored
    });
    m.run();
    EXPECT_EQ(m.peek(a), 40u);
}

TEST(Machine, DelayedIssueVerifyOverlapsComputation)
{
    Machine m(smallConfig(4));
    const Addr a = m.alloc(kPageBytes, 3);
    m.poke(a, 7);
    Word result = 0;
    m.spawn(0, [&](Context& ctx) {
        OpHandle h = ctx.issueFadd(a, 1);
        ctx.compute(500); // overlap with the operation's round trip
        result = ctx.verify(h);
    });
    m.run();
    EXPECT_EQ(result, 7u);
    EXPECT_EQ(m.peek(a), 8u);
}

TEST(Machine, EightDelayedOpsInFlight)
{
    Machine m(smallConfig(4));
    const Addr a = m.alloc(kPageBytes, 3);
    std::vector<Word> results;
    m.spawn(0, [&](Context& ctx) {
        std::vector<OpHandle> handles;
        for (int i = 0; i < 8; ++i) {
            handles.push_back(ctx.issueFadd(a, 1));
        }
        for (OpHandle h : handles) {
            results.push_back(ctx.verify(h));
        }
    });
    m.run();
    // fadds execute at the master in issue order.
    ASSERT_EQ(results.size(), 8u);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(results[i], static_cast<Word>(i));
    }
    EXPECT_EQ(m.peek(a), 8u);
}

TEST(Machine, NinthIssueWithAllResultsUnreadDeadlocks)
{
    // Slots in the delayed-operations cache are deallocated only when
    // the processor *reads* the result (Section 3.1), so issuing a ninth
    // operation while holding eight unread results can never make
    // progress — and the machine reports the deadlock.
    Machine m(smallConfig(4));
    const Addr a = m.alloc(kPageBytes, 3);
    m.spawn(0, [&](Context& ctx) {
        std::vector<OpHandle> handles;
        for (int i = 0; i < 9; ++i) {
            handles.push_back(ctx.issueFadd(a, 1));
        }
        for (OpHandle h : handles) {
            ctx.verify(h);
        }
    });
    EXPECT_THROW(m.run(), FatalError);
}

TEST(Machine, SlidingWindowOfDelayedOpsReusesSlots)
{
    // Keeping at most 8 operations outstanding lets an arbitrarily long
    // stream of delayed operations flow.
    Machine m(smallConfig(4));
    const Addr a = m.alloc(kPageBytes, 3);
    m.spawn(0, [&](Context& ctx) {
        std::deque<OpHandle> window;
        for (int i = 0; i < 100; ++i) {
            if (window.size() == 8) {
                ctx.verify(window.front());
                window.pop_front();
            }
            window.push_back(ctx.issueFadd(a, 1));
        }
        while (!window.empty()) {
            ctx.verify(window.front());
            window.pop_front();
        }
    });
    m.run();
    EXPECT_EQ(m.peek(a), 100u);
    EXPECT_EQ(m.nodeAt(0).cm().delayedOps().maxInFlight(), 8u);
}

TEST(Machine, FenceDrainsPendingWrites)
{
    Machine m(smallConfig(4));
    const Addr a = m.alloc(kPageBytes, 2);
    m.spawn(0, [&](Context& ctx) {
        for (Word i = 0; i < 20; ++i) {
            ctx.write(a + 4 * i, i + 1);
        }
        ctx.fence();
        // After the fence every write must be globally complete.
        for (Word i = 0; i < 20; ++i) {
            EXPECT_EQ(ctx.machine().peek(a + 4 * i), i + 1);
        }
    });
    m.run();
}

TEST(Machine, WriteBurstRespectsPendingCapacity)
{
    Machine m(smallConfig(4));
    const Addr a = m.alloc(kPageBytes, 2);
    m.spawn(0, [&](Context& ctx) {
        for (Word i = 0; i < 64; ++i) {
            ctx.write(a + 4 * (i % 16), i);
        }
        ctx.fence();
    });
    m.run();
    EXPECT_LE(m.nodeAt(0).cm().pendingWrites().maxInFlight(), 8u);
    EXPECT_GT(m.nodeAt(0).processor().stats()
                  .stall[static_cast<unsigned>(
                      node::StallKind::PendingFull)],
              0u);
}

TEST(Machine, ProducerConsumerWithFenceAndFlag)
{
    // The weak-ordering example of Section 2.1: data + flag in different
    // pages; the producer fences before setting the flag, so the
    // consumer never sees the flag without the data.
    Machine m(smallConfig(4));
    const Addr data = m.alloc(kPageBytes, 1);
    const Addr flag = m.alloc(kPageBytes, 2);
    Word seen = 0;
    m.spawn(0, [&](Context& ctx) {
        for (Word i = 0; i < 8; ++i) {
            ctx.write(data + 4 * i, 100 + i);
        }
        ctx.fence();
        ctx.write(flag, 1);
    });
    m.spawn(3, [&](Context& ctx) {
        while (ctx.read(flag) == 0) {
            ctx.compute(10);
        }
        seen = ctx.read(data + 4 * 7);
    });
    m.run();
    EXPECT_EQ(seen, 107u);
}

TEST(Machine, ComputeAdvancesTime)
{
    Machine m(smallConfig(1));
    m.spawn(0, [&](Context& ctx) { ctx.compute(12345); });
    m.run();
    EXPECT_GE(m.now(), 12345u);
    EXPECT_EQ(m.nodeAt(0).processor().stats().compute, 12345u);
}

TEST(Machine, RemoteReadCostMatchesPaperFormula)
{
    // Cost of a remote blocking read: about 32 cycles plus the
    // round-trip network delay (24 cycles adjacent).
    MachineConfig cfg = smallConfig(2);
    cfg.network.meshWidth = 2;
    Machine m(cfg);
    const Addr a = m.alloc(kPageBytes, 1);
    // Warm the page table so the fault cost is excluded.
    Cycles before = 0;
    Cycles after = 0;
    m.spawn(0, [&](Context& ctx) {
        ctx.read(a); // first read pays the page-table fill
        before = ctx.machine().now();
        ctx.read(a);
        after = ctx.machine().now();
    });
    m.run();
    EXPECT_EQ(after - before, 32u + 24u);
}

TEST(Machine, ReportAccountsProcessorTime)
{
    Machine m(smallConfig(4));
    const Addr a = m.alloc(kPageBytes, 1);
    for (NodeId n = 0; n < 4; ++n) {
        m.spawn(n, [&](Context& ctx) {
            ctx.compute(100);
            ctx.fadd(a, 1);
        });
    }
    m.run();
    const MachineReport r = m.report();
    EXPECT_EQ(r.localRmws + r.remoteRmws, 4u);
    EXPECT_GE(r.busyUseful, 400u);
    EXPECT_GT(r.elapsed, 0u);
    EXPECT_GT(r.utilization(4), 0.0);
    EXPECT_LE(r.utilization(4), 1.0);
}

TEST(Machine, DeadlockIsReported)
{
    Machine m(smallConfig(2));
    const Addr a = m.alloc(kPageBytes, 0);
    (void)a;
    m.spawn(0, [&](Context& ctx) {
        // Wait for a flag nobody ever sets, with a spin that stops
        // generating events is impossible — so use the cycle cap.
        while (ctx.read(a) == 0) {
            ctx.compute(1000);
        }
    });
    EXPECT_THROW(m.run(2'000'000), FatalError);
}

TEST(Machine, ThreadsOnAllNodesOfOddMesh)
{
    // 7 nodes on a 3x3 mesh with a partial last row.
    Machine m(smallConfig(7));
    const Addr a = m.alloc(kPageBytes, 6);
    for (NodeId n = 0; n < 7; ++n) {
        m.spawn(n, [&](Context& ctx) { ctx.fadd(a, 1); });
    }
    m.run();
    EXPECT_EQ(m.peek(a), 7u);
}

TEST(Machine, ReadyPollIsNonBlocking)
{
    // "Since the software can inspect the status of these locations, it
    // is also possible to implement a non-blocking read" (Section 3.1).
    Machine m(smallConfig(4));
    const Addr a = m.alloc(kPageBytes, 3);
    unsigned polls = 0;
    m.spawn(0, [&](Context& ctx) {
        ctx.read(a); // warm translation
        OpHandle h = ctx.issueFadd(a, 1);
        while (!ctx.ready(h)) {
            ++polls;
            ctx.compute(10);
        }
        EXPECT_EQ(ctx.verify(h), 0u);
    });
    m.run();
    EXPECT_GT(polls, 0u); // the result took a round trip to arrive
    EXPECT_EQ(m.peek(a), 1u);
}

} // namespace
} // namespace core
} // namespace plus
