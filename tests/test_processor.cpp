/**
 * @file
 * Tests of the processor timing model: cost accounting identities,
 * latency-hiding behaviour of the three modes, the cache's effect on
 * local access costs, page-fault charging, and heap allocation on the
 * steady-state local and remote paths.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "core/context.hpp"
#include "core/machine.hpp"

// Every allocation of this test binary is counted; the storage comes
// from malloc/free, so sanitizer builds still track it.
namespace {
std::size_t g_allocations = 0;
} // namespace

void*
operator new(std::size_t bytes)
{
    ++g_allocations;
    if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) {
        return p;
    }
    throw std::bad_alloc();
}

void*
operator new[](std::size_t bytes)
{
    return operator new(bytes);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace plus {
namespace core {
namespace {

MachineConfig
cfgFor(unsigned nodes, ProcessorMode mode = ProcessorMode::Delayed)
{
    MachineConfig cfg;
    cfg.nodes = nodes;
    cfg.framesPerNode = 64;
    cfg.mode = mode;
    return cfg;
}

TEST(Processor, AccountingCoversElapsedTime)
{
    // busy + stalls + idle must account for (almost) the whole run on a
    // single-threaded processor; only the trailing interval after the
    // thread finishes is unattributed.
    Machine m(cfgFor(4));
    const Addr page = m.alloc(kPageBytes, 3);
    Cycles finished_at = 0;
    m.spawn(0, [&](Context& ctx) {
        ctx.compute(500);
        for (int i = 0; i < 10; ++i) {
            ctx.read(page + 4 * i);
            ctx.write(page + 4 * i, i);
        }
        ctx.fence();
        ctx.fadd(page, 1);
        finished_at = ctx.machine().now();
    });
    m.run();
    const auto& ps = m.nodeAt(0).processor().stats();
    const Cycles accounted = ps.busyUseful() + ps.ctxOverhead +
                             ps.totalStall() + ps.idle();
    EXPECT_EQ(accounted, finished_at);
}

TEST(Processor, ComputeChargesExactly)
{
    Machine m(cfgFor(1));
    m.spawn(0, [&](Context& ctx) {
        ctx.compute(123);
        ctx.compute(877);
    });
    m.run();
    EXPECT_EQ(m.nodeAt(0).processor().stats().compute, 1000u);
}

TEST(Processor, CacheHitsCheapenRepeatedLocalReads)
{
    Machine m(cfgFor(1));
    const Addr page = m.alloc(kPageBytes, 0);
    Cycles first = 0;
    Cycles second = 0;
    m.spawn(0, [&](Context& ctx) {
        Cycles t0 = ctx.machine().now();
        ctx.read(page); // page fault + cache miss
        t0 = ctx.machine().now();
        ctx.read(page + 4 * 64); // new line: miss (15 cycles)
        first = ctx.machine().now() - t0;
        t0 = ctx.machine().now();
        ctx.read(page + 4 * 64); // same line: hit (1 cycle)
        second = ctx.machine().now() - t0;
    });
    m.run();
    EXPECT_EQ(first, CostModel{}.cacheMissFill);
    EXPECT_EQ(second, CostModel{}.cacheHit);
}

TEST(Processor, PageFaultChargedOnce)
{
    Machine m(cfgFor(2));
    const Addr page = m.alloc(kPageBytes, 1);
    m.spawn(0, [&](Context& ctx) {
        ctx.read(page);
        ctx.read(page + 8);
        ctx.read(page + 16);
    });
    m.run();
    const auto& ps = m.nodeAt(0).processor().stats();
    EXPECT_EQ(ps.pageFaults, 1u);
    EXPECT_EQ(ps.stall[static_cast<unsigned>(node::StallKind::PageFault)],
              CostModel{}.osPageFillCycles);
}

TEST(Processor, DelayedIssueOverlapsWithCompute)
{
    // If computation fully covers the operation's round trip, the
    // delayed run's elapsed time is shorter than the blocking one's by
    // (roughly) the hidden latency.
    auto run = [](bool overlap) {
        Machine m(cfgFor(4));
        const Addr page = m.alloc(kPageBytes, 3);
        Cycles elapsed = 0;
        m.spawn(0, [&, overlap](Context& ctx) {
            ctx.read(page); // warm translation
            const Cycles t0 = ctx.machine().now();
            for (int i = 0; i < 10; ++i) {
                if (overlap) {
                    OpHandle h = ctx.issueFadd(page, 1);
                    ctx.compute(300);
                    ctx.verify(h);
                } else {
                    ctx.fadd(page, 1);
                    ctx.compute(300);
                }
            }
            elapsed = ctx.machine().now() - t0;
        });
        m.run();
        return elapsed;
    };
    const Cycles delayed = run(true);
    const Cycles blocking = run(false);
    EXPECT_LT(delayed, blocking);
    // The hidden part is the manager round trip (~63 cycles x 10 ops).
    EXPECT_GT(blocking - delayed, 400u);
}

TEST(Processor, ContextSwitchHidesVerifyLatency)
{
    // Two resident threads: while one waits for its interlocked result,
    // the other runs. Total elapsed < sum of serialized thread times.
    MachineConfig cfg = cfgFor(4, ProcessorMode::ContextSwitch);
    cfg.cost.ctxSwitchCycles = 16;
    Machine m(cfg);
    const Addr page = m.alloc(kPageBytes, 3);
    for (int t = 0; t < 2; ++t) {
        m.spawn(0, [&](Context& ctx) {
            for (int i = 0; i < 20; ++i) {
                ctx.fadd(page, 1);
                ctx.compute(40);
            }
        });
    }
    m.run();
    EXPECT_EQ(m.peek(page), 40u);
    const auto& ps = m.nodeAt(0).processor().stats();
    EXPECT_GT(ps.ctxSwitches, 10u);

    // Compare against blocking mode with the same total work serialized.
    Machine m2(cfgFor(4, ProcessorMode::Blocking));
    const Addr page2 = m2.alloc(kPageBytes, 3);
    m2.spawn(0, [&](Context& ctx) {
        for (int i = 0; i < 40; ++i) {
            ctx.fadd(page2, 1);
            ctx.compute(40);
        }
    });
    m2.run();
    EXPECT_LT(m.now(), m2.now());
}

TEST(Processor, HighSwitchCostErasesTheBenefit)
{
    auto run = [](Cycles switch_cost) {
        MachineConfig cfg = cfgFor(4, ProcessorMode::ContextSwitch);
        cfg.cost.ctxSwitchCycles = switch_cost;
        Machine m(cfg);
        const Addr page = m.alloc(kPageBytes, 3);
        for (int t = 0; t < 2; ++t) {
            m.spawn(0, [&](Context& ctx) {
                for (int i = 0; i < 20; ++i) {
                    ctx.fadd(page, 1);
                    ctx.compute(40);
                }
            });
        }
        m.run();
        return m.now();
    };
    EXPECT_LT(run(16), run(140));
}

TEST(Processor, WritesDoNotBlockUntilCapacity)
{
    // A single remote write must cost only its issue time at the
    // processor; the chain completes in the background.
    Machine m(cfgFor(4));
    const Addr page = m.alloc(kPageBytes, 3);
    Cycles write_cost = 0;
    m.spawn(0, [&](Context& ctx) {
        ctx.read(page); // warm translation
        const Cycles t0 = ctx.machine().now();
        ctx.write(page, 1);
        write_cost = ctx.machine().now() - t0;
    });
    m.run();
    EXPECT_EQ(write_cost, CostModel{}.procIssueWrite);
}

TEST(Processor, FenceWaitsOutTheChain)
{
    Machine m(cfgFor(4));
    const Addr page = m.alloc(kPageBytes, 3);
    Cycles fence_cost = 0;
    m.spawn(0, [&](Context& ctx) {
        ctx.read(page);
        ctx.write(page, 1);
        const Cycles t0 = ctx.machine().now();
        ctx.fence();
        fence_cost = ctx.machine().now() - t0;
    });
    m.run();
    // The write's round trip (minus the issue cost already paid).
    EXPECT_GT(fence_cost, 20u);
}

TEST(Processor, PauseSharesTheProcessorBetweenResidentThreads)
{
    // A spinning thread that uses pause() must let its co-resident
    // thread run in ContextSwitch mode (a bare busy loop would not).
    MachineConfig cfg = cfgFor(2, ProcessorMode::ContextSwitch);
    cfg.cost.ctxSwitchCycles = 16;
    Machine m(cfg);
    const Addr flag = m.alloc(kPageBytes, 0);
    bool spinner_done = false;
    m.spawn(0, [&](Context& ctx) {
        while (ctx.read(flag) == 0) {
            ctx.pause(8);
        }
        spinner_done = true;
    });
    m.spawn(0, [&](Context& ctx) {
        ctx.compute(2000);
        ctx.write(flag, 1); // runs on the same processor as the spinner
    });
    m.run();
    EXPECT_TRUE(spinner_done);
}

TEST(Processor, SteadyStateLocalOpsDoNotAllocate)
{
    // Twelve local pages are 48 KB, more than the 32 KB cache, so a pass
    // over one word per line misses on every line; re-reading a word
    // right after its miss hits.
    constexpr Addr kPages = 12;
    constexpr Addr kLineBytes = 16;
    constexpr int kWrites = 64;
    Machine m(cfgFor(1)); // the invariant checker stays on
    const Addr base = m.alloc(kPages * kPageBytes, 0);
    std::size_t read_allocs = 0;
    std::size_t write_allocs = 0;
    m.spawn(0, [&](Context& ctx) {
        const auto reads = [&] {
            for (Addr a = base; a < base + kPages * kPageBytes;
                 a += kLineBytes) {
                ctx.read(a);
                ctx.read(a);
            }
            ctx.fence();
        };
        const auto writes = [&] {
            for (int i = 0; i < kWrites; ++i) {
                ctx.write(base + kWordBytes * i, i);
            }
            ctx.fence();
        };
        reads(); // warm-up: page faults, event slab, waiter queues
        writes();
        std::size_t before = g_allocations;
        reads();
        read_allocs = g_allocations - before;
        before = g_allocations;
        writes();
        write_allocs = g_allocations - before;
    });
    m.run();
    EXPECT_EQ(read_allocs, 0u);
    EXPECT_EQ(write_allocs, 0u);
}

TEST(Processor, SteadyStateRemoteOpsAllocate)
{
    // Node 0 issues every op. The remote page lives on node 1; the
    // replicated page's master is node 0, with one copy on node 1.
    constexpr int kOps = 64;
    Machine m(cfgFor(2)); // the invariant checker stays on
    const Addr remote = m.alloc(kPageBytes, 1);
    const Addr replicated = m.alloc(kPageBytes, 0);
    m.replicate(replicated, 1);
    m.settle();
    std::size_t read_allocs = 0;
    std::size_t remote_write_allocs = 0;
    std::size_t replicated_write_allocs = 0;
    std::size_t fadd_allocs = 0;
    m.spawn(0, [&](Context& ctx) {
        const auto reads = [&] {
            for (int i = 0; i < kOps; ++i) {
                ctx.read(remote + kWordBytes * i);
            }
        };
        const auto writes = [&](Addr page) {
            for (int i = 0; i < kOps; ++i) {
                ctx.write(page + kWordBytes * i, i);
            }
            ctx.fence();
        };
        const auto fadds = [&] {
            for (int i = 0; i < kOps; ++i) {
                ctx.fadd(remote + kWordBytes * i, 1);
            }
            ctx.fence();
        };
        const auto allocsOf = [](const auto& ops) {
            const std::size_t before = g_allocations;
            ops();
            return g_allocations - before;
        };
        // Warm-up: translations, event slab, transit pool, tag tables.
        reads();
        writes(remote);
        writes(replicated);
        fadds();
        read_allocs = allocsOf(reads);
        remote_write_allocs = allocsOf([&] { writes(remote); });
        replicated_write_allocs = allocsOf([&] { writes(replicated); });
        fadd_allocs = allocsOf(fadds);
    });
    m.run();
    EXPECT_EQ(read_allocs, 0u);
    EXPECT_EQ(remote_write_allocs, 0u);
    // Two per write (the parent read 257): the UpdateReq service
    // closure (this + an 80-byte UpdateReq) exceeds sim::Event's inline
    // capture and takes one heap cell at the replica, and the invariant
    // checker keeps a visited list for the chain that leaves the master.
    EXPECT_LE(replicated_write_allocs, 2u * kOps);
    // One per op (the parent read 320): the RmwReq service closure
    // (this + a 48-byte RmwReq) takes one heap cell at the master.
    EXPECT_LE(fadd_allocs, static_cast<std::size_t>(kOps));
}

} // namespace
} // namespace core
} // namespace plus
