/**
 * @file
 * Regression tests pinning the end-to-end cost arithmetic to the
 * paper's published numbers (Section 3.1): these are the quantities
 * `paper_results table_3_1` prints, asserted here so any timing
 * regression fails CI rather than silently skewing every experiment.
 */

#include <gtest/gtest.h>

#include "core/context.hpp"
#include "core/machine.hpp"
#include "proto/rmw.hpp"

namespace plus {
namespace core {
namespace {

/** 16 nodes on a 4x4 mesh: node h is h hops from node 0 along X. */
MachineConfig
meshConfig()
{
    MachineConfig cfg;
    cfg.nodes = 16;
    cfg.framesPerNode = 64;
    return cfg;
}

Cycles
measureBlockingOp(proto::RmwOp op, unsigned hops)
{
    Machine m(meshConfig());
    const Addr page = m.alloc(kPageBytes, hops);
    Cycles measured = 0;
    m.spawn(0, [&](Context& ctx) {
        ctx.read(page); // warm translation
        const Cycles before = ctx.machine().now();
        ctx.rmw(op, page, 1);
        measured = ctx.machine().now() - before;
    });
    m.run();
    return measured;
}

struct OpCost {
    proto::RmwOp op;
    Cycles occupancy;
};

class PaperCosts : public ::testing::TestWithParam<OpCost>
{
};

TEST_P(PaperCosts, BlockingLatencyIsIssuePlusRoundTripPlusRead)
{
    const OpCost p = GetParam();
    for (unsigned hops = 1; hops <= 3; ++hops) {
        const Cycles one_way = 10 + 2 * hops;
        const Cycles expected = 25 + one_way + p.occupancy + one_way + 10;
        EXPECT_EQ(measureBlockingOp(p.op, hops), expected)
            << toString(p.op) << " at " << hops << " hops";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Table31, PaperCosts,
    ::testing::Values(OpCost{proto::RmwOp::Xchng, 39},
                      OpCost{proto::RmwOp::CondXchng, 39},
                      OpCost{proto::RmwOp::FetchAdd, 39},
                      OpCost{proto::RmwOp::FetchSet, 39},
                      OpCost{proto::RmwOp::MinXchng, 52},
                      OpCost{proto::RmwOp::DelayedRead, 39}),
    [](const ::testing::TestParamInfo<OpCost>& info) {
        std::string name = toString(info.param.op);
        for (char& c : name) {
            if (c == '-') {
                c = '_';
            }
        }
        return name;
    });

TEST(PaperCosts, AdjacentRoundTripIsTwentyFourCycles)
{
    // "The round trip communication time between two adjacent nodes is
    // about 24 cycles."
    Machine m(meshConfig());
    EXPECT_EQ(2 * m.network().zeroLoadLatency(1), 24u);
    // "...each extra hop adds 4 cycles."
    EXPECT_EQ(2 * m.network().zeroLoadLatency(2), 28u);
    EXPECT_EQ(2 * m.network().zeroLoadLatency(3), 32u);
}

TEST(PaperCosts, RemoteBlockingReadIsThirtyTwoPlusRoundTrip)
{
    for (unsigned hops = 1; hops <= 3; ++hops) {
        Machine m(meshConfig());
        const Addr page = m.alloc(kPageBytes, hops);
        Cycles measured = 0;
        m.spawn(0, [&](Context& ctx) {
            ctx.read(page);
            const Cycles before = ctx.machine().now();
            ctx.read(page);
            measured = ctx.machine().now() - before;
        });
        m.run();
        EXPECT_EQ(measured, 32 + 2 * (10 + 2 * hops)) << hops << " hops";
    }
}

TEST(PaperCosts, QueueOpsCostFiftyTwoAtTheManager)
{
    // queue/dequeue address their offset words; check both end to end.
    Machine m(meshConfig());
    const Addr page = m.alloc(kPageBytes, 1);
    m.poke(page, 2);     // QP
    m.poke(page + 4, 2); // DQP
    Cycles q = 0;
    Cycles dq = 0;
    m.spawn(0, [&](Context& ctx) {
        ctx.read(page);
        Cycles t = ctx.machine().now();
        ctx.enqueue(page, 7);
        q = ctx.machine().now() - t;
        t = ctx.machine().now();
        ctx.dequeue(page + 4);
        dq = ctx.machine().now() - t;
    });
    m.run();
    const Cycles expected = 25 + 12 + 52 + 12 + 10;
    EXPECT_EQ(q, expected);
    EXPECT_EQ(dq, expected);
}

TEST(PaperCosts, DelayedIssueCostsTwentyFiveCycles)
{
    Machine m(meshConfig());
    const Addr page = m.alloc(kPageBytes, 3);
    Cycles issue_cost = 0;
    m.spawn(0, [&](Context& ctx) {
        ctx.read(page);
        const Cycles before = ctx.machine().now();
        OpHandle h = ctx.issueFadd(page, 1);
        issue_cost = ctx.machine().now() - before;
        ctx.verify(h);
    });
    m.run();
    EXPECT_EQ(issue_cost, 25u);
}

TEST(PaperCosts, ReadingAnAvailableResultCostsTenCycles)
{
    Machine m(meshConfig());
    const Addr page = m.alloc(kPageBytes, 1);
    Cycles verify_cost = 0;
    m.spawn(0, [&](Context& ctx) {
        ctx.read(page);
        OpHandle h = ctx.issueFadd(page, 1);
        ctx.compute(1000); // result long since arrived
        const Cycles before = ctx.machine().now();
        ctx.verify(h);
        verify_cost = ctx.machine().now() - before;
    });
    m.run();
    EXPECT_EQ(verify_cost, 10u);
}

} // namespace
} // namespace core
} // namespace plus
