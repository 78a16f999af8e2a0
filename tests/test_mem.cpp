/**
 * @file
 * Unit tests for the memory subsystem: local memory frames, page
 * tables and the centralized directory, copy-lists (including the
 * OS's path-length ordering), coherence tables, and the competitive-
 * replication reference counters.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/coherence_tables.hpp"
#include "mem/copy_list.hpp"
#include "mem/local_memory.hpp"
#include "mem/page_table.hpp"
#include "mem/ref_counters.hpp"

namespace plus {
namespace mem {
namespace {

// --- LocalMemory -----------------------------------------------------------

TEST(LocalMemory, AllocatesZeroFilledFrames)
{
    LocalMemory memory(4);
    const FrameId f = memory.allocFrame();
    for (Addr off = 0; off < kPageWords; off += 100) {
        EXPECT_EQ(memory.read(f, off), 0u);
    }
}

TEST(LocalMemory, ReadBackWrites)
{
    LocalMemory memory(4);
    const FrameId f = memory.allocFrame();
    memory.write(f, 0, 1);
    memory.write(f, kPageWords - 1, 2);
    EXPECT_EQ(memory.read(f, 0), 1u);
    EXPECT_EQ(memory.read(f, kPageWords - 1), 2u);
}

TEST(LocalMemory, FramesAreIndependent)
{
    LocalMemory memory(4);
    const FrameId a = memory.allocFrame();
    const FrameId b = memory.allocFrame();
    memory.write(a, 5, 111);
    memory.write(b, 5, 222);
    EXPECT_EQ(memory.read(a, 5), 111u);
    EXPECT_EQ(memory.read(b, 5), 222u);
}

TEST(LocalMemory, FreeAndReuseZeroes)
{
    LocalMemory memory(2);
    const FrameId a = memory.allocFrame();
    memory.write(a, 0, 42);
    memory.freeFrame(a);
    EXPECT_FALSE(memory.allocated(a));
    const FrameId b = memory.allocFrame();
    EXPECT_EQ(b, a); // LIFO free list
    EXPECT_EQ(memory.read(b, 0), 0u);
}

TEST(LocalMemory, ExhaustionIsFatal)
{
    LocalMemory memory(2);
    memory.allocFrame();
    memory.allocFrame();
    EXPECT_THROW(memory.allocFrame(), FatalError);
}

TEST(LocalMemory, DoubleFreeIsPanic)
{
    LocalMemory memory(2);
    const FrameId f = memory.allocFrame();
    memory.freeFrame(f);
    EXPECT_THROW(memory.freeFrame(f), PanicError);
}

TEST(LocalMemory, OutOfRangeOffsetIsPanic)
{
    LocalMemory memory(1);
    const FrameId f = memory.allocFrame();
    EXPECT_THROW(memory.read(f, kPageWords), PanicError);
}

TEST(LocalMemory, TracksUsage)
{
    LocalMemory memory(8);
    EXPECT_EQ(memory.framesInUse(), 0u);
    const FrameId f = memory.allocFrame();
    memory.allocFrame();
    EXPECT_EQ(memory.framesInUse(), 2u);
    memory.freeFrame(f);
    EXPECT_EQ(memory.framesInUse(), 1u);
    EXPECT_EQ(memory.capacityFrames(), 8u);
}

// --- CopyList ---------------------------------------------------------------

TEST(CopyList, SingleCopyIsMaster)
{
    CopyList cl(PhysPage{3, 7});
    EXPECT_EQ(cl.size(), 1u);
    EXPECT_EQ(cl.master(), (PhysPage{3, 7}));
    EXPECT_FALSE(cl.successorOf(cl.master()).has_value());
}

TEST(CopyList, InsertAfterMaintainsOrder)
{
    CopyList cl(PhysPage{0, 0});
    cl.insertAfter(PhysPage{0, 0}, PhysPage{1, 1});
    cl.insertAfter(PhysPage{0, 0}, PhysPage{2, 2});
    // List: 0, 2, 1.
    EXPECT_EQ(cl.successorOf(PhysPage{0, 0}), (PhysPage{2, 2}));
    EXPECT_EQ(cl.successorOf(PhysPage{2, 2}), (PhysPage{1, 1}));
    EXPECT_FALSE(cl.successorOf(PhysPage{1, 1}).has_value());
}

TEST(CopyList, CopyOnFindsNode)
{
    CopyList cl(PhysPage{0, 0});
    cl.append(PhysPage{4, 9});
    EXPECT_TRUE(cl.hasCopyOn(4));
    EXPECT_EQ(cl.copyOn(4), (PhysPage{4, 9}));
    EXPECT_FALSE(cl.hasCopyOn(5));
}

TEST(CopyList, DuplicateNodeIsPanic)
{
    CopyList cl(PhysPage{0, 0});
    cl.append(PhysPage{1, 1});
    EXPECT_THROW(cl.append(PhysPage{0, 1}), PanicError);
    EXPECT_THROW(cl.insertAfter(PhysPage{0, 0}, PhysPage{1, 2}),
                 PanicError);
    EXPECT_EQ(cl.size(), 2u); // a rejected insert leaves the list as is
}

TEST(CopyList, RemovePromotesSuccessorWhenMasterRemoved)
{
    CopyList cl(PhysPage{0, 0});
    cl.append(PhysPage{1, 1});
    cl.removeOn(0);
    EXPECT_EQ(cl.master(), (PhysPage{1, 1}));
}

TEST(CopyList, OrderForPathLengthNeverHurts)
{
    const net::Topology topo(16, 4, 4);
    CopyList cl(PhysPage{0, 0});
    // Deliberately bad order: far corner, then neighbours.
    cl.append(PhysPage{15, 1});
    cl.append(PhysPage{1, 2});
    cl.append(PhysPage{4, 3});
    cl.append(PhysPage{11, 4});
    const unsigned before = cl.pathLength(topo);
    cl.orderForPathLength(topo);
    const unsigned after = cl.pathLength(topo);
    EXPECT_LE(after, before);
    // Master must stay first.
    EXPECT_EQ(cl.master(), (PhysPage{0, 0}));
    EXPECT_EQ(cl.size(), 5u);
}

TEST(CopyList, PathLengthOfChain)
{
    const net::Topology topo(16, 4, 4);
    CopyList cl(PhysPage{0, 0});
    cl.append(PhysPage{1, 0});
    cl.append(PhysPage{2, 0});
    EXPECT_EQ(cl.pathLength(topo), 2u);
}

// --- PageTable / PageDirectory ----------------------------------------------

TEST(PageTable, MissThenInstallThenHit)
{
    PageTable pt;
    EXPECT_FALSE(pt.lookup(7).has_value());
    pt.install(7, PhysPage{1, 2});
    EXPECT_EQ(pt.lookup(7), (PhysPage{1, 2}));
    EXPECT_EQ(pt.fills(), 1u);
}

TEST(PageTable, InvalidateRemoves)
{
    PageTable pt;
    pt.install(7, PhysPage{1, 2});
    pt.invalidate(7);
    EXPECT_FALSE(pt.contains(7));
    EXPECT_EQ(pt.invalidations(), 1u);
    pt.invalidate(7); // idempotent, not counted twice
    EXPECT_EQ(pt.invalidations(), 1u);
}

TEST(PageDirectory, CreateLookupDestroy)
{
    PageDirectory dir;
    dir.create(3, PhysPage{0, 5});
    EXPECT_TRUE(dir.contains(3));
    EXPECT_EQ(dir.copyList(3).master(), (PhysPage{0, 5}));
    dir.destroy(3);
    EXPECT_FALSE(dir.contains(3));

    // The recovery walk: ascending VPNs below vpnLimit(), skipping
    // destroyed pages.
    for (const Vpn vpn : {Vpn{9}, Vpn{2}, Vpn{5}}) {
        dir.create(vpn, PhysPage{0, static_cast<FrameId>(vpn)});
    }
    dir.destroy(5);
    std::vector<Vpn> walked;
    for (Vpn vpn = 0; vpn < dir.vpnLimit(); ++vpn) {
        if (dir.contains(vpn)) {
            walked.push_back(vpn);
        }
    }
    EXPECT_EQ(walked, (std::vector<Vpn>{2, 9}));
}

TEST(PageDirectory, DuplicateCreateIsPanic)
{
    PageDirectory dir;
    dir.create(3, PhysPage{0, 5});
    EXPECT_THROW(dir.create(3, PhysPage{1, 6}), PanicError);
}

// --- CoherenceTables ----------------------------------------------------------

TEST(CoherenceTables, MasterAndNextCopy)
{
    CoherenceTables tables;
    tables.setMaster(4, PhysPage{0, 9});
    EXPECT_TRUE(tables.knows(4));
    EXPECT_EQ(tables.master(4), (PhysPage{0, 9}));
    EXPECT_FALSE(tables.nextCopy(4).has_value());
    tables.setNextCopy(4, PhysPage{2, 3});
    EXPECT_EQ(tables.nextCopy(4), (PhysPage{2, 3}));
    tables.setNextCopy(4, std::nullopt);
    EXPECT_FALSE(tables.nextCopy(4).has_value());
}

TEST(CoherenceTables, EraseDropsBoth)
{
    CoherenceTables tables;
    tables.setMaster(4, PhysPage{0, 9});
    tables.setNextCopy(4, PhysPage{2, 3});
    tables.erase(4);
    EXPECT_FALSE(tables.knows(4));
    EXPECT_THROW(tables.master(4), PanicError);

    // Setting up another frame leaves the erased one empty.
    tables.setMaster(6, PhysPage{1, 2});
    tables.setNextCopy(6, PhysPage{3, 4});
    EXPECT_FALSE(tables.knows(4));
    EXPECT_FALSE(tables.nextCopy(4).has_value());
    EXPECT_EQ(tables.nextCopy(6), (PhysPage{3, 4}));
}

// --- RefCounters ----------------------------------------------------------------

TEST(RefCounters, FiresExactlyAtThreshold)
{
    RefCounters counters(3);
    int fired = 0;
    Vpn seen = 0;
    counters.setOverflowHandler([&](Vpn vpn, std::uint64_t) {
        ++fired;
        seen = vpn;
    });
    counters.recordRemoteRef(9);
    counters.recordRemoteRef(9);
    EXPECT_EQ(fired, 0);
    counters.recordRemoteRef(9);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(seen, 9u);
    // The counter re-arms.
    counters.recordRemoteRef(9);
    counters.recordRemoteRef(9);
    counters.recordRemoteRef(9);
    EXPECT_EQ(fired, 2);
}

TEST(RefCounters, PagesAreIndependent)
{
    RefCounters counters(2);
    int fired = 0;
    counters.setOverflowHandler([&](Vpn, std::uint64_t) { ++fired; });
    counters.recordRemoteRef(1);
    counters.recordRemoteRef(2);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(counters.count(1), 1u);
    EXPECT_EQ(counters.totalRemoteRefs(), 2u);
}

TEST(RefCounters, ThresholdCanBeRearmed)
{
    RefCounters counters(1000);
    int fired = 0;
    counters.setOverflowHandler([&](Vpn, std::uint64_t) { ++fired; });
    counters.recordRemoteRef(1);
    EXPECT_EQ(fired, 0);
    counters.setThreshold(2);
    counters.recordRemoteRef(1);
    EXPECT_EQ(fired, 1);
}

} // namespace
} // namespace mem
} // namespace plus
