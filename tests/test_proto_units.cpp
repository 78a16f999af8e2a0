/**
 * @file
 * Unit tests for the protocol building blocks: the RMW semantics of
 * Table 3-1, the pending-writes cache, and the delayed-operations cache.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "proto/delayed_ops.hpp"
#include "proto/pending_writes.hpp"
#include "proto/rmw.hpp"

namespace plus {
namespace proto {
namespace {

/** In-memory page for exercising executeRmw. */
class FakePage
{
  public:
    PageView
    view()
    {
        return PageView{[this](Addr off) { return words_[off]; }};
    }

    void
    apply(const RmwResult& result)
    {
        for (const auto& w : result.writes) {
            words_[w.wordOffset] = w.value;
        }
    }

    Word& operator[](Addr off) { return words_[off]; }

  private:
    std::map<Addr, Word> words_;
};

TEST(Rmw, XchngReturnsOldWritesNew)
{
    FakePage page;
    page[5] = 10;
    const RmwResult r = executeRmw(page.view(), RmwOp::Xchng, 5, 99);
    EXPECT_EQ(r.oldValue, 10u);
    ASSERT_EQ(r.writes.size(), 1u);
    EXPECT_EQ(r.writes[0].wordOffset, 5u);
    EXPECT_EQ(r.writes[0].value, 99u);
}

TEST(Rmw, CondXchngWritesOnlyWhenTopBitSet)
{
    FakePage page;
    page[5] = 10; // top bit clear
    EXPECT_TRUE(executeRmw(page.view(), RmwOp::CondXchng, 5, 99)
                    .writes.empty());
    page[5] = 10 | kTopBit;
    const RmwResult r = executeRmw(page.view(), RmwOp::CondXchng, 5, 99);
    EXPECT_EQ(r.oldValue, 10 | kTopBit);
    ASSERT_EQ(r.writes.size(), 1u);
    EXPECT_EQ(r.writes[0].value, 99u);
}

TEST(Rmw, FetchAddWrapsTwosComplement)
{
    FakePage page;
    page[0] = 5;
    const RmwResult r = executeRmw(page.view(), RmwOp::FetchAdd, 0,
                                   static_cast<Word>(-7));
    EXPECT_EQ(r.oldValue, 5u);
    EXPECT_EQ(r.writes[0].value, static_cast<Word>(-2));
}

TEST(Rmw, FetchSetSetsTopBitOnly)
{
    FakePage page;
    page[0] = 123;
    const RmwResult r = executeRmw(page.view(), RmwOp::FetchSet, 0, 0);
    EXPECT_EQ(r.oldValue, 123u);
    EXPECT_EQ(r.writes[0].value, 123u | kTopBit);
}

TEST(Rmw, MinXchngStoresOnlySmaller)
{
    FakePage page;
    page[0] = 100;
    EXPECT_TRUE(executeRmw(page.view(), RmwOp::MinXchng, 0, 100)
                    .writes.empty()); // equal is not smaller
    const RmwResult r = executeRmw(page.view(), RmwOp::MinXchng, 0, 99);
    EXPECT_EQ(r.writes[0].value, 99u);
}

TEST(Rmw, DelayedReadHasNoWrites)
{
    FakePage page;
    page[9] = 77;
    const RmwResult r = executeRmw(page.view(), RmwOp::DelayedRead, 9, 0);
    EXPECT_EQ(r.oldValue, 77u);
    EXPECT_TRUE(r.writes.empty());
}

TEST(Rmw, QueueDepositsAndAdvancesTail)
{
    FakePage page;
    page[0] = kQueueBaseOffset; // QP: tail at slot 2
    const RmwResult r = executeRmw(page.view(), RmwOp::Queue, 0, 41);
    EXPECT_EQ(r.oldValue, 0u); // slot was empty
    ASSERT_EQ(r.writes.size(), 2u);
    EXPECT_EQ(r.writes[0].wordOffset, kQueueBaseOffset);
    EXPECT_EQ(r.writes[0].value, 41u | kTopBit);
    EXPECT_EQ(r.writes[1].wordOffset, 0u); // the QP word itself
    EXPECT_EQ(r.writes[1].value, kQueueBaseOffset + 1);
}

TEST(Rmw, QueueFullReturnsTopBitAndWritesNothing)
{
    FakePage page;
    page[0] = kQueueBaseOffset;
    page[kQueueBaseOffset] = 5 | kTopBit; // slot already full
    const RmwResult r = executeRmw(page.view(), RmwOp::Queue, 0, 41);
    EXPECT_EQ(r.oldValue, 5 | kTopBit);
    EXPECT_TRUE(r.writes.empty());
}

TEST(Rmw, DequeueTakesAndAdvancesHead)
{
    FakePage page;
    page[1] = kQueueBaseOffset; // DQP
    page[kQueueBaseOffset] = 41 | kTopBit;
    const RmwResult r = executeRmw(page.view(), RmwOp::Dequeue, 1, 0);
    EXPECT_EQ(r.oldValue, 41 | kTopBit);
    ASSERT_EQ(r.writes.size(), 2u);
    EXPECT_EQ(r.writes[0].value, 41u); // full bit cleared
    EXPECT_EQ(r.writes[1].wordOffset, 1u);
    EXPECT_EQ(r.writes[1].value, kQueueBaseOffset + 1);
}

TEST(Rmw, DequeueEmptyWritesNothing)
{
    FakePage page;
    page[1] = kQueueBaseOffset;
    const RmwResult r = executeRmw(page.view(), RmwOp::Dequeue, 1, 0);
    EXPECT_EQ(r.oldValue, 0u); // top bit clear = empty
    EXPECT_TRUE(r.writes.empty());
}

TEST(Rmw, QueueOffsetWrapsAtPageEnd)
{
    FakePage page;
    page[0] = kPageWords - 1; // tail at the last word
    const RmwResult r = executeRmw(page.view(), RmwOp::Queue, 0, 1);
    ASSERT_EQ(r.writes.size(), 2u);
    EXPECT_EQ(r.writes[1].value, kQueueBaseOffset); // wrapped
}

TEST(Rmw, QueueRoundTripThroughFullPage)
{
    // Property: pushing then popping N items through the circular queue
    // preserves order and leaves the queue empty.
    FakePage page;
    page[0] = kQueueBaseOffset;
    page[1] = kQueueBaseOffset;
    const unsigned n = 100;
    for (Word i = 0; i < n; ++i) {
        const RmwResult r = executeRmw(page.view(), RmwOp::Queue, 0, i);
        ASSERT_FALSE(r.oldValue & kTopBit);
        page.apply(r);
    }
    for (Word i = 0; i < n; ++i) {
        const RmwResult r = executeRmw(page.view(), RmwOp::Dequeue, 1, 0);
        ASSERT_TRUE(r.oldValue & kTopBit);
        EXPECT_EQ(r.oldValue & kPayloadMask, i);
        page.apply(r);
    }
    const RmwResult r = executeRmw(page.view(), RmwOp::Dequeue, 1, 0);
    EXPECT_FALSE(r.oldValue & kTopBit);
}

TEST(Rmw, ComplexOpsAreTheFiftyTwoCycleOnes)
{
    EXPECT_TRUE(isComplexOp(RmwOp::Queue));
    EXPECT_TRUE(isComplexOp(RmwOp::Dequeue));
    EXPECT_TRUE(isComplexOp(RmwOp::MinXchng));
    EXPECT_FALSE(isComplexOp(RmwOp::Xchng));
    EXPECT_FALSE(isComplexOp(RmwOp::FetchAdd));
    EXPECT_FALSE(isComplexOp(RmwOp::DelayedRead));
}

// --- PendingWrites -----------------------------------------------------------

TEST(PendingWrites, TracksInFlightByAddress)
{
    PendingWrites pw(8);
    EXPECT_TRUE(pw.empty());
    const auto tag = pw.insert(1, 5);
    EXPECT_TRUE(pw.pendingOn(1, 5));
    EXPECT_FALSE(pw.pendingOn(1, 6));
    EXPECT_FALSE(pw.pendingOn(2, 5));
    pw.complete(tag);
    EXPECT_TRUE(pw.empty());
}

TEST(PendingWrites, FullAtCapacity)
{
    PendingWrites pw(2);
    pw.insert(1, 0);
    pw.insert(1, 1);
    EXPECT_TRUE(pw.full());
    EXPECT_THROW(pw.insert(1, 2), PanicError);
}

TEST(PendingWrites, WhenEmptyFiresOnDrain)
{
    PendingWrites pw(4);
    const auto t1 = pw.insert(1, 0);
    const auto t2 = pw.insert(1, 1);
    int fired = 0;
    pw.whenEmpty([&] { ++fired; });
    pw.complete(t1);
    EXPECT_EQ(fired, 0);
    pw.complete(t2);
    EXPECT_EQ(fired, 1);
}

TEST(PendingWrites, WhenEmptyImmediateIfEmpty)
{
    PendingWrites pw(4);
    int fired = 0;
    pw.whenEmpty([&] { ++fired; });
    EXPECT_EQ(fired, 1);
}

TEST(PendingWrites, WhenSlotFreeQueuesBehindCapacity)
{
    PendingWrites pw(1);
    const auto t1 = pw.insert(1, 0);
    int fired = 0;
    pw.whenSlotFree([&] { ++fired; });
    pw.whenSlotFree([&] { ++fired; });
    EXPECT_EQ(fired, 0);
    pw.complete(t1);
    // The first waiter may refill the slot; here neither does, so both
    // run.
    EXPECT_EQ(fired, 2);
}

TEST(PendingWrites, SlotWaiterThatRefillsBlocksTheNext)
{
    PendingWrites pw(1);
    const auto t1 = pw.insert(1, 0);
    int second = 0;
    PendingWrites::Tag t2 = 0;
    pw.whenSlotFree([&] { t2 = pw.insert(2, 0); });
    pw.whenSlotFree([&] { ++second; });
    pw.complete(t1);
    EXPECT_EQ(second, 0); // first waiter took the slot
    pw.complete(t2);
    EXPECT_EQ(second, 1);
}

TEST(PendingWrites, WhenAddrClearWaitsForThatAddressOnly)
{
    PendingWrites pw(4);
    const auto ta = pw.insert(1, 0);
    const auto tb = pw.insert(1, 1);
    int fired = 0;
    pw.whenAddrClear(1, 0, [&] { ++fired; });
    pw.complete(tb);
    EXPECT_EQ(fired, 0);
    pw.complete(ta);
    EXPECT_EQ(fired, 1);
}

TEST(PendingWrites, DuplicateAddressesBothBlockReads)
{
    PendingWrites pw(4);
    const auto t1 = pw.insert(1, 0);
    const auto t2 = pw.insert(1, 0);
    int fired = 0;
    pw.whenAddrClear(1, 0, [&] { ++fired; });
    pw.complete(t1);
    EXPECT_EQ(fired, 0);
    pw.complete(t2);
    EXPECT_EQ(fired, 1);
}

TEST(PendingWrites, HighWaterMark)
{
    PendingWrites pw(8);
    for (int i = 0; i < 5; ++i) {
        pw.insert(1, i);
        pw.noteHighWater();
    }
    EXPECT_EQ(pw.maxInFlight(), 5u);
}

// --- DelayedOpCache -------------------------------------------------------------

TEST(DelayedOps, AllocateCompleteTake)
{
    DelayedOpCache cache(8);
    const auto h = cache.allocate(RmwOp::FetchAdd);
    EXPECT_FALSE(cache.ready(h));
    cache.complete(h, 42);
    EXPECT_TRUE(cache.ready(h));
    EXPECT_EQ(cache.take(h), 42u);
    EXPECT_EQ(cache.inFlight(), 0u);
}

TEST(DelayedOps, CapacityEnforced)
{
    DelayedOpCache cache(2);
    cache.allocate(RmwOp::Xchng);
    cache.allocate(RmwOp::Xchng);
    EXPECT_TRUE(cache.full());
    EXPECT_THROW(cache.allocate(RmwOp::Xchng), PanicError);
}

TEST(DelayedOps, WhenReadyFiresOnCompletion)
{
    DelayedOpCache cache(4);
    const auto h = cache.allocate(RmwOp::Queue);
    Word seen = 0;
    cache.whenReady(h, [&](Word v) { seen = v; });
    EXPECT_EQ(seen, 0u);
    cache.complete(h, 7);
    EXPECT_EQ(seen, 7u);
}

TEST(DelayedOps, WhenReadyImmediateIfReady)
{
    DelayedOpCache cache(4);
    const auto h = cache.allocate(RmwOp::Queue);
    cache.complete(h, 9);
    Word seen = 0;
    cache.whenReady(h, [&](Word v) { seen = v; });
    EXPECT_EQ(seen, 9u);
}

TEST(DelayedOps, SlotWaitersRunAfterTake)
{
    DelayedOpCache cache(1);
    const auto h = cache.allocate(RmwOp::Xchng);
    int fired = 0;
    cache.whenSlotFree([&] { ++fired; });
    cache.complete(h, 1);
    EXPECT_EQ(fired, 0); // still occupied until the result is read
    cache.take(h);
    EXPECT_EQ(fired, 1);
}

TEST(DelayedOps, HandlesAreReusedAfterTake)
{
    DelayedOpCache cache(2);
    const auto h1 = cache.allocate(RmwOp::Xchng);
    cache.complete(h1, 1);
    cache.take(h1);
    const auto h2 = cache.allocate(RmwOp::Xchng);
    EXPECT_EQ(h2, h1);
}

TEST(DelayedOps, TakeBeforeResultIsPanic)
{
    DelayedOpCache cache(2);
    const auto h = cache.allocate(RmwOp::Xchng);
    EXPECT_THROW(cache.take(h), PanicError);
}

} // namespace
} // namespace proto
} // namespace plus
