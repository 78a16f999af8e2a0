/**
 * @file
 * Unit tests for the protocol building blocks: the RMW semantics of
 * Table 3-1, the message wire sizes, the pending-writes cache, and the
 * delayed-operations cache.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <type_traits>
#include <variant>
#include <vector>

#include "proto/delayed_ops.hpp"
#include "proto/messages.hpp"
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

TEST(Rmw, WordWritesHoldAtMostTwo)
{
    WordWrites writes{WordWrite{1, 10}, WordWrite{2, 20}};
    ASSERT_EQ(writes.size(), 2u);
    EXPECT_EQ(writes.front().value, 10u);
    EXPECT_EQ(writes[1].wordOffset, 2u);
    EXPECT_THROW(writes.push_back(WordWrite{3, 30}), PanicError);
}

/** The Message alternative that carries a @p type message. */
template <MsgType type>
using AlternativeOf =
    std::variant_alternative_t<1 + static_cast<std::size_t>(type), Message>;

static_assert(std::variant_size_v<Message> ==
              1 + static_cast<std::size_t>(MsgType::NumTypes));
static_assert(
    std::is_same_v<std::variant_alternative_t<0, Message>, std::monostate>);
static_assert(std::is_same_v<AlternativeOf<MsgType::ReadReq>, ReadReq>);
static_assert(std::is_same_v<AlternativeOf<MsgType::ReadResp>, ReadResp>);
static_assert(std::is_same_v<AlternativeOf<MsgType::WriteReq>, WriteReq>);
static_assert(std::is_same_v<AlternativeOf<MsgType::UpdateReq>, UpdateReq>);
static_assert(std::is_same_v<AlternativeOf<MsgType::WriteAck>, WriteAck>);
static_assert(std::is_same_v<AlternativeOf<MsgType::RmwReq>, RmwReq>);
static_assert(std::is_same_v<AlternativeOf<MsgType::RmwResp>, RmwResp>);
static_assert(std::is_same_v<AlternativeOf<MsgType::Nack>, Nack>);
static_assert(
    std::is_same_v<AlternativeOf<MsgType::PageCopyData>, PageCopyData>);
static_assert(
    std::is_same_v<AlternativeOf<MsgType::PageCopyDone>, PageCopyDone>);
static_assert(std::is_same_v<AlternativeOf<MsgType::FrameFlush>, FrameFlush>);

TEST(Messages, WireBytesFollowTheWireModel)
{
    EXPECT_EQ(wireBytes(Message{}), 0u);
    EXPECT_EQ(wireBytes(ReadReq{}), 12u);
    EXPECT_EQ(wireBytes(ReadResp{}), 8u);
    EXPECT_EQ(wireBytes(WriteReq{}), 16u);
    // 8 + 8 per word written, 8 + 4 per word invalidated.
    const WordWrites one{WordWrite{1, 10}};
    const WordWrites two{WordWrite{1, 10}, WordWrite{2, 20}};
    EXPECT_EQ(wireBytes(UpdateReq{.writes = one}), 16u);
    EXPECT_EQ(wireBytes(UpdateReq{.writes = two}), 24u);
    EXPECT_EQ(wireBytes(UpdateReq{.writes = one, .invalidate = true}), 12u);
    EXPECT_EQ(wireBytes(UpdateReq{.writes = two, .invalidate = true}), 16u);
    // A master-routed ack carries the 8-byte chain identity.
    EXPECT_EQ(wireBytes(WriteAck{}), 4u);
    EXPECT_EQ(wireBytes(WriteAck{.chainId = 7}), 12u);
    EXPECT_EQ(wireBytes(RmwReq{}), 20u);
    EXPECT_EQ(wireBytes(RmwResp{}), 8u);
    EXPECT_EQ(wireBytes(Nack{}), 16u);
    // 12 + 4 per word + 8 per validity-mask word.
    EXPECT_EQ(wireBytes(PageCopyData{.words = std::vector<Word>(32)}), 140u);
    EXPECT_EQ(wireBytes(PageCopyData{.words = std::vector<Word>(5),
                                     .validMask = {~0ull}}),
              40u);
    EXPECT_EQ(wireBytes(PageCopyDone{}), 4u);
    EXPECT_EQ(wireBytes(FrameFlush{}), 8u);
}

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

    // Out-of-order completions: the walk stays in ascending tag order.
    std::vector<PendingWrites::Tag> tags;
    for (Addr word = 0; word < 5; ++word) {
        tags.push_back(pw.insert(2, word));
    }
    pw.complete(tags[3]);
    pw.complete(tags[0]);
    const auto t5 = pw.insert(2, 0);
    const std::vector<PendingWrites::Tag> live{tags[1], tags[2], tags[4], t5};
    EXPECT_EQ(pw.sortedTags(), live);
    EXPECT_TRUE(pw.pendingOn(2, 0)); // re-written by t5
    EXPECT_FALSE(pw.pendingOn(2, 3));
    EXPECT_TRUE(pw.pendingOn(2, 4));
    pw.complete(t5);
    EXPECT_FALSE(pw.pendingOn(2, 0));
}

TEST(PendingWrites, FullAtCapacity)
{
    PendingWrites pw(2);
    pw.insert(1, 0);
    pw.insert(1, 1);
    EXPECT_TRUE(pw.full());
    EXPECT_THROW(pw.insert(1, 2), PanicError);
}

TEST(PendingWrites, HighWaterMark)
{
    PendingWrites pw(8);
    for (int i = 0; i < 5; ++i) {
        pw.insert(1, i);
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
