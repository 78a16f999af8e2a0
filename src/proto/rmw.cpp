#include "proto/rmw.hpp"

#include "common/panic.hpp"

namespace plus {
namespace proto {

const char*
toString(RmwOp op)
{
    switch (op) {
      case RmwOp::Xchng: return "xchng";
      case RmwOp::CondXchng: return "cond-xchng";
      case RmwOp::FetchAdd: return "fetch-and-add";
      case RmwOp::FetchSet: return "fetch-and-set";
      case RmwOp::Queue: return "queue";
      case RmwOp::Dequeue: return "dequeue";
      case RmwOp::MinXchng: return "min-xchng";
      case RmwOp::DelayedRead: return "delayed-read";
      default: return "?";
    }
}

bool
isComplexOp(RmwOp op)
{
    return op == RmwOp::Queue || op == RmwOp::Dequeue ||
           op == RmwOp::MinXchng;
}

namespace {

/** Next queue offset, wrapping from kPageWords to kQueueBaseOffset. */
Addr
nextQueueOffset(Addr offset)
{
    const Addr next = offset + 1;
    return next >= kPageWords ? kQueueBaseOffset : next;
}

} // namespace

RmwResult
executeRmw(const PageView& page, RmwOp op, Addr word_offset, Word operand)
{
    PLUS_ASSERT(word_offset < kPageWords, "rmw offset outside page");
    RmwResult result;

    switch (op) {
      case RmwOp::Xchng: {
        result.oldValue = page.read(word_offset);
        result.writes.push_back({word_offset, operand});
        break;
      }
      case RmwOp::CondXchng: {
        result.oldValue = page.read(word_offset);
        if (result.oldValue & kTopBit) {
            result.writes.push_back({word_offset, operand});
        }
        break;
      }
      case RmwOp::FetchAdd: {
        result.oldValue = page.read(word_offset);
        // Two's-complement add: a signed operand is just wraparound.
        result.writes.push_back({word_offset, result.oldValue + operand});
        break;
      }
      case RmwOp::FetchSet: {
        result.oldValue = page.read(word_offset);
        result.writes.push_back({word_offset, result.oldValue | kTopBit});
        break;
      }
      case RmwOp::Queue: {
        // The addressed location holds the word offset of the queue tail
        // within this page.
        const Word tail_word = page.read(word_offset);
        const Addr tail = tail_word % kPageWords;
        const Word slot = page.read(tail);
        result.oldValue = slot;
        if (!(slot & kTopBit)) {
            // Free slot: deposit the payload with the full bit set and
            // advance the tail offset.
            result.writes.push_back(
                {tail, (operand & kPayloadMask) | kTopBit});
            result.writes.push_back(
                {word_offset, static_cast<Word>(nextQueueOffset(tail))});
        }
        break;
      }
      case RmwOp::Dequeue: {
        // The addressed location holds the word offset of the queue head.
        const Word head_word = page.read(word_offset);
        const Addr head = head_word % kPageWords;
        const Word slot = page.read(head);
        result.oldValue = slot;
        if (slot & kTopBit) {
            // Full slot: clear the full bit and advance the head offset.
            result.writes.push_back({head, slot & kPayloadMask});
            result.writes.push_back(
                {word_offset, static_cast<Word>(nextQueueOffset(head))});
        }
        break;
      }
      case RmwOp::MinXchng: {
        result.oldValue = page.read(word_offset);
        if ((operand & kPayloadMask) < (result.oldValue & kPayloadMask)) {
            result.writes.push_back({word_offset, operand});
        }
        break;
      }
      case RmwOp::DelayedRead: {
        result.oldValue = page.read(word_offset);
        break;
      }
      default:
        PLUS_PANIC("unknown rmw op");
    }
    return result;
}

} // namespace proto
} // namespace plus
