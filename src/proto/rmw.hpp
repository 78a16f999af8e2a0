/**
 * @file
 * The interlocked (delayed) operations of Table 3-1 and their memory
 * semantics. Every operation executes atomically at the master copy,
 * returns the *old* contents of memory to the originator, and produces
 * zero, one or two word writes that propagate down the copy-list.
 *
 * Conventions (see DESIGN.md "Interpretation notes"):
 *  - Bit 31 (kTopBit) is the full/lock flag; payloads are 31-bit.
 *  - queue/dequeue address a word holding a *word offset within the same
 *    page* of the queue tail/head; offsets advance circularly within
 *    [kQueueBaseOffset, kPageWords).
 *  - min-xchng compares 31-bit payloads as unsigned integers.
 */

#ifndef PLUS_PROTO_RMW_HPP_
#define PLUS_PROTO_RMW_HPP_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>

#include "common/panic.hpp"
#include "common/types.hpp"

namespace plus {
namespace proto {

/** The delayed operations of Table 3-1. */
enum class RmwOp : std::uint8_t {
    Xchng,       ///< return old value; write operand
    CondXchng,   ///< return old value; write operand if old's top bit set
    FetchAdd,    ///< return old value; add operand (two's complement)
    FetchSet,    ///< return old value; set the top bit
    Queue,       ///< enqueue operand at the tail (Table 3-1 "queue")
    Dequeue,     ///< dequeue from the head (Table 3-1 "dequeue")
    MinXchng,    ///< return old value; write operand if smaller
    DelayedRead, ///< return old value; no modification
};

const char* toString(RmwOp op);

/**
 * First word offset of the circular queue region of a queue page:
 * queue/dequeue offsets wrap from kPageWords back to this value. The
 * words below it hold the tail (QP) and head (DQP) offsets.
 */
constexpr Addr kQueueBaseOffset = 2;

/** True for the operations the paper costs at 52 cycles instead of 39. */
bool isComplexOp(RmwOp op);

/** Word-granular view of the page the operation addresses. */
struct PageView {
    std::function<Word(Addr word_offset)> read;
};

/** One word written at a copy. */
struct WordWrite {
    Addr wordOffset = 0;
    Word value = 0;
};

/**
 * The word writes of one update: a write makes one, an interlocked
 * operation zero, one or two (queue/dequeue write the slot and the
 * offset word). Fixed capacity, so an update chain carries its writes by
 * value.
 */
class WordWrites
{
  public:
    static constexpr std::size_t kMax = 2;

    WordWrites() = default;
    WordWrites(std::initializer_list<WordWrite> writes)
    {
        for (const WordWrite& w : writes) {
            push_back(w);
        }
    }

    void
    push_back(WordWrite w)
    {
        PLUS_ASSERT(size_ < kMax, "more than ", kMax, " word writes");
        writes_[size_++] = w;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const WordWrite& operator[](std::size_t i) const { return writes_[i]; }
    const WordWrite& front() const { return writes_[0]; }
    const WordWrite* begin() const { return writes_.data(); }
    const WordWrite* end() const { return writes_.data() + size_; }

  private:
    std::array<WordWrite, kMax> writes_{};
    std::uint8_t size_ = 0;
};

/** Result of executing an operation at the master copy. */
struct RmwResult {
    /** Old memory contents returned to the originator. */
    Word oldValue = 0;
    /** Writes to apply at the master and propagate to all copies. */
    WordWrites writes;
};

/**
 * Execute @p op against the page seen through @p page.
 *
 * @param page        Read access to the addressed page's current contents.
 * @param word_offset Offset of the addressed word within the page.
 * @param operand     The operation's data word.
 */
RmwResult executeRmw(const PageView& page, RmwOp op, Addr word_offset,
                     Word operand);

} // namespace proto
} // namespace plus

#endif // PLUS_PROTO_RMW_HPP_
