/**
 * @file
 * Synchronization library built on PLUS's interlocked operations.
 *
 * The paper argues (Section 3.2, "Complex is Better") that hardware
 * synchronization primitives should be encapsulated in higher-level
 * constructs; these are those constructs:
 *
 *  - SpinLock: test-and-test-and-set with backoff over fetch-and-set.
 *  - QueuedLock: the lock-with-queue of Table 3-2 — fetch-and-add on a
 *    counter plus the hardware queue/dequeue operations, with sleeping
 *    waiters woken through per-thread mailbox words on their own nodes.
 *  - Barrier: sense-reversing barrier whose sense word lives on a page
 *    that can be replicated so arrival spinning is node-local.
 *  - Semaphore: counting P/V in the same queue-and-mailbox style.
 *
 * All objects are created host-side (allocating and initializing their
 * shared memory through Machine backdoors) and then used by simulated
 * threads through a Context.
 */

#ifndef PLUS_CORE_SYNC_HPP_
#define PLUS_CORE_SYNC_HPP_

#include <vector>

#include "common/types.hpp"
#include "core/context.hpp"
#include "core/machine.hpp"

namespace plus {
namespace core {

/** Simple test-and-test-and-set lock; one word of shared memory. */
class SpinLock
{
  public:
    /** Wrap an existing, zero-initialized word. */
    explicit SpinLock(Addr word) : addr_(word) {}

    /** Allocate a fresh page on @p home and put the lock in word 0. */
    static SpinLock create(Machine& machine, NodeId home);

    void acquire(Context& ctx);

    /** True if the lock was free and is now held. */
    bool tryAcquire(Context& ctx);

    /** Fences, then frees the lock. */
    void release(Context& ctx);

    Addr address() const { return addr_; }

  private:
    Addr addr_;
};

/**
 * The lock-with-queue of Table 3-2. Participants are indexed 0..n-1;
 * each has a mailbox word allocated on its own node so that sleeping is
 * a node-local spin.
 */
class QueuedLock
{
  public:
    /**
     * @param home          Node holding the lock counter and the queue.
     * @param thread_nodes  thread_nodes[i] is participant i's node.
     */
    static QueuedLock create(Machine& machine, NodeId home,
                             const std::vector<NodeId>& thread_nodes);

    /** Acquire as participant @p me. */
    void acquire(Context& ctx, unsigned me);

    /** Release, handing the lock to the oldest queued waiter if any. */
    void release(Context& ctx);

  private:
    QueuedLock() = default;

    Addr lock_ = 0;            ///< fetch-and-add counter
    Addr queuePage_ = 0;       ///< word 0 = QP (tail), word 1 = DQP (head)
    std::vector<Addr> mailboxes_;
};

/** Sense-reversing barrier; see BarrierWaiter for the per-thread side. */
class Barrier
{
  public:
    /**
     * @param home       Node holding the arrival counter and the sense
     *                   word's master copy.
     * @param n          Number of participants per episode.
     * @param replicate_sense  Replicate the sense page to every node so
     *                   that waiting is a local spin.
     */
    static Barrier create(Machine& machine, NodeId home, unsigned n,
                          bool replicate_sense);

    unsigned participants() const { return n_; }

  private:
    friend class BarrierWaiter;
    Barrier() = default;

    Addr count_ = 0;
    Addr sense_ = 0;
    unsigned n_ = 0;
};

/** A thread's participation state in a Barrier (holds its local sense). */
class BarrierWaiter
{
  public:
    explicit BarrierWaiter(const Barrier& barrier) : barrier_(barrier) {}

    /** Arrive and wait for all participants. */
    void wait(Context& ctx);

  private:
    const Barrier& barrier_;
    Word sense_ = 0;
};

/**
 * Hierarchical barrier for machines hosting several threads per node
 * (ContextSwitch mode): threads first combine on a node-local count,
 * one representative per node joins a global sense-reversing barrier,
 * and everyone else spins on a node-local sense word. Arrival traffic
 * at the global master scales with nodes, not threads.
 */
class NodeBarrier
{
  public:
    /**
     * @param thread_nodes  thread_nodes[i] is participant i's node.
     * @param replicate_global_sense  Replicate the global sense page so
     *        representatives spin locally.
     */
    static NodeBarrier create(Machine& machine,
                              const std::vector<NodeId>& thread_nodes,
                              bool replicate_global_sense);

    unsigned participants() const
    {
        return static_cast<unsigned>(nodeOf_.size());
    }

  private:
    friend class NodeBarrierWaiter;
    NodeBarrier() = default;

    std::vector<NodeId> nodeOf_;      ///< participant -> node
    std::vector<unsigned> perNode_;   ///< node -> participant count
    std::vector<Addr> localCount_;    ///< node -> local arrival counter
    std::vector<Addr> localSense_;    ///< node -> local release word
    Addr globalCount_ = 0;
    Addr globalSense_ = 0;
    unsigned activeNodes_ = 0;
};

/** A thread's participation state in a NodeBarrier. */
class NodeBarrierWaiter
{
  public:
    NodeBarrierWaiter(const NodeBarrier& barrier, unsigned me)
        : barrier_(barrier), me_(me)
    {
    }

    void wait(Context& ctx);

  private:
    const NodeBarrier& barrier_;
    unsigned me_;
    Word sense_ = 0;
};

/** Counting semaphore with queued sleepers (P and V of Section 2.1). */
class Semaphore
{
  public:
    static Semaphore create(Machine& machine, NodeId home,
                            std::int32_t initial,
                            const std::vector<NodeId>& thread_nodes);

    /** P: decrement; sleep in the queue if the semaphore was exhausted. */
    void p(Context& ctx, unsigned me);

    /** V: increment; wake the oldest sleeper if any. */
    void v(Context& ctx);

    Addr valueAddress() const { return value_; }

  private:
    Semaphore() = default;

    Addr value_ = 0;
    Addr queuePage_ = 0;
    std::vector<Addr> mailboxes_;
};

/**
 * Allocate one mailbox word per participant, each on the participant's
 * own node (shared by QueuedLock and Semaphore).
 */
std::vector<Addr> allocMailboxes(Machine& machine,
                                 const std::vector<NodeId>& thread_nodes);

/** Sleep on @p mailbox until woken, then reset it. */
void mailboxWait(Context& ctx, Addr mailbox);

/** Wake the sleeper on @p mailbox. */
void mailboxWake(Context& ctx, Addr mailbox);

} // namespace core
} // namespace plus

#endif // PLUS_CORE_SYNC_HPP_
