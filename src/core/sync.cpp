#include "core/sync.hpp"

#include <algorithm>
#include <map>

#include "common/panic.hpp"

namespace plus {
namespace core {

namespace {

/** Word address of the queue-tail (QP) word of a queue page. */
Addr
qpAddr(Addr queue_page)
{
    return queue_page;
}

/** Word address of the queue-head (DQP) word of a queue page. */
Addr
dqpAddr(Addr queue_page)
{
    return queue_page + kWordBytes;
}

/** Allocate and initialize one hardware-queue page on @p home. */
Addr
allocQueuePage(Machine& machine, NodeId home)
{
    const Addr page = machine.alloc(kPageBytes, home);
    const auto base = static_cast<Word>(proto::kQueueBaseOffset);
    machine.poke(qpAddr(page), base);
    machine.poke(dqpAddr(page), base);
    return page;
}

} // namespace

std::vector<Addr>
allocMailboxes(Machine& machine, const std::vector<NodeId>& thread_nodes)
{
    // One page per distinct node; mailbox words are handed out from the
    // node's page in participant order so each sleeper spins locally.
    std::map<NodeId, Addr> pages;
    std::map<NodeId, Addr> next;
    std::vector<Addr> mailboxes;
    mailboxes.reserve(thread_nodes.size());
    for (NodeId node : thread_nodes) {
        auto it = pages.find(node);
        if (it == pages.end()) {
            const Addr page = machine.alloc(kPageBytes, node);
            it = pages.emplace(node, page).first;
            next[node] = page;
        }
        PLUS_ASSERT(next[node] < it->second + kPageBytes,
                    "more than a page of mailboxes on one node");
        mailboxes.push_back(next[node]);
        next[node] += kWordBytes;
    }
    return mailboxes;
}

void
mailboxWait(Context& ctx, Addr mailbox)
{
    // "go to sleep until someone wakes me up": modelled as a node-local
    // spin on the mailbox word.
    while (ctx.read(mailbox) == 0) {
        ctx.pause(8);
    }
    ctx.write(mailbox, 0);
    ctx.writeFence(); // the clear must not be overtaken by a re-wake
}

void
mailboxWake(Context& ctx, Addr mailbox)
{
    ctx.write(mailbox, 1);
}

// --------------------------------------------------------------------------
// SpinLock
// --------------------------------------------------------------------------

SpinLock
SpinLock::create(Machine& machine, NodeId home)
{
    return SpinLock(machine.alloc(kPageBytes, home));
}

void
SpinLock::acquire(Context& ctx)
{
    Cycles backoff = 4;
    while (true) {
        // Test-and-test-and-set: spin on an ordinary read (local if the
        // page is replicated) before paying for the interlocked op.
        if (!(ctx.read(addr_) & kTopBit)) {
            if (!(ctx.fetchSet(addr_) & kTopBit)) {
                return;
            }
        }
        ctx.pause(backoff);
        backoff = std::min<Cycles>(backoff * 2, 256);
    }
}

bool
SpinLock::tryAcquire(Context& ctx)
{
    return !(ctx.fetchSet(addr_) & kTopBit);
}

void
SpinLock::release(Context& ctx)
{
    // The write fence makes every critical-section write visible before
    // the lock is seen free (Section 2.3's explicit write fence); the
    // releasing processor itself keeps running.
    ctx.writeFence();
    ctx.write(addr_, 0);
}

// --------------------------------------------------------------------------
// QueuedLock (Table 3-2)
// --------------------------------------------------------------------------

QueuedLock
QueuedLock::create(Machine& machine, NodeId home,
                   const std::vector<NodeId>& thread_nodes)
{
    QueuedLock lock;
    lock.lock_ = machine.alloc(kPageBytes, home);
    lock.queuePage_ = allocQueuePage(machine, home);
    lock.mailboxes_ = allocMailboxes(machine, thread_nodes);
    return lock;
}

void
QueuedLock::acquire(Context& ctx, unsigned me)
{
    PLUS_ASSERT(me < mailboxes_.size(), "unknown lock participant ", me);
    if (ctx.fadd(lock_, 1) != 0) {
        // Lock unavailable: queue myself for obtaining the lock; spin if
        // the queue is full (unlikely).
        while (ctx.enqueue(qpAddr(queuePage_), me) & kTopBit) {
            ctx.pause(16);
        }
        mailboxWait(ctx, mailboxes_[me]);
    }
}

void
QueuedLock::release(Context& ctx)
{
    ctx.writeFence(); // critical-section writes complete before handoff
    if (ctx.fadd(lock_, static_cast<Word>(-1)) > 1) {
        // Some other thread is waiting: pop its id from the queue (loop
        // if the winner of the fadd race has not enqueued itself yet)
        // and hand it the lock.
        Word k;
        while (!((k = ctx.dequeue(dqpAddr(queuePage_))) & kTopBit)) {
            ctx.pause(8);
        }
        mailboxWake(ctx, mailboxes_[k & kPayloadMask]);
    }
}

// --------------------------------------------------------------------------
// Barrier
// --------------------------------------------------------------------------

Barrier
Barrier::create(Machine& machine, NodeId home, unsigned n,
                bool replicate_sense)
{
    PLUS_ASSERT(n > 0, "barrier needs at least one participant");
    Barrier barrier;
    barrier.count_ = machine.alloc(kPageBytes, home);
    const Addr sense_page = machine.alloc(kPageBytes, home);
    barrier.sense_ = sense_page;
    barrier.n_ = n;
    if (replicate_sense) {
        for (NodeId node = 0; node < machine.nodeCount(); ++node) {
            machine.replicate(sense_page, node);
        }
    }
    return barrier;
}

void
BarrierWaiter::wait(Context& ctx)
{
    sense_ ^= 1;
    const Word my = sense_;
    // This episode's writes must complete before the arrival is
    // announced; the write fence orders the fadd behind them without
    // stalling the processor.
    ctx.writeFence();
    const Word arrived = ctx.fadd(barrier_.count_, 1);
    if (arrived == barrier_.n_ - 1) {
        // Last arriver: reset the counter for the next episode, order
        // the reset before the release, then flip the sense (which
        // propagates to all replicas of the sense page).
        ctx.write(barrier_.count_, 0);
        ctx.writeFence();
        ctx.write(barrier_.sense_, my);
    } else {
        while (ctx.read(barrier_.sense_) != my) {
            ctx.pause(8);
        }
    }
}

// --------------------------------------------------------------------------
// NodeBarrier
// --------------------------------------------------------------------------

NodeBarrier
NodeBarrier::create(Machine& machine,
                    const std::vector<NodeId>& thread_nodes,
                    bool replicate_global_sense)
{
    PLUS_ASSERT(!thread_nodes.empty(), "barrier needs participants");
    NodeBarrier barrier;
    barrier.nodeOf_ = thread_nodes;
    const unsigned nodes = machine.nodeCount();
    barrier.perNode_.assign(nodes, 0);
    for (NodeId n : thread_nodes) {
        PLUS_ASSERT(n < nodes, "participant on unknown node");
        barrier.perNode_[n] += 1;
    }
    barrier.localCount_.assign(nodes, 0);
    barrier.localSense_.assign(nodes, 0);
    for (NodeId n = 0; n < nodes; ++n) {
        if (barrier.perNode_[n] > 0) {
            // Counter and release word on the participants' own node:
            // the non-representative spin is a local read.
            const Addr page = machine.alloc(kPageBytes, n);
            barrier.localCount_[n] = page;
            barrier.localSense_[n] = page + kWordBytes;
            barrier.activeNodes_ += 1;
        }
    }
    barrier.globalCount_ = machine.alloc(kPageBytes, 0);
    const Addr sense_page = machine.alloc(kPageBytes, 0);
    barrier.globalSense_ = sense_page;
    if (replicate_global_sense) {
        for (NodeId n = 0; n < nodes; ++n) {
            if (barrier.perNode_[n] > 0) {
                machine.replicate(sense_page, n);
            }
        }
        machine.settle();
    }
    return barrier;
}

void
NodeBarrierWaiter::wait(Context& ctx)
{
    sense_ ^= 1;
    const Word my = sense_;
    const NodeId node = barrier_.nodeOf_[me_];
    const unsigned local_n = barrier_.perNode_[node];

    ctx.writeFence(); // episode writes complete before the arrival

    const Word arrived = ctx.fadd(barrier_.localCount_[node], 1);
    if (arrived != local_n - 1) {
        // Not the node's last arriver: spin locally.
        while (ctx.read(barrier_.localSense_[node]) != my) {
            ctx.pause(8);
        }
        return;
    }

    // Node representative: reset the local counter, join the global
    // sense-reversing barrier, then release the node.
    ctx.write(barrier_.localCount_[node], 0);
    ctx.writeFence();
    const Word global =
        ctx.fadd(barrier_.globalCount_, 1);
    if (global == barrier_.activeNodes_ - 1) {
        ctx.write(barrier_.globalCount_, 0);
        ctx.writeFence();
        ctx.write(barrier_.globalSense_, my);
    } else {
        while (ctx.read(barrier_.globalSense_) != my) {
            ctx.pause(8);
        }
    }
    ctx.write(barrier_.localSense_[node], my);
}

// --------------------------------------------------------------------------
// Semaphore
// --------------------------------------------------------------------------

Semaphore
Semaphore::create(Machine& machine, NodeId home, std::int32_t initial,
                  const std::vector<NodeId>& thread_nodes)
{
    Semaphore sem;
    sem.value_ = machine.alloc(kPageBytes, home);
    sem.queuePage_ = allocQueuePage(machine, home);
    sem.mailboxes_ = allocMailboxes(machine, thread_nodes);
    machine.poke(sem.value_, static_cast<Word>(initial));
    return sem;
}

void
Semaphore::p(Context& ctx, unsigned me)
{
    PLUS_ASSERT(me < mailboxes_.size(), "unknown semaphore participant");
    const auto old = static_cast<std::int32_t>(
        ctx.fadd(value_, static_cast<Word>(-1)));
    if (old <= 0) {
        while (ctx.enqueue(qpAddr(queuePage_), me) & kTopBit) {
            ctx.pause(16);
        }
        mailboxWait(ctx, mailboxes_[me]);
    }
}

void
Semaphore::v(Context& ctx)
{
    ctx.writeFence(); // produced data completes before the wakeup
    const auto old =
        static_cast<std::int32_t>(ctx.fadd(value_, 1));
    if (old < 0) {
        Word k;
        while (!((k = ctx.dequeue(dqpAddr(queuePage_))) & kTopBit)) {
            ctx.pause(8);
        }
        mailboxWake(ctx, mailboxes_[k & kPayloadMask]);
    }
}

} // namespace core
} // namespace plus
