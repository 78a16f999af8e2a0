/**
 * @file
 * Execution-driven processor timing model.
 *
 * Application threads run as fibers; every shared-memory or
 * synchronization operation they perform is charged its cost-model
 * cycles by yielding to the event loop until the operation's completion
 * time. Between shared references, application code declares its
 * computation with compute(), exactly like the paper's simulator
 * ("from the instruction stream, the simulator also computes an
 * approximate estimate of execution time between simulated shared memory
 * references").
 *
 * Three latency-hiding modes reproduce the processor variants of the
 * evaluation (Figure 3-1):
 *  - Blocking: rmw() waits for the result before returning.
 *  - Delayed: the program uses the issueRmw()/verify() split; the
 *    processor stalls only when a result is consumed too early.
 *  - ContextSwitch: several threads reside on the processor; when one
 *    blocks on a synchronization result the processor pays
 *    ctxSwitchCycles and runs another.
 */

#ifndef PLUS_NODE_PROCESSOR_HPP_
#define PLUS_NODE_PROCESSOR_HPP_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "check/event.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "node/cache.hpp"
#include "proto/coherence_manager.hpp"
#include "sim/fiber.hpp"

namespace plus {

namespace sim {
class Engine;
} // namespace sim

namespace mem {
class PageTable;
} // namespace mem

namespace node {

/** Why the processor (or a thread) is waiting. */
enum class StallKind : unsigned {
    None = 0,
    Read,        ///< blocking read (remote data or conflicting pending write)
    Verify,      ///< delayed-op result not yet available
    Fence,       ///< draining the pending-writes cache
    PendingFull, ///< pending-writes cache full at write issue
    IssueSlot,   ///< delayed-op cache full at issue
    PageFault,   ///< lazy page-table fill
    Idle,        ///< no runnable thread
    NumKinds,
};

const char* toString(StallKind kind);

/** Cycle and event accounting for one processor. */
struct ProcessorStats {
    Cycles compute = 0;     ///< declared application computation
    Cycles memBusy = 0;     ///< cache/memory access cost of reads+writes
    Cycles issueBusy = 0;   ///< issuing delayed operations
    Cycles verifyBusy = 0;  ///< consuming delayed-op results
    Cycles ctxOverhead = 0; ///< context-switch cycles
    Cycles stall[static_cast<unsigned>(StallKind::NumKinds)] = {};

    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rmwIssues = 0;
    std::uint64_t fences = 0;
    std::uint64_t ctxSwitches = 0;
    std::uint64_t pageFaults = 0;
    std::uint64_t pageLostFaults = 0; ///< degraded accesses to lost pages

    /** Cycles the processor did work the application asked for. */
    Cycles
    busyUseful() const
    {
        return compute + memBusy + issueBusy + verifyBusy;
    }

    Cycles totalStall() const;
    Cycles idle() const
    {
        return stall[static_cast<unsigned>(StallKind::Idle)];
    }
};

/** Exported as sums over nodes; proc.stall.* is a per-kind loop. */
inline constexpr StatRow<ProcessorStats> kProcessorStatRows[] = {
    {"proc.reads", &ProcessorStats::reads},
    {"proc.writes", &ProcessorStats::writes},
    {"proc.rmwIssues", &ProcessorStats::rmwIssues},
    {"proc.fences", &ProcessorStats::fences},
    {"proc.ctxSwitches", &ProcessorStats::ctxSwitches},
    {"proc.pageFaults", &ProcessorStats::pageFaults},
    {"proc.pageLostFaults", &ProcessorStats::pageLostFaults},
    {"proc.cycles.compute", &ProcessorStats::compute},
    {"proc.cycles.memBusy", &ProcessorStats::memBusy},
    {"proc.cycles.issueBusy", &ProcessorStats::issueBusy},
    {"proc.cycles.verifyBusy", &ProcessorStats::verifyBusy},
    {"proc.cycles.ctxOverhead", &ProcessorStats::ctxOverhead},
};

/** One PLUS node's processor with its resident threads. */
class Processor
{
  public:
    /** Resolve a virtual page to this node's physical copy. */
    struct Translation {
        PhysPage page;
        bool faulted = false; ///< a lazy page-table fill happened
        /**
         * The page lost its last physical copy to a fail-stop node
         * crash: the access completes degraded (kPageLostValue) in
         * bounded time instead of faulting forever.
         */
        bool lost = false;
    };
    using Translator = std::function<Translation(Vpn)>;

    struct Deps {
        sim::Engine* engine = nullptr;
        proto::CoherenceManager* cm = nullptr;
        Cache* cache = nullptr;
    };

    Processor(NodeId self, const CostModel& cost, ProcessorMode mode,
              Deps deps);
    ~Processor();

    Processor(const Processor&) = delete;
    Processor& operator=(const Processor&) = delete;

    NodeId nodeId() const { return self_; }
    ProcessorMode mode() const { return mode_; }

    /** Install the OS translation service. */
    void setTranslator(Translator t) { translate_ = std::move(t); }

    /**
     * Report application-level accesses and stalls to @p events (feeds
     * the happens-before race detector and the tracer). Null disables.
     */
    void setEventStream(check::EventStream* events) { events_ = events; }

    /**
     * Add a thread to run on this processor. Blocking and Delayed modes
     * host one thread; ContextSwitch mode hosts any number.
     * @return the thread's index on this processor.
     */
    unsigned addThread(ThreadId id, std::function<void()> body);

    /** Make every thread runnable at the current cycle. */
    void start();

    /**
     * The coherence manager finished thread @p t's parked op with
     * @p result: store it for the thread and wake it.
     */
    void complete(unsigned t, Word result);

    /**
     * Fail-stop: the node hosting this processor crashed. Freezes every
     * resident thread where it stands — fibers are never resumed again
     * (their stacks unwind at teardown), wake-ups and dispatches become
     * no-ops — and returns how many threads were written off (those not
     * yet finished), so the machine can settle its liveness accounting.
     * Machine context only; idempotent (returns 0 when already halted).
     */
    unsigned halt();

    bool halted() const { return halted_; }

    /** Id of the thread currently executing (valid inside a body). */
    ThreadId currentThreadId() const;

    // --- operations callable only from a resident thread's fiber ---------

    /** Declare @p cycles of local computation. */
    void compute(Cycles cycles);

    /**
     * Spin-loop hint: in ContextSwitch mode, voluntarily hand the
     * processor to another resident runnable thread (paying the switch
     * cost at dispatch); a no-op otherwise. Busy-wait loops must call
     * this so co-resident threads can make progress.
     */
    void yieldNow();

    /** Coherent shared-memory read of the word at @p vaddr. */
    Word read(Addr vaddr);

    /** Coherent shared-memory write; non-blocking past the issue cost. */
    void write(Addr vaddr, Word value);

    /** Issue a delayed interlocked operation; returns its handle. */
    proto::DelayedOpHandle issueRmw(proto::RmwOp op, Addr vaddr,
                                    Word operand);

    /** True once the result of @p handle can be read without blocking. */
    bool rmwReady(proto::DelayedOpHandle handle) const;

    /** Read (and consume) a delayed operation's result. */
    Word verify(proto::DelayedOpHandle handle);

    /** Convenience: issue + verify according to the processor mode. */
    Word rmw(proto::RmwOp op, Addr vaddr, Word operand);

    /** Full drain: wait until every prior write has completed. */
    void fence();

    /**
     * The paper's explicit write fence: subsequent writes and
     * interlocked issues are held until all earlier writes complete,
     * but this processor continues immediately (reads and computation
     * are not blocked).
     */
    void writeFence();

    const ProcessorStats& stats() const { return stats_; }

  private:
    static constexpr unsigned kNone = ~0u;

    enum class ThreadState : std::uint8_t {
        Created, Ready, Running, Blocked, Finished
    };

    struct Thread {
        ThreadId id = 0;
        ThreadState state = ThreadState::Created;
        std::unique_ptr<sim::Fiber> fiber;
        /** Result of the op the thread last blocked on. */
        Word result = 0;
    };

    /** Charge @p cycles to @p bucket and advance simulated time. */
    void charge(Cycles cycles, Cycles ProcessorStats::* bucket);

    /**
     * Advance the running thread's time by @p cycles: it keeps the
     * processor and resumes after that many cycles (0 returns at once).
     */
    void sleep(Cycles cycles);

    /**
     * Block the running thread until complete() is called for it; the
     * processor's waiting time is attributed to @p kind. Returns the
     * result complete() stored.
     */
    Word blockCurrent(StallKind kind);

    /** Make thread @p t runnable and kick the dispatcher. */
    void wake(unsigned t);

    void scheduleDispatch();
    void dispatch();
    void resumeThread(unsigned t);

    /** Account the just-ended free interval. */
    void closeFreeInterval();

    /** Report thread @p tid's access to @p vaddr. @pre events_ */
    void
    emitAccess(check::EventKind kind, ThreadId tid, Addr vaddr,
               std::uint8_t cls = 0)
    {
        events_->emit({.kind = kind,
                       .cls = cls,
                       .node = self_,
                       .vpn = pageOf(vaddr),
                       .word = wordOffsetOf(vaddr),
                       .a = tid,
                       .b = vaddr});
    }

    Translation translateCharged(Vpn vpn);

    /** Take the issued handle (or block for it); record its target. */
    proto::DelayedOpHandle
    finishIssue(proto::RmwOp op, Addr vaddr,
                std::optional<proto::DelayedOpHandle> ready);

    /**
     * Deliver the degraded completion for an access to a lost page:
     * bounded OS-fault cost, a ProcPageLost check event, and the
     * kPageLostValue sentinel.
     */
    Word faultPageLost(Addr vaddr);

    NodeId self_;
    CostModel cost_;
    ProcessorMode mode_;
    Deps deps_;
    Translator translate_;
    check::EventStream* events_ = nullptr;

    /**
     * Target address of each outstanding delayed operation, so verify()
     * can report which word the acquire synchronized on. Indexed by
     * handle (a delayed-op cache slot), kInvalidAddr when empty; the
     * entry is consumed at verify entry, before the cache slot (and with
     * it the handle) can be reused.
     */
    std::vector<Addr> rmwTargets_;

    std::vector<Thread> threads_;
    std::deque<unsigned> readyQueue_;
    unsigned current_ = kNone;
    unsigned lastRun_ = kNone;
    unsigned finished_ = 0;
    bool dispatchScheduled_ = false;
    /** Fail-stop crash: no thread on this processor ever runs again. */
    bool halted_ = false;

    Cycles freeSince_ = 0;
    StallKind freeReason_ = StallKind::Idle;

    ProcessorStats stats_;
};

} // namespace node
} // namespace plus

#endif // PLUS_NODE_PROCESSOR_HPP_
