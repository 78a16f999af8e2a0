#include "node/processor.hpp"

#include <memory>
#include <utility>

#include "common/log.hpp"
#include "common/panic.hpp"
#include "sim/engine.hpp"
#include "telemetry/prof.hpp"

namespace plus {
namespace node {

namespace {

/** Fiber stack size of each simulated thread, in bytes. */
constexpr std::size_t kThreadStackBytes = 256 * 1024;

} // namespace

const char*
toString(StallKind kind)
{
    switch (kind) {
      case StallKind::None: return "none";
      case StallKind::Read: return "read";
      case StallKind::Verify: return "verify";
      case StallKind::Fence: return "fence";
      case StallKind::PendingFull: return "pending-full";
      case StallKind::IssueSlot: return "issue-slot";
      case StallKind::PageFault: return "page-fault";
      case StallKind::Idle: return "idle";
      default: return "?";
    }
}

Cycles
ProcessorStats::totalStall() const
{
    Cycles total = 0;
    for (unsigned k = 0; k < static_cast<unsigned>(StallKind::NumKinds);
         ++k) {
        if (k != static_cast<unsigned>(StallKind::Idle)) {
            total += stall[k];
        }
    }
    return total;
}

Processor::Processor(NodeId self, const CostModel& cost, ProcessorMode mode,
                     Deps deps)
    : self_(self), cost_(cost), mode_(mode), deps_(deps)
{
    PLUS_ASSERT(deps_.engine && deps_.cm && deps_.cache,
                "processor missing dependencies");
    rmwTargets_.assign(deps_.cm->delayedOps().capacity(), kInvalidAddr);
}

Processor::~Processor() = default;

unsigned
Processor::addThread(ThreadId id, std::function<void()> body)
{
    if (mode_ != ProcessorMode::ContextSwitch) {
        PLUS_ASSERT(threads_.empty(),
                    "only ContextSwitch mode hosts multiple threads");
    }
    Thread thread;
    thread.id = id;
    thread.fiber =
        std::make_unique<sim::Fiber>(std::move(body), kThreadStackBytes);
    threads_.push_back(std::move(thread));
    return static_cast<unsigned>(threads_.size() - 1);
}

void
Processor::start()
{
    for (unsigned t = 0; t < threads_.size(); ++t) {
        if (threads_[t].state == ThreadState::Created) {
            wake(t);
        }
    }
}

unsigned
Processor::halt()
{
    if (halted_) {
        return 0;
    }
    halted_ = true;
    // Threads stay in whatever state they were in — the gates in
    // wake()/dispatch()/resumeThread() ensure none of them ever runs
    // again, and already-scheduled resume events find their asserts
    // intact and then fall through the resumeThread gate.
    const unsigned written_off =
        static_cast<unsigned>(threads_.size()) - finished_;
    PLUS_LOG(LogComponent::Node, "n", self_, " halted, ", written_off,
             " thread(s) written off");
    return written_off;
}

ThreadId
Processor::currentThreadId() const
{
    PLUS_ASSERT(current_ != kNone, "no thread is running");
    return threads_[current_].id;
}

void
Processor::charge(Cycles cycles, Cycles ProcessorStats::* bucket)
{
    stats_.*bucket += cycles;
    sleep(cycles);
}

void
Processor::sleep(Cycles cycles)
{
    if (cycles == 0) {
        return;
    }
    const unsigned t = current_;
    deps_.engine->schedule(cycles, [this, t] {
        PLUS_ASSERT(current_ == t, "processor lost its running thread");
        resumeThread(t);
    });
    sim::Fiber::yield();
}

Word
Processor::blockCurrent(StallKind kind)
{
    const unsigned t = current_;
    threads_[t].state = ThreadState::Blocked;
    current_ = kNone;
    lastRun_ = t;
    freeSince_ = deps_.engine->now();
    freeReason_ = kind;
    if (!readyEmpty()) {
        scheduleDispatch();
    }
    sim::Fiber::yield();
    return threads_[t].result;
}

void
Processor::complete(unsigned t, Word result)
{
    threads_[t].result = result;
    wake(t);
}

void
Processor::wake(unsigned t)
{
    if (halted_) {
        // A continuation for an operation that completed after the
        // crash (recovery replays, pre-crash acks): the thread is dead,
        // the completion is discarded.
        return;
    }
    Thread& thread = threads_[t];
    PLUS_ASSERT(thread.state == ThreadState::Blocked ||
                    thread.state == ThreadState::Created,
                "wake of a thread that is not waiting");
    thread.state = ThreadState::Ready;
    pushReady(t);
    if (current_ == kNone) {
        scheduleDispatch();
    }
}

void
Processor::pushReady(unsigned t)
{
    threads_[t].nextReady = kNone;
    if (readyTail_ == kNone) {
        readyHead_ = t;
    } else {
        threads_[readyTail_].nextReady = t;
    }
    readyTail_ = t;
}

unsigned
Processor::popReady()
{
    const unsigned t = readyHead_;
    readyHead_ = threads_[t].nextReady;
    if (readyHead_ == kNone) {
        readyTail_ = kNone;
    }
    return t;
}

void
Processor::scheduleDispatch()
{
    if (dispatchScheduled_) {
        return;
    }
    dispatchScheduled_ = true;
    deps_.engine->schedule(0, [this] {
        dispatchScheduled_ = false;
        dispatch();
    });
}

void
Processor::dispatch()
{
    if (halted_ || current_ != kNone || readyEmpty()) {
        return;
    }
    const prof::ScopedPhase prof_scope(prof::Phase::ProcDispatch);
    const unsigned t = popReady();
    PLUS_ASSERT(threads_[t].state == ThreadState::Ready,
                "non-ready thread in the ready queue");
    closeFreeInterval();
    current_ = t; // reserve the processor through any switch overhead

    const bool switching = mode_ == ProcessorMode::ContextSwitch &&
                           lastRun_ != kNone && lastRun_ != t;
    if (switching && cost_.ctxSwitchCycles > 0) {
        stats_.ctxSwitches += 1;
        stats_.ctxOverhead += cost_.ctxSwitchCycles;
        deps_.engine->schedule(cost_.ctxSwitchCycles,
                               [this, t] { resumeThread(t); });
    } else {
        resumeThread(t);
    }
}

void
Processor::resumeThread(unsigned t)
{
    if (halted_) {
        // An in-flight charge or page-fault event outlived the crash;
        // the fiber is frozen where it stopped and unwinds at teardown.
        return;
    }
    PLUS_ASSERT(current_ == t, "resume of a thread that lost the CPU");
    Thread& thread = threads_[t];
    thread.state = ThreadState::Running;
    thread.fiber->resume();

    // The fiber gave the CPU back: the thread finished, blocked, or is
    // in a timed charge (in which case current_ is still t and an event
    // will resume it).
    if (thread.fiber->finished()) {
        thread.state = ThreadState::Finished;
        ++finished_;
        current_ = kNone;
        lastRun_ = t;
        freeSince_ = deps_.engine->now();
        freeReason_ = StallKind::Idle;
        if (!readyEmpty()) {
            scheduleDispatch();
        }
    }
}

void
Processor::closeFreeInterval()
{
    const Cycles waited = deps_.engine->now() - freeSince_;
    stats_.stall[static_cast<unsigned>(freeReason_)] += waited;
    if (events_ && waited > 0 && freeReason_ != StallKind::None) {
        events_->emit({.kind = check::EventKind::ProcStall,
                       .cls = static_cast<std::uint8_t>(freeReason_),
                       .node = self_,
                       .a = freeSince_,
                       .b = waited});
    }
    freeReason_ = StallKind::None;
}

Processor::Translation
Processor::translateCharged(Vpn vpn)
{
    PLUS_ASSERT(translate_, "processor has no translator");
    Translation tr = translate_(vpn);
    if (tr.faulted) {
        // Lazy page-table fill by the OS exception handler.
        stats_.pageFaults += 1;
        const Cycles c = cost_.osPageFillCycles;
        stats_.stall[static_cast<unsigned>(StallKind::PageFault)] += c;
        sleep(c);
    }
    return tr;
}

Word
Processor::faultPageLost(Addr vaddr)
{
    // Degraded-mode serving: the OS detects the lost mapping at
    // translation time and delivers a bounded fault instead of letting
    // the access wait forever for a copy that no longer exists.
    stats_.pageLostFaults += 1;
    const Cycles c = cost_.osPageFillCycles;
    stats_.stall[static_cast<unsigned>(StallKind::PageFault)] += c;
    sleep(c);
    if (events_) {
        emitAccess(check::EventKind::ProcPageLost, threads_[current_].id,
                   vaddr);
    }
    return kPageLostValue;
}

void
Processor::compute(Cycles cycles)
{
    charge(cycles, &ProcessorStats::compute);
}

void
Processor::yieldNow()
{
    if (mode_ != ProcessorMode::ContextSwitch || readyEmpty()) {
        return;
    }
    const unsigned t = current_;
    threads_[t].state = ThreadState::Ready;
    pushReady(t);
    current_ = kNone;
    lastRun_ = t;
    freeSince_ = deps_.engine->now();
    freeReason_ = StallKind::None;
    scheduleDispatch();
    sim::Fiber::yield();
}

Word
Processor::read(Addr vaddr)
{
    PLUS_ASSERT(wordAligned(vaddr), "unaligned read at ", vaddr);
    stats_.reads += 1;
    const Vpn vpn = pageOf(vaddr);
    const Addr off = wordOffsetOf(vaddr);
    const Translation tr = translateCharged(vpn);
    if (tr.lost) {
        return faultPageLost(vaddr);
    }
    const PhysAddr phys{tr.page, off};
    const bool local = tr.page.node == self_;

    if (local) {
        charge(deps_.cache->accessRead(tr.page.frame, off)
                   ? cost_.cacheHit
                   : cost_.cacheMissFill,
               &ProcessorStats::memBusy);
    } else {
        charge(cost_.procRemoteReadIssue, &ProcessorStats::memBusy);
    }

    const unsigned t = current_;
    const std::optional<Word> ready = deps_.cm->procRead(t, vpn, off, phys);
    const Word value = ready ? *ready : blockCurrent(StallKind::Read);
    if (!local) {
        charge(cost_.procRemoteReadComplete, &ProcessorStats::memBusy);
    }
    if (events_) {
        emitAccess(check::EventKind::ProcRead, threads_[t].id, vaddr);
    }
    return value;
}

void
Processor::write(Addr vaddr, Word value)
{
    PLUS_ASSERT(wordAligned(vaddr), "unaligned write at ", vaddr);
    stats_.writes += 1;
    const Vpn vpn = pageOf(vaddr);
    const Addr off = wordOffsetOf(vaddr);
    const Translation tr = translateCharged(vpn);
    if (tr.lost) {
        // Writes to a lost page are dropped: there is no copy left to
        // apply them to, and degraded mode favours bounded completion.
        faultPageLost(vaddr);
        return;
    }
    const PhysAddr phys{tr.page, off};

    if (tr.page.node == self_) {
        deps_.cache->accessWrite(tr.page.frame, off);
        charge(cost_.cacheWriteThrough, &ProcessorStats::memBusy);
    } else {
        charge(cost_.procIssueWrite, &ProcessorStats::memBusy);
    }

    const unsigned t = current_;
    if (!deps_.cm->procWrite(t, vpn, off, phys, value)) {
        blockCurrent(StallKind::PendingFull);
    }
    if (events_) {
        emitAccess(check::EventKind::ProcWrite, threads_[t].id, vaddr);
    }
}

proto::DelayedOpHandle
Processor::issueRmw(proto::RmwOp op, Addr vaddr, Word operand)
{
    PLUS_ASSERT(wordAligned(vaddr), "unaligned rmw at ", vaddr);
    stats_.rmwIssues += 1;
    const Vpn vpn = pageOf(vaddr);
    const Addr off = wordOffsetOf(vaddr);
    const Translation tr = translateCharged(vpn);
    if (tr.lost) {
        // The operation still occupies a delayed-op slot so the
        // issue/verify protocol is uniform, but it completes locally
        // and immediately with the sentinel: there is no master copy
        // left to execute it at.
        faultPageLost(vaddr);
        charge(cost_.procIssueOp, &ProcessorStats::issueBusy);
        return finishIssue(op, vaddr,
                           deps_.cm->procIssueLostRmw(current_, op));
    }
    const PhysAddr phys{tr.page, off};

    if (cost_.implicitFenceOnSync) {
        // DASH-style ablation: synchronization operations are strongly
        // ordered behind all earlier writes.
        fence();
    }
    charge(cost_.procIssueOp, &ProcessorStats::issueBusy);
    return finishIssue(op, vaddr,
                  deps_.cm->procIssueRmw(current_, op, vpn, off, phys,
                                         operand));
}

proto::DelayedOpHandle
Processor::finishIssue(proto::RmwOp op, Addr vaddr,
                  std::optional<proto::DelayedOpHandle> ready)
{
    const unsigned t = current_;
    const proto::DelayedOpHandle handle =
        ready ? *ready
              : static_cast<proto::DelayedOpHandle>(
                    blockCurrent(StallKind::IssueSlot));
    rmwTargets_[handle] = vaddr;
    if (events_) {
        emitAccess(check::EventKind::ProcRmwIssue, threads_[t].id, vaddr,
                   static_cast<std::uint8_t>(op));
    }
    return handle;
}

bool
Processor::rmwReady(proto::DelayedOpHandle handle) const
{
    return deps_.cm->rmwReady(handle);
}

Word
Processor::verify(proto::DelayedOpHandle handle)
{
    // Resolve the handle's target before the wait: once the result is
    // consumed the cache slot (and the handle) can be reallocated.
    const Addr target = handle < rmwTargets_.size()
                            ? std::exchange(rmwTargets_[handle], kInvalidAddr)
                            : kInvalidAddr;
    const unsigned t = current_;
    const std::optional<Word> ready = deps_.cm->procVerify(t, handle);
    // Result not available: in ContextSwitch mode blockCurrent lets
    // another resident thread run; otherwise the processor stalls.
    const Word value = ready ? *ready : blockCurrent(StallKind::Verify);
    charge(cost_.procReadResult, &ProcessorStats::verifyBusy);
    if (events_ && target != kInvalidAddr) {
        emitAccess(check::EventKind::ProcVerify, threads_[t].id, target);
    }
    return value;
}

Word
Processor::rmw(proto::RmwOp op, Addr vaddr, Word operand)
{
    const proto::DelayedOpHandle handle = issueRmw(op, vaddr, operand);
    return verify(handle);
}

void
Processor::writeFence()
{
    stats_.fences += 1;
    deps_.cm->procWriteFence();
    charge(1, &ProcessorStats::issueBusy);
    if (events_) {
        events_->emit({.kind = check::EventKind::ProcWriteFence,
                       .node = self_,
                       .a = currentThreadId()});
    }
}

void
Processor::fence()
{
    stats_.fences += 1;
    const unsigned t = current_;
    if (!deps_.cm->procFence(t)) {
        blockCurrent(StallKind::Fence);
    }
    if (events_) {
        events_->emit({.kind = check::EventKind::ProcFence,
                       .node = self_,
                       .a = threads_[t].id});
    }
}

} // namespace node
} // namespace plus
