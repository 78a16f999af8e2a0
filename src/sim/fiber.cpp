#include "sim/fiber.hpp"

#include <cstdint>
#include <cstring>

#include "common/panic.hpp"

// When built with AddressSanitizer, every stack switch must be announced
// so ASan tracks the fake-stack of the stack being entered; otherwise a
// switch looks like a wild stack change and produces false positives (or
// crashes with detect_stack_use_after_return).
#if defined(__SANITIZE_ADDRESS__)
#define PLUS_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PLUS_ASAN_FIBERS 1
#endif
#endif

#if defined(PLUS_ASAN_FIBERS)
#include <sanitizer/common_interface_defs.h>
#endif

extern "C" {
/**
 * Push the callee-saved registers and the floating-point control state
 * on the current stack, store the stack pointer to *save, load @p load as
 * the stack pointer and pop the state saved there. Returns on the other
 * stack, to whoever switched away from it last.
 */
void plus_sim_fiber_switch(void** save, void* load);
/**
 * First code a new fiber runs (the return address of its initial frame):
 * calls the entry function left in a callee-saved register with the
 * Fiber* left in another. Its CFI marks the return address undefined, so
 * unwinders and debuggers stop here.
 */
void plus_sim_fiber_entry();
}

#if defined(__x86_64__)

// System V AMD64: rbx, rbp, r12-r15, the MXCSR control bits and the x87
// control word are callee-saved. Frame, from the saved stack pointer up:
// x87 control word, MXCSR, r15, r14, r13, r12, rbx, rbp, return address.
asm(R"(
    .text
    .globl plus_sim_fiber_switch
    .hidden plus_sim_fiber_switch
    .type plus_sim_fiber_switch, @function
    .p2align 4
plus_sim_fiber_switch:
    .cfi_startproc
    pushq %rbp
    .cfi_adjust_cfa_offset 8
    pushq %rbx
    .cfi_adjust_cfa_offset 8
    pushq %r12
    .cfi_adjust_cfa_offset 8
    pushq %r13
    .cfi_adjust_cfa_offset 8
    pushq %r14
    .cfi_adjust_cfa_offset 8
    pushq %r15
    .cfi_adjust_cfa_offset 8
    subq $16, %rsp
    .cfi_adjust_cfa_offset 16
    fnstcw (%rsp)
    stmxcsr 8(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    fldcw (%rsp)
    ldmxcsr 8(%rsp)
    addq $16, %rsp
    .cfi_adjust_cfa_offset -16
    popq %r15
    .cfi_adjust_cfa_offset -8
    popq %r14
    .cfi_adjust_cfa_offset -8
    popq %r13
    .cfi_adjust_cfa_offset -8
    popq %r12
    .cfi_adjust_cfa_offset -8
    popq %rbx
    .cfi_adjust_cfa_offset -8
    popq %rbp
    .cfi_adjust_cfa_offset -8
    ret
    .cfi_endproc
    .size plus_sim_fiber_switch, .-plus_sim_fiber_switch

    .globl plus_sim_fiber_entry
    .hidden plus_sim_fiber_entry
    .type plus_sim_fiber_entry, @function
    .p2align 4
plus_sim_fiber_entry:
    .cfi_startproc
    .cfi_undefined %rip
    movq %r12, %rdi
    callq *%r13
    ud2
    .cfi_endproc
    .size plus_sim_fiber_entry, .-plus_sim_fiber_entry
)");

namespace {

/** What plus_sim_fiber_switch pops when it first enters a fiber. */
struct InitialFrame {
    std::uint16_t x87Control;
    std::uint16_t pad0[3];
    std::uint32_t mxcsr;
    std::uint32_t pad1;
    std::uint64_t r15, r14, r13, r12, rbx, rbp;
    std::uint64_t returnAddress;
};
static_assert(sizeof(InitialFrame) == 72);

/**
 * Build the frame that starts a fiber in @p entry(@p self) with the
 * caller's floating-point control state. The frame sits right below the
 * 16-byte-aligned top, so the entry stub runs with rsp at the top and its
 * call enters @p entry with the stack aligned as the ABI requires.
 */
InitialFrame
initialFrame(void* self, void (*entry)(plus::sim::Fiber*))
{
    // The switch does not maintain a CET shadow stack; refuse to run
    // rather than die on the first return into a fiber.
#if defined(__CET__) && (__CET__ & 2)
    std::uint64_t ssp = 0;
    asm volatile("rdsspq %0" : "+r"(ssp));
    if (ssp != 0) {
        PLUS_PANIC("fibers do not support CET shadow stacks");
    }
#endif
    InitialFrame frame{};
    asm volatile("fnstcw %0" : "=m"(frame.x87Control));
    asm volatile("stmxcsr %0" : "=m"(frame.mxcsr));
    frame.r12 = reinterpret_cast<std::uint64_t>(self);
    frame.r13 = reinterpret_cast<std::uint64_t>(entry);
    frame.returnAddress =
        reinterpret_cast<std::uint64_t>(&plus_sim_fiber_entry);
    return frame;
}

} // namespace

#else
#error "sim::Fiber has a stack switch for x86-64 only; docs/PERF.md (Fiber switch) lists what a port must save"
#endif

namespace plus {
namespace sim {

namespace {

/** Fiber currently executing on this thread. */
// pluslint: allow(R4) -- per-host-thread bookkeeping for the fiber
// switch itself; a fiber never migrates between host threads, so this
// cannot leak state between machines.
thread_local Fiber* currentFiber = nullptr;

/** Thrown from yield() to unwind a fiber being cancelled. */
struct Cancelled {};

void
startSwitch(void** fake_stack_save, const void* bottom, std::size_t size)
{
#if defined(PLUS_ASAN_FIBERS)
    __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#else
    (void)fake_stack_save;
    (void)bottom;
    (void)size;
#endif
}

void
finishSwitch(void* fake_stack_save, const void** bottom_old,
             std::size_t* size_old)
{
#if defined(PLUS_ASAN_FIBERS)
    __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
#else
    (void)fake_stack_save;
    (void)bottom_old;
    (void)size_old;
#endif
}

} // namespace

Fiber::Fiber(std::function<void()> body, std::size_t stack_bytes)
    : body_(std::move(body)), stack_(new char[stack_bytes]),
      stackBytes_(stack_bytes)
{
    PLUS_ASSERT(body_, "fiber needs a body");
    const InitialFrame frame = initialFrame(this, &Fiber::trampoline);
    PLUS_ASSERT(stack_bytes >= sizeof(frame) + 16, "fiber stack too small");
    auto top = reinterpret_cast<std::uintptr_t>(stack_.get() + stack_bytes);
    top &= ~std::uintptr_t{15};
    sp_ = reinterpret_cast<void*>(top - sizeof(frame));
    std::memcpy(sp_, &frame, sizeof(frame));
}

Fiber::~Fiber()
{
    cancel();
}

void
Fiber::trampoline(Fiber* self)
{
    // First activation: no fake stack to restore; learn the resumer
    // stack's bounds for the switches back.
    finishSwitch(nullptr, &self->returnBottom_, &self->returnSize_);
    self->run();
}

void
Fiber::run()
{
    try {
        body_();
    } catch (const Cancelled&) {
        // Destructor-driven unwind; nobody is waiting for a result.
    } catch (...) {
        // The unwinder cannot cross the stack switch; park the exception
        // and let resume() rethrow it on the resumer's stack.
        pending_ = std::current_exception();
    }
    finished_ = true;
    // Return control to the resumer for the last time. The switch never
    // comes back here; a null fake-stack save tells ASan to destroy
    // this fiber's fake stack.
    Fiber* self = currentFiber;
    currentFiber = nullptr;
    startSwitch(nullptr, self->returnBottom_, self->returnSize_);
    plus_sim_fiber_switch(&self->sp_, self->returnSp_);
    PLUS_PANIC("resumed a finished fiber");
}

void
Fiber::switchIn()
{
    PLUS_ASSERT(!finished_, "resume of a finished fiber");
    PLUS_ASSERT(currentFiber == nullptr,
                "nested fiber resume is not supported");
    started_ = true;
    currentFiber = this;
    void* resumer_fake_stack = nullptr;
    startSwitch(&resumer_fake_stack, stack_.get(), stackBytes_);
    plus_sim_fiber_switch(&returnSp_, sp_);
    finishSwitch(resumer_fake_stack, nullptr, nullptr);
}

void
Fiber::resume()
{
    switchIn();
    if (pending_) {
        std::exception_ptr pending = std::move(pending_);
        pending_ = nullptr;
        std::rethrow_exception(pending);
    }
}

void
Fiber::cancel()
{
    if (!started_ || finished_) {
        return;
    }
    cancelling_ = true;
    // A body that swallows the cancellation and yields again is resumed
    // until it finishes; any exception it raises while unwinding is
    // discarded (we are in a destructor).
    while (!finished_) {
        switchIn();
    }
    pending_ = nullptr;
}

void
Fiber::yield()
{
    Fiber* self = currentFiber;
    PLUS_ASSERT(self != nullptr, "yield outside any fiber");
    currentFiber = nullptr;
    startSwitch(&self->fiberFakeStack_, self->returnBottom_,
                self->returnSize_);
    plus_sim_fiber_switch(&self->sp_, self->returnSp_);
    // Resumed again: restore the current-fiber marker and refresh the
    // resumer-stack bounds (the resumer may differ between activations).
    finishSwitch(self->fiberFakeStack_, &self->returnBottom_,
                 &self->returnSize_);
    currentFiber = self;
    if (self->cancelling_) {
        throw Cancelled{};
    }
}

Fiber*
Fiber::current()
{
    return currentFiber;
}

} // namespace sim
} // namespace plus
