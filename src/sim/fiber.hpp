/**
 * @file
 * Cooperative user-level fibers for execution-driven simulation.
 *
 * The PLUS simulator, like the authors' original, is driven by application
 * code: each simulated thread runs real C++ on its own stack and yields to
 * the event loop whenever it performs an operation with simulated cost.
 * A switch is a hand-written stack switch (one small assembly routine per
 * supported architecture, in fiber.cpp) that saves the callee-saved
 * registers and the floating-point control state on the old stack and
 * pops them off the new one: no system call, no signal-mask save. Each
 * simulation runs on one OS thread, so no locking is needed.
 */

#ifndef PLUS_SIM_FIBER_HPP_
#define PLUS_SIM_FIBER_HPP_

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>

namespace plus {
namespace sim {

/**
 * One cooperative fiber. resume() runs it until it calls Fiber::yield()
 * or its body returns; control then comes back to the resumer.
 */
class Fiber
{
  public:
    /**
     * @param body   Code to run on the fiber's stack.
     * @param stack_bytes  Stack size; must comfortably hold the deepest
     *                     application call chain.
     */
    Fiber(std::function<void()> body, std::size_t stack_bytes);

    /**
     * A started-but-unfinished fiber is cancelled on destruction: it is
     * resumed with a cancellation flag that makes yield() throw, so the
     * body unwinds and destructors of objects on the fiber stack run
     * (the stack itself is just a byte array — without the unwind, any
     * heap references parked on it would leak).
     */
    ~Fiber();

    Fiber(const Fiber&) = delete;
    Fiber& operator=(const Fiber&) = delete;

    /**
     * Transfer control into the fiber. Must not be called from inside any
     * fiber other than the scheduler context, and not on a finished fiber.
     *
     * An exception escaping the fiber body is captured on the fiber stack
     * and rethrown here, on the resumer's stack, after the fiber is marked
     * finished — the unwinder cannot cross a stack switch.
     */
    void resume();

    /** True once the fiber body has returned. */
    bool finished() const { return finished_; }

    /**
     * Yield from inside the currently running fiber back to its resumer.
     * Must be called on a fiber's stack.
     */
    static void yield();

    /** The fiber currently executing, or nullptr on the scheduler stack. */
    static Fiber* current();

  private:
    static void trampoline(Fiber* self);
    void run();
    void switchIn();
    void cancel();

    std::function<void()> body_;
    std::unique_ptr<char[]> stack_;
    std::size_t stackBytes_;
    /** Saved stack pointer of the fiber while it is switched out. */
    void* sp_ = nullptr;
    /** Saved stack pointer of the resumer while the fiber runs. */
    void* returnSp_ = nullptr;
    bool started_ = false;
    bool finished_ = false;
    bool cancelling_ = false;
    /** Exception that escaped the body, rethrown by resume(). */
    std::exception_ptr pending_;

    // AddressSanitizer fake-stack bookkeeping (unused otherwise).
    void* fiberFakeStack_ = nullptr;
    const void* returnBottom_ = nullptr;
    std::size_t returnSize_ = 0;
};

} // namespace sim
} // namespace plus

#endif // PLUS_SIM_FIBER_HPP_
