/**
 * @file
 * The plus::check facade: the event-stream sink that records each event
 * into a bounded history and dispatches it to the enabled sub-checkers —
 * the protocol invariant checker and the happens-before race detector.
 *
 * core::Machine owns one Checker per machine (when CheckConfig enables
 * anything) and adds it to the machine's EventStream ahead of the
 * tracer. Everything here runs inside the single-threaded simulation, so
 * no locking is needed.
 */

#ifndef PLUS_CHECK_CHECKER_HPP_
#define PLUS_CHECK_CHECKER_HPP_

#include <memory>

#include "check/event.hpp"
#include "check/invariant_checker.hpp"
#include "check/race_detector.hpp"
#include "common/types.hpp"

namespace plus {
namespace check {

/** What to check; mirrors common::CheckConfig. */
struct Options {
    /** Validate the protocol ordering invariants (panic on violation). */
    bool invariants = true;
    /** Run the happens-before race detector over application accesses. */
    bool races = false;
    /** Panic at the first race instead of recording it. */
    bool panicOnRace = false;
    /** Events of history kept for violation reports. */
    unsigned traceDepth = 64;
};

/** Sink wiring the event stream into the enabled sub-checkers. */
class Checker final : public EventSink
{
  public:
    explicit Checker(const Options& options);

    /** Install the copy-list resolver (from the machine's directory). */
    void setCopyListResolver(InvariantChecker::CopyListResolver resolver);

    const Options& options() const { return options_; }

    /** Recent events, rendered into violation panics. */
    const EventRing& history() const { return history_; }

    /** Null unless Options::invariants. */
    InvariantChecker* invariants() { return invariants_.get(); }

    /** Null unless Options::races. */
    RaceDetector* raceDetector() { return races_.get(); }

    void consume(const Event& event) override;

  private:
    Options options_;
    EventRing history_;
    std::unique_ptr<InvariantChecker> invariants_;
    std::unique_ptr<RaceDetector> races_;
};

} // namespace check
} // namespace plus

#endif // PLUS_CHECK_CHECKER_HPP_
