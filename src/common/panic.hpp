/**
 * @file
 * Error-reporting helpers, following the gem5 distinction between
 * panic() (a simulator bug: should never happen regardless of user input)
 * and fatal() (the user's fault: bad configuration or arguments).
 */

#ifndef PLUS_COMMON_PANIC_HPP_
#define PLUS_COMMON_PANIC_HPP_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace plus {

/** Thrown by fatal(): the simulation cannot continue due to user error. */
class FatalError : public std::runtime_error {
  public:
    explicit FatalError(const std::string& what) : std::runtime_error(what) {}
};

/** Thrown by panic(): an internal invariant was violated (a PLUS bug). */
class PanicError : public std::logic_error {
  public:
    explicit PanicError(const std::string& what) : std::logic_error(what) {}
};

/**
 * Optional hook appended to every panic message. Diagnostic layers
 * (the running machine's dossier, the host-time profiler's flight
 * recorder) install one so stall and invariant-failure reports carry
 * recent activity. It is passed the panic text it decorates, so it can
 * leave out what that text already carries. The decorator must be safe
 * to call from any thread and must not throw.
 */
using PanicDecorator = std::string (*)(std::string_view message);

/** Install @p fn (nullptr to clear); atomic, so safe vs. a racing panic. */
void setPanicDecorator(PanicDecorator fn);

/**
 * The currently installed decorator (nullptr if none). Layers that want
 * to *add* context rather than replace it read the current hook, stash
 * it, and chain to it from their own decorator.
 */
PanicDecorator panicDecorator();

namespace detail {

[[noreturn]] void throwPanic(const char* file, int line,
                             const std::string& msg);
[[noreturn]] void throwFatal(const std::string& msg);

/** Fold a list of streamable values into one string. */
template <typename... Args>
std::string
concat(Args&&... args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/**
 * Abort with an internal-error diagnostic. Use for conditions that can
 * only arise from a bug in the simulator itself.
 */
#define PLUS_PANIC(...)                                                     \
    ::plus::detail::throwPanic(__FILE__, __LINE__,                          \
                               ::plus::detail::concat(__VA_ARGS__))

/** Abort with a user-error diagnostic (bad config, bad arguments). */
#define PLUS_FATAL(...)                                                     \
    ::plus::detail::throwFatal(::plus::detail::concat(__VA_ARGS__))

/** Assert an internal invariant; active in all build types. */
#define PLUS_ASSERT(cond, ...)                                              \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::plus::detail::throwPanic(                                     \
                __FILE__, __LINE__,                                         \
                ::plus::detail::concat("assertion failed: " #cond " ",      \
                                       ##__VA_ARGS__));                     \
        }                                                                   \
    } while (0)

} // namespace plus

#endif // PLUS_COMMON_PANIC_HPP_
