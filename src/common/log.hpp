/**
 * @file
 * Lightweight component-tagged trace logging.
 *
 * The simulator is silent by default; enable a component to watch the
 * protocol at work, e.g.
 * @code
 *   plus::Log::instance().enable(plus::LogComponent::Proto);
 * @endcode
 * Messages carry the current simulated cycle when a clock source has been
 * registered (the sim::Engine registers itself).
 *
 * Components can also be enabled without recompiling through the PLUS_LOG
 * environment variable, read once at startup: a comma-separated list of
 * component names ("PLUS_LOG=proto,net"), or "all".
 */

#ifndef PLUS_COMMON_LOG_HPP_
#define PLUS_COMMON_LOG_HPP_

#include <array>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>

#include "common/types.hpp"

namespace plus {

/** Subsystems that can be traced independently. */
enum class LogComponent : unsigned {
    Engine = 0,
    Thread,
    Net,
    Mem,
    Proto,
    Node,
    Machine,
    Workload,
    NumComponents,
};

/** Short tag printed in front of each message. */
const char* logComponentName(LogComponent c);

/**
 * Global logging switchboard (singleton). Each machine is serial, but
 * independent machines may run on different host threads, so the
 * simulated clock stamped on messages is per host thread.
 */
class Log
{
  public:
    static Log& instance();

    void enable(LogComponent c) { enabled_[index(c)] = true; }
    void disable(LogComponent c) { enabled_[index(c)] = false; }
    void enableAll();
    void disableAll();
    bool isEnabled(LogComponent c) const { return enabled_[index(c)]; }

    /**
     * Enable the components named in @p spec — the PLUS_LOG syntax: a
     * comma/space/semicolon-separated list of logComponentName() names,
     * or "all". Unknown names are reported to stderr and skipped; a null
     * or empty spec is a no-op. The constructor applies getenv("PLUS_LOG")
     * so runs can be traced without recompiling.
     */
    void applyEnvSpec(const char* spec);

    /** Parse one component name; false if it is not a component. */
    static bool componentFromName(const std::string& name,
                                  LogComponent& out);

    /** Register the calling thread's simulated-clock source; pass
     *  nullptr to clear. */
    void setClock(std::function<Cycles()> clock)
    {
        threadClock() = std::move(clock);
    }

    /** Redirect output (defaults to std::cerr); pass nullptr to reset. */
    void setStream(std::ostream* os) { stream_ = os ? os : &std::cerr; }

    void write(LogComponent c, const std::string& msg);

  private:
    Log();

    static unsigned index(LogComponent c) { return static_cast<unsigned>(c); }
    static std::function<Cycles()>& threadClock();

    std::array<bool, static_cast<unsigned>(LogComponent::NumComponents)>
        enabled_{};
    std::ostream* stream_ = &std::cerr;
};

namespace detail {

template <typename... Args>
void
logWrite(LogComponent c, Args&&... args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    Log::instance().write(c, os.str());
}

} // namespace detail

/** Trace a message for a component; formatting cost is paid only if enabled. */
#define PLUS_LOG(component, ...)                                            \
    do {                                                                    \
        if (::plus::Log::instance().isEnabled(component)) {                 \
            ::plus::detail::logWrite(component, __VA_ARGS__);               \
        }                                                                   \
    } while (0)

} // namespace plus

#endif // PLUS_COMMON_LOG_HPP_
