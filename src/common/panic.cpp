#include "common/panic.hpp"

#include <atomic>

namespace plus {

namespace {

// Atomic: panics may be raised on any worker thread while another
// thread installs or reads the hook.
// pluslint: allow(R4) -- process-wide diagnostic hook; only decorates
// panic text, never feeds simulation state.
std::atomic<PanicDecorator> g_decorator{nullptr}; // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

} // namespace

void
setPanicDecorator(PanicDecorator fn)
{
    g_decorator.store(fn);
}

PanicDecorator
panicDecorator()
{
    return g_decorator.load();
}

namespace detail {

void
throwPanic(const char* file, int line, const std::string& msg)
{
    std::ostringstream os;
    os << "panic: " << msg << " (" << file << ":" << line << ")";
    if (const PanicDecorator decorate = g_decorator.load()) {
        os << decorate(os.str());
    }
    throw PanicError(os.str());
}

void
throwFatal(const std::string& msg)
{
    throw FatalError("fatal: " + msg);
}

} // namespace detail
} // namespace plus
