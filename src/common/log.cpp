#include "common/log.hpp"

#include "common/config.hpp"

namespace plus {

const char*
logComponentName(LogComponent c)
{
    switch (c) {
      case LogComponent::Engine: return "engine";
      case LogComponent::Thread: return "thread";
      case LogComponent::Net: return "net";
      case LogComponent::Mem: return "mem";
      case LogComponent::Proto: return "proto";
      case LogComponent::Node: return "node";
      case LogComponent::Machine: return "machine";
      case LogComponent::Workload: return "workload";
      default: return "?";
    }
}

Log::Log()
{
    disableAll();
    applyEnvSpec(envRead("PLUS_LOG"));
}

Log&
Log::instance()
{
    // pluslint: allow(R4) -- the logger is a host-facing singleton; its
    // state never feeds the simulation (output only), and PLUS_LOG must
    // be readable before any machine exists.
    static Log log;
    return log;
}

bool
Log::componentFromName(const std::string& name, LogComponent& out)
{
    for (unsigned i = 0;
         i < static_cast<unsigned>(LogComponent::NumComponents); ++i) {
        const auto c = static_cast<LogComponent>(i);
        if (name == logComponentName(c)) {
            out = c;
            return true;
        }
    }
    return false;
}

void
Log::applyEnvSpec(const char* spec)
{
    if (spec == nullptr) {
        return;
    }
    std::string token;
    const std::string all(spec);
    for (std::size_t i = 0; i <= all.size(); ++i) {
        const char c = i < all.size() ? all[i] : ',';
        if (c != ',' && c != ' ' && c != ';') {
            token += c;
            continue;
        }
        if (token.empty()) {
            continue;
        }
        if (token == "all") {
            enableAll();
        } else if (LogComponent component; componentFromName(token,
                                                            component)) {
            enable(component);
        } else {
            std::cerr << "PLUS_LOG: unknown component '" << token
                      << "' (want all or a list of:";
            for (unsigned i2 = 0;
                 i2 < static_cast<unsigned>(LogComponent::NumComponents);
                 ++i2) {
                std::cerr << " "
                          << logComponentName(
                                 static_cast<LogComponent>(i2));
            }
            std::cerr << ")\n";
        }
        token.clear();
    }
}

void
Log::enableAll()
{
    enabled_.fill(true);
}

void
Log::disableAll()
{
    enabled_.fill(false);
}

std::function<Cycles()>&
Log::threadClock()
{
    // pluslint: allow(R4) -- the clock of the engine running on this
    // host thread; a machine never migrates between host threads, and
    // the clock only stamps log output.
    thread_local std::function<Cycles()> clock;
    return clock;
}

void
Log::write(LogComponent c, const std::string& msg)
{
    const std::function<Cycles()>& now = threadClock();
    if (now) {
        (*stream_) << "[" << now() << "] ";
    }
    (*stream_) << logComponentName(c) << ": " << msg << "\n";
}

} // namespace plus
