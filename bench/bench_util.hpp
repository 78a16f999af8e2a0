/**
 * @file
 * Shared helpers for the table/figure reproduction harnesses: the
 * common machine builder, the ratio / efficiency arithmetic the
 * tables print, and the command-line plumbing every bench accepts:
 *
 *   --nodes=N            machine size (benches with a size knob)
 *   --protocol=NAME      update | invalidate (default: update;
 *                        docs/PROTOCOLS.md)
 *   --trace-out=<file>   Perfetto JSON trace
 *   --stats-out=<file>   metrics + traffic JSON
 *   --prof-out=<file>    host-time profile JSON (enables plus::prof)
 */

#ifndef PLUS_BENCH_BENCH_UTIL_HPP_
#define PLUS_BENCH_BENCH_UTIL_HPP_

#include <unistd.h>

#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/table.hpp"
#include "plus/plus.hpp"
#include "telemetry/json.hpp"
#include "telemetry/prof.hpp"

#ifndef PLUS_BUILD_TYPE
#define PLUS_BUILD_TYPE "unknown" // set by bench/CMakeLists.txt
#endif

namespace plus {
namespace bench {

/** The harness options common to every bench, parsed from argv. */
struct HarnessArgs {
    unsigned nodes = 0;           ///< --nodes=N; 0 = bench default
    Protocol protocol = Protocol::WriteUpdate; ///< --protocol=NAME
    std::string traceOut;         ///< --trace-out=<file>
    std::string statsOut;         ///< --stats-out=<file>
    std::string profOut;          ///< --prof-out=<file>
    std::vector<std::string> rest; ///< unrecognized (bench-specific)

    /** @p fallback unless --nodes= was given. */
    unsigned nodesOr(unsigned fallback) const
    {
        return nodes == 0 ? fallback : nodes;
    }

    /** True when any output was requested, i.e. telemetry should run. */
    bool telemetry() const
    {
        return !traceOut.empty() || !statsOut.empty();
    }
};

/** The process-wide options parseHarnessArgs() fills in. */
inline HarnessArgs&
harnessArgs()
{
    static HarnessArgs args;
    return args;
}

/**
 * Consume the common harness options from @p argv into the returned
 * (and process-wide, see harnessArgs()) struct; bench-specific flags
 * land in HarnessArgs::rest. Call once at the top of main;
 * machineBuilder() then applies the protocol/telemetry choices
 * automatically. Exits with usage on a malformed common flag.
 */
inline HarnessArgs&
parseHarnessArgs(int argc, char** argv)
{
    HarnessArgs& args = harnessArgs();
    for (int i = 1; i < argc; ++i) {
        const std::string arg(argv[i]);
        if (arg.rfind("--trace-out=", 0) == 0) {
            args.traceOut = arg.substr(12);
        } else if (arg.rfind("--stats-out=", 0) == 0) {
            args.statsOut = arg.substr(12);
        } else if (arg.rfind("--prof-out=", 0) == 0) {
            args.profOut = arg.substr(11);
            prof::enable(true);
        } else if (arg.rfind("--nodes=", 0) == 0) {
            args.nodes = static_cast<unsigned>(std::stoul(arg.substr(8)));
        } else if (arg.rfind("--protocol=", 0) == 0) {
            if (!protocolFromString(arg.substr(11), args.protocol)) {
                std::cerr << "unknown --protocol '" << arg.substr(11)
                          << "' (want update|invalidate)\n";
                std::exit(2);
            }
        } else {
            args.rest.push_back(arg);
        }
    }
    return args;
}

/**
 * The machine builder used by the reproduction experiments: the
 * paper's cost model on @p nodes nodes with deep frame reserves, the
 * command line's protocol choice, and telemetry armed when any
 * output file was requested. Benches chain further knobs and build().
 */
inline MachineBuilder
machineBuilder(unsigned nodes, ProcessorMode mode = ProcessorMode::Delayed)
{
    return MachineBuilder()
        .nodes(nodes)
        .framesPerNode(4096)
        .mode(mode)
        .protocol(harnessArgs().protocol)
        .observer(harnessArgs().telemetry());
}

/**
 * Write the --prof-out host-time profile, if requested. Called by
 * exportTelemetry(); benches that never build a machine (or exit
 * before exportTelemetry) call it directly. No-op otherwise.
 */
inline bool
exportProf()
{
    const HarnessArgs& args = harnessArgs();
    if (args.profOut.empty()) {
        return true;
    }
    std::ofstream os(args.profOut);
    if (!os) {
        std::cerr << "cannot open " << args.profOut << "\n";
        return false;
    }
    prof::writeJson(os);
    return true;
}

/**
 * Write the files requested on the command line from @p machine's
 * telemetry. Benches that build several machines call this on the one
 * the files should describe (conventionally the last run); each call
 * overwrites. No-op when no output was requested.
 */
inline bool
exportTelemetry(const core::Machine& machine)
{
    const HarnessArgs& args = harnessArgs();
    if (!args.traceOut.empty() && machine.telemetry() != nullptr) {
        std::ofstream os(args.traceOut);
        if (!os) {
            std::cerr << "cannot open " << args.traceOut << "\n";
            return false;
        }
        machine.writeTraceJson(os);
    }
    if (!args.statsOut.empty()) {
        std::ofstream os(args.statsOut);
        if (!os) {
            std::cerr << "cannot open " << args.statsOut << "\n";
            return false;
        }
        machine.writeStatsJson(os);
    }
    return exportProf();
}

/**
 * Write the "host" member of a bench JSON record at @p indent: core
 * count, CPU model, architecture, memory, compiler and build type (the
 * fields BENCH_fiber.json records), so an absolute rate says which
 * machine and build it came from. The caller adds any following comma.
 */
inline void
writeHostJson(std::ostream& os, const std::string& indent)
{
    std::string cpu = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        const std::size_t colon = line.find(':');
        if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
            cpu = line.substr(line.find_first_not_of(' ', colon + 1));
            break;
        }
    }
    const long long memory_gb =
        static_cast<long long>(sysconf(_SC_PHYS_PAGES)) *
        sysconf(_SC_PAGE_SIZE) / (1LL << 30);
#if defined(__x86_64__)
    const char* arch = "x86_64";
#elif defined(__aarch64__)
    const char* arch = "aarch64";
#else
    const char* arch = "unknown";
#endif
#if defined(__clang__)
    const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = "gcc " + std::to_string(__GNUC__) + "." +
                                 std::to_string(__GNUC_MINOR__) + "." +
                                 std::to_string(__GNUC_PATCHLEVEL__);
#else
    const std::string compiler = "unknown";
#endif
    const std::string in = indent + "  ";
    os << indent << "\"host\": {\n"
       << in << "\"nproc\": " << std::thread::hardware_concurrency()
       << ",\n"
       << in << "\"cpu\": " << telemetry::jsonQuoted(cpu) << ",\n"
       << in << "\"arch\": \"" << arch << "\",\n"
       << in << "\"memory_gb\": " << memory_gb << ",\n"
       << in << "\"compiler\": " << telemetry::jsonQuoted(compiler) << ",\n"
       << in << "\"build\": \"" << PLUS_BUILD_TYPE << "\"\n"
       << indent << "}";
}

/** Ratio of local to remote operations as Table 2-1 prints it. */
inline double
localRemoteRatio(std::uint64_t local, std::uint64_t remote)
{
    return remote == 0 ? static_cast<double>(local)
                       : static_cast<double>(local) /
                             static_cast<double>(remote);
}

/** num/den with a zero denominator mapped to 0 (slowdowns, speedups). */
inline double
ratioOf(double num, double den)
{
    return den == 0 ? 0.0 : num / den;
}

/** Parallel efficiency t1 / (n * tn) against a one-processor baseline. */
inline double
efficiency(Cycles t1, unsigned nodes, Cycles tn)
{
    return ratioOf(static_cast<double>(t1),
                   static_cast<double>(nodes) * static_cast<double>(tn));
}

/** "+x.y%" overhead of @p other relative to @p base. */
inline std::string
percentDelta(Cycles base, Cycles other)
{
    return TablePrinter::num(
               100.0 * (ratioOf(static_cast<double>(other),
                                static_cast<double>(base)) -
                        1.0),
               1) +
           "%";
}

inline void
printHeader(const std::string& what, const std::string& paper_ref)
{
    std::cout << "\n=== " << what << " ===\n"
              << "Reproduces: " << paper_ref << "\n"
              << "(absolute numbers differ from the 1990 testbed; the "
                 "trends are the result)\n\n";
}

/** Print @p table followed by the closing commentary every bench ends
 *  with (pass "" for none). */
inline void
finishTable(TablePrinter& table, const std::string& note = "",
            std::ostream& os = std::cout)
{
    table.print(os);
    os << "\n";
    if (!note.empty()) {
        os << note << "\n\n";
    }
}

} // namespace bench
} // namespace plus

#endif // PLUS_BENCH_BENCH_UTIL_HPP_
