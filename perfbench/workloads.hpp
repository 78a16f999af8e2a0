/**
 * @file
 * The benchmark's workload units. One unit builds a fresh machine
 * through the public API, generates its inputs from the seed, runs the
 * measured phase, snapshots the metrics and checks the outputs against
 * a host-side reference. Every host time here is measured around calls
 * into plus::Machine, plus::Context and plus::workloads; nothing is
 * measured inside the simulator.
 */

#ifndef PERFBENCH_WORKLOADS_HPP_
#define PERFBENCH_WORKLOADS_HPP_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace perfbench {

enum class Workload { LocalHits, UpdateFlood, Sssp };

const char* toString(Workload w);

/** Parse "local-hits" | "update-flood" | "sssp"; false if unknown. */
bool workloadFromString(std::string_view name, Workload& out);

/** How to run a unit; none of these change the generated inputs. */
struct UnitOptions {
    /** Enable plus::prof and record per-op simulated-cycle spans. */
    bool trace = false;
    /** Self-test only: flip one value of the host reference
     *  (local-hits and update-flood, whose references the benchmark owns). */
    bool corruptReference = false;
    /** Self-test only: cycle cap handed to Machine::run() (local-hits and
     *  update-flood; runSssp calls run() itself). */
    plus::Cycles maxCycles = ~plus::Cycles{0} >> 1;
};

/** Simulated cycles per operation, from the benchmark's thread bodies. */
struct OpSpans {
    std::vector<plus::Cycles> read;
    std::vector<plus::Cycles> write;
    std::vector<plus::Cycles> rmw; ///< issue to verify
    std::vector<plus::Cycles> fence;
};

/** Append every span of @p from to @p to. */
void append(OpSpans& to, const OpSpans& from);

/** Host milliseconds per plus::prof phase over the measured phase. */
struct ProfPhases {
    double engineRunMs = 0;
    double procDispatchMs = 0;
    double protoHandleMs = 0;
    double netDeliverMs = 0;
    double runWallMs = 0; ///< wall time inside Engine::run (the base)
};

/** Everything one unit measured. */
struct UnitResult {
    bool ok = false;
    std::string failure; ///< why the unit failed, empty when ok

    double setupS = 0; ///< build through spawn (sssp: build + graph)
    double wallS = 0;  ///< the measured phase
    plus::Cycles simCycles = 0;
    double userS = 0; ///< process CPU over the measured phase
    double sysS = 0;

    /** Host ms around each call into the simulator, in call order. */
    std::vector<std::pair<std::string, double>> spansMs;
    /** metricsSnapshot() after the unit, flattened to name -> value. */
    std::vector<std::pair<std::string, double>> metrics;
    /** Hash of simCycles and every metric: identical for equal seeds. */
    std::uint64_t digest = 0;

    double relaxationsPerEdge = 0; ///< sssp only
    OpSpans ops;                   ///< filled only when tracing
    ProfPhases prof;               ///< filled only when tracing

    std::string engine;   ///< resolved event-engine backend
    std::string protocol; ///< resolved coherence protocol
};

/**
 * Run one unit of @p w on the inputs generated from @p seed. Never
 * throws for simulator failures: FatalError, PanicError and wrong
 * outputs come back as ok == false with the reason.
 */
UnitResult runUnit(Workload w, std::uint64_t seed, const UnitOptions& opt);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP_
