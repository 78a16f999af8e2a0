/**
 * @file
 * The unified public API of the PLUS simulator.
 *
 * Everything an application, bench or example needs is reachable from
 * this one header: the fluent MachineBuilder, the Machine/Context
 * types it produces, and the protocol selector. The builder is a thin,
 * validated veneer over MachineConfig — every knob maps onto one
 * config field, `tune()` exposes the rest, and `build()` hands the
 * finished config to the `core::Machine(MachineConfig)` constructor
 * (constructing directly from a config gives the identical machine;
 * see tests/test_builder.cpp). The protocol is chosen only here or in
 * MachineConfig; the environment never changes it.
 *
 * @code
 *   auto machine = plus::MachineBuilder()
 *                      .nodes(16)
 *                      .protocol(plus::Protocol::WriteInvalidate)
 *                      .build();
 *   const plus::Addr counter = machine->alloc(plus::kPageBytes, 0);
 *   for (plus::NodeId n = 0; n < machine->nodeCount(); ++n)
 *       machine->spawn(n, [&](plus::Context& ctx) {
 *           ctx.fadd(counter, 1);
 *       });
 *   machine->run();
 * @endcode
 */

#ifndef PLUS_PLUS_HPP_
#define PLUS_PLUS_HPP_

#include <cstdint>
#include <memory>
#include <utility>

#include "common/config.hpp"
#include "core/context.hpp"
#include "core/machine.hpp"

namespace plus {

/** The simulated machine and the interface threads run against. */
using Machine = core::Machine;
using Context = core::Context;

/**
 * Coherence protocol (docs/PROTOCOLS.md): WriteUpdate is the paper's
 * protocol and the default; WriteInvalidate is the MSI-flavoured
 * counterpart for protocol comparisons. toString()/protocolFromString()
 * come with the enum.
 */
using Protocol = CoherenceProtocol;

/**
 * Fluent machine construction over MachineConfig. Call knobs in any
 * order; build() validates the assembled configuration (rejecting
 * contradictions with actionable messages) and returns the
 * running-ready machine.
 */
class MachineBuilder
{
  public:
    /** Number of nodes (each: processor + memory + coherence manager). */
    MachineBuilder&
    nodes(unsigned n)
    {
        config_.nodes = n;
        return *this;
    }

    /** Local-memory frames per node. */
    MachineBuilder&
    framesPerNode(unsigned frames)
    {
        config_.framesPerNode = frames;
        return *this;
    }

    /** Processor latency-hiding mode (blocking/delayed/context-switch). */
    MachineBuilder&
    mode(ProcessorMode m)
    {
        config_.mode = m;
        return *this;
    }

    /** Coherence protocol (see plus::Protocol and docs/PROTOCOLS.md). */
    MachineBuilder&
    protocol(Protocol p)
    {
        config_.protocol = p;
        return *this;
    }

    /** Seed for all workload randomness (and the fault injector's). */
    MachineBuilder&
    seed(std::uint64_t s)
    {
        config_.seed = s;
        return *this;
    }

    /** Contention-free latency-formula network instead of the mesh. */
    MachineBuilder&
    idealNetwork(bool on = true)
    {
        config_.network.ideal = on;
        return *this;
    }

    /** Explicit mesh width (default: near-square automatic). */
    MachineBuilder&
    meshWidth(unsigned width)
    {
        config_.network.meshWidth = width;
        return *this;
    }

    /**
     * Arm fault injection + reliable delivery with @p f. The enabled
     * flag is forced on — passing a config is the request; a disabled
     * fault config with live rates is a validation error by design.
     */
    MachineBuilder&
    faults(FaultConfig f)
    {
        f.enabled = true;
        config_.network.fault = std::move(f);
        return *this;
    }

    /** Arm the forward-progress watchdog with the given window. */
    MachineBuilder&
    watchdog(Cycles window_cycles)
    {
        config_.watchdog.enabled = true;
        config_.watchdog.windowCycles = window_cycles;
        return *this;
    }

    /** Toggle the protocol-invariant checker (on by default). */
    MachineBuilder&
    invariants(bool on)
    {
        config_.check.invariants = on;
        return *this;
    }

    /** Run the happens-before race detector. */
    MachineBuilder&
    races(bool on, bool panic_on_race = false)
    {
        config_.check.races = on;
        config_.check.panicOnRace = panic_on_race;
        return *this;
    }

    /**
     * Record the cycle-stamped event trace (checker hooks, network
     * telemetry, traffic attribution) — the input of
     * Machine::writeTraceJson()/writeStatsJson().
     */
    MachineBuilder&
    observer(bool trace = true)
    {
        config_.telemetry.trace = trace;
        return *this;
    }

    /** Full telemetry configuration (ring capacity etc.). */
    MachineBuilder&
    telemetry(TelemetryConfig t)
    {
        config_.telemetry = t;
        return *this;
    }

    /**
     * Escape hatch for fields without a dedicated knob: mutate the
     * assembled MachineConfig in place (cost model, network tuning,
     * check depth, ...).
     */
    template <typename Fn>
    MachineBuilder&
    tune(Fn&& fn)
    {
        std::forward<Fn>(fn)(config_);
        return *this;
    }

    /** The configuration assembled so far (not yet validated). */
    const MachineConfig& config() const { return config_; }

    /**
     * Validate the configuration and construct the machine.
     * Throws FatalError with an actionable message on contradictory
     * settings (MachineConfig::validate()).
     */
    std::unique_ptr<Machine>
    build() const
    {
        return std::make_unique<Machine>(config_);
    }

  private:
    MachineConfig config_;
};

} // namespace plus

#endif // PLUS_PLUS_HPP_
