/**
 * @file
 * Configuration structs for the simulated PLUS machine.
 *
 * Defaults reproduce the 1990 implementation: 40 ns cycle, 4 Kbyte pages,
 * 8-entry pending-writes cache, 8-entry delayed-operations cache, mesh
 * router with a 24-cycle adjacent-node round trip (+4 cycles per extra
 * hop), 20 Mbyte/s links, and the coherence-manager occupancies of
 * Table 3-1 (39 cycles for simple interlocked operations, 52 for
 * queue/dequeue/min-xchng).
 */

#ifndef PLUS_COMMON_CONFIG_HPP_
#define PLUS_COMMON_CONFIG_HPP_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace plus {

/**
 * The single sanctioned environment read (pluslint rule R5, see
 * docs/STATIC_ANALYSIS.md): every PLUS_* knob is read through here so the
 * full set of environment inputs stays auditable in one translation unit.
 * Returns nullptr when the variable is unset.
 */
const char* envRead(const char* name);

/** One scripted fault-schedule entry (see net::FaultInjector). */
struct FaultScriptEntry {
    enum class Kind : std::uint8_t {
        LinkDown,  ///< kill the (undirected) link a <-> b
        LinkUp,    ///< revive the link a <-> b
        NodeDown,  ///< kill node a's router (all its traffic drops)
        NodeUp,    ///< revive node a's router
        /**
         * Fail-stop crash of node a: router, coherence manager, processor
         * and memory all go permanently silent at the scheduled cycle.
         * Unlike NodeDown there is no matching revive — a crashed node
         * never comes back, and with FaultConfig::recover armed the
         * machine runs the core::RecoveryManager protocol instead of
         * panicking on retransmit-budget exhaustion.
         */
        CrashNode,
    };
    /**
     * Firing cycle, relative to when the script is armed: the moment
     * enableFaults() runs for direct net::Network users, the first
     * run() for core::Machine workloads (setup allocation, replication
     * and settle() time is excluded, so a schedule composes with any
     * amount of setup).
     */
    Cycles at = 0;
    Kind kind = Kind::LinkDown;
    NodeId a = kInvalidNode;
    NodeId b = kInvalidNode; ///< second link endpoint; unused for nodes
};

/**
 * Fault injection and link-level reliable delivery (net::FaultInjector +
 * net::LinkLayer). Off by default: the network then behaves exactly as
 * without this subsystem — the hot path pays one null-pointer branch per
 * packet, and bench output is byte-identical (the determinism contract,
 * see docs/ROBUSTNESS.md). Enabling it arms both the injector and the
 * reliable-delivery layer: sequence numbers, ack/retransmit with
 * exponential backoff, and duplicate suppression recover every injected
 * loss without the coherence managers noticing.
 */
struct FaultConfig {
    bool enabled = false;

    /** Seed of the injector's own RNG (independent of workload seeds). */
    std::uint64_t seed = 1;

    // Per-packet fault probabilities; their sum must be <= 1.
    double dropRate = 0.0;      ///< packet silently lost
    double corruptRate = 0.0;   ///< payload CRC flipped (dropped at receive)
    double duplicateRate = 0.0; ///< packet delivered twice
    double delayRate = 0.0;     ///< packet held back before injection

    /** Extra delay for delayed packets, uniform in [1, maxDelayCycles]. */
    Cycles maxDelayCycles = 200;

    /** Scripted link/router kills and revives, applied at their cycle. */
    std::vector<FaultScriptEntry> script;

    /**
     * Per-frame retransmit budget; exceeding it panics with the link
     * diagnosis (permanent partition). 0 = retry forever and leave the
     * hang to the forward-progress watchdog.
     */
    unsigned maxRetransmits = 32;

    /**
     * Arm fail-stop crash recovery (core::RecoveryManager). When true,
     * retransmit-budget exhaustion against a node the injector reports
     * as crashed becomes a peer-death signal: the recovery manager
     * re-masters the dead node's pages onto surviving replicas, purges
     * it from every copy-list and page table, retries in-flight
     * operations against the new masters, and marks unreplicated pages
     * whose only copy died as lost (accesses then complete with a
     * bounded PageLost fault). When false, a CrashNode schedule behaves
     * like a permanent NodeDown and the link layer's retransmit-budget
     * panic diagnoses the partition.
     */
    bool recover = false;
};

/** Interconnection-network parameters. */
struct NetworkConfig {
    /**
     * Model selection: the mesh model routes messages hop by hop through
     * routers with finite link bandwidth (contention is visible); the
     * ideal model applies the latency formula with no contention.
     */
    bool ideal = false;

    /** Mesh width in nodes; 0 means choose automatically (near-square). */
    unsigned meshWidth = 0;

    /**
     * One-way fixed latency in cycles (network interface + first router).
     * With perHopCycles this is calibrated to the paper's measurement:
     * round trip between adjacent nodes = 24 cycles, each extra hop
     * adds 4 cycles round trip, i.e. one-way latency = 10 + 2 * hops.
     */
    Cycles fixedCycles = 10;

    /** One-way latency added per hop, in cycles. */
    Cycles perHopCycles = 2;

    /**
     * Link bandwidth in bytes per cycle. 20 Mbyte/s per direction at a
     * 25 MHz (40 ns) clock is 0.8 bytes/cycle. Routers are wormhole/
     * cut-through: serialization occupies each link but pipelines, so it
     * adds to head latency only once under zero load.
     */
    double bytesPerCycle = 0.8;

    /** Fault injection + reliable delivery (mesh and ideal networks). */
    FaultConfig fault;
};

/**
 * Coherence-protocol backend (plus::Protocol is an alias of this one
 * enum). Write-update is the paper's design and the default;
 * write-invalidate is the MSI-style comparison backend. See
 * docs/PROTOCOLS.md.
 */
enum class CoherenceProtocol : std::uint8_t {
    /** PLUS's non-demand write-update copy-list protocol (the paper). */
    WriteUpdate,
    /** MSI-style write-invalidate: a write invalidates remote copies. */
    WriteInvalidate,
};

/** "write-update" | "write-invalidate". */
const char* toString(CoherenceProtocol protocol);

/**
 * Parse a protocol name ("update"/"write-update"/"invalidate"/
 * "write-invalidate") into @p out; false if @p name matches none.
 */
bool protocolFromString(std::string_view name, CoherenceProtocol& out);

/** How the processor hides (or fails to hide) memory/sync latency. */
enum class ProcessorMode {
    /** Stall on every synchronization result (Figure 3-1 "blocking"). */
    Blocking,
    /** Use the delayed-operation issue/verify split (PLUS's mechanism). */
    Delayed,
    /**
     * Switch to another resident thread whenever a synchronization
     * operation is issued, paying ctxSwitchCycles (Figure 3-1's 16/40/140
     * curves).
     */
    ContextSwitch,
};

const char* toString(ProcessorMode mode);

/**
 * Timing constants. All values are in processor cycles and default to the
 * numbers published in the paper (Sections 3.1 and 5).
 */
struct CostModel {
    // --- Processor-side costs -------------------------------------------

    /** Issue of a delayed operation ("approximately 25 cycles"). */
    Cycles procIssueOp = 25;

    /** Reading an available delayed-op result ("about 10 cycles"). */
    Cycles procReadResult = 10;

    /** Processor-side cost to launch a write (non-blocking). */
    Cycles procIssueWrite = 2;

    /**
     * Processor-side costs of a blocking remote read. Together with
     * cmServiceReadReq these reproduce the paper's "about 32 cycles plus
     * the round-trip network delay": 8 + 12 + 12 = 32.
     */
    Cycles procRemoteReadIssue = 8;
    Cycles procRemoteReadComplete = 12;

    /** Cost of a context switch when ProcessorMode::ContextSwitch. */
    Cycles ctxSwitchCycles = 40;

    // --- Processor cache (32 Kbyte write-through, 4-word lines) ---------

    Cycles cacheHit = 1;
    /** Four-word line fetch from local memory ("takes 15 cycles"). */
    Cycles cacheMissFill = 15;
    /** Write-through store to local memory. */
    Cycles cacheWriteThrough = 2;
    unsigned cacheLineWords = 4;
    unsigned cacheBytes = 32 * 1024;
    /** Set associativity of the modelled cache. */
    unsigned cacheWays = 2;
    /**
     * Node-bus snoop policy for words the coherence manager writes:
     * false = write-update (the paper's design, keeps lines valid),
     * true = invalidate (forces a re-fetch; ablation, Section 2.2's
     * update-vs-invalidate discussion).
     */
    bool snoopInvalidate = false;

    // --- Coherence-manager occupancies ----------------------------------

    /** Servicing a remote read request (memory read + reply). */
    Cycles cmServiceReadReq = 12;
    /** Performing a write at a copy and forwarding the update. */
    Cycles cmServiceWrite = 8;
    /** Applying an update at a copy and forwarding it. */
    Cycles cmServiceUpdate = 8;
    /** Handling a write acknowledgement. */
    Cycles cmServiceAck = 2;
    /** Simple interlocked ops: xchng, cond-xchng, fadd, f&s, delayed-read. */
    Cycles cmRmwSimple = 39;
    /** Complex interlocked ops: queue, dequeue, min-xchng. */
    Cycles cmRmwComplex = 52;
    /** Forwarding a request that must be redirected (e.g. to the master). */
    Cycles cmForward = 2;
    /** Copying one word during background page replication. */
    Cycles cmPageCopyWord = 4;
    /**
     * OS exception handler filling a local page-table entry from the
     * centralized table (the lazy evaluation of Section 2.4), and the
     * re-translation performed when a request is nacked.
     */
    Cycles osPageFillCycles = 100;

    // --- Architectural capacities ----------------------------------------

    /** Pending-writes cache entries ("up to 8 writes in progress"). */
    unsigned pendingWriteEntries = 8;
    /** Delayed-operations cache entries ("8 in the current implementation"). */
    unsigned delayedOpEntries = 8;

    /**
     * DASH-style ordering (ablation): every interlocked operation
     * implicitly drains the pending-writes cache before issuing,
     * instead of PLUS's explicit, programmer-placed fence
     * ("PLUS does not enforce full fences as part of synchronization
     * operations, as in DASH", Section 2.3).
     */
    bool implicitFenceOnSync = false;
};

/**
 * Runtime checking (the plus::check subsystem): a protocol-invariant
 * checker over the coherence traffic and a happens-before race detector
 * over the application's accesses. Always compiled in; each layer is
 * toggled here and costs one null-pointer branch per event when off.
 */
struct CheckConfig {
    /** Validate protocol ordering invariants; panic on violation. */
    bool invariants = true;
    /** Run the happens-before race detector (off: seed workloads race). */
    bool races = false;
    /** Panic at the first detected race instead of recording it. */
    bool panicOnRace = false;
};

/**
 * Telemetry (the plus::telemetry subsystem): a cycle-stamped structured
 * event tracer plus per-message-class latency distributions and traffic
 * attribution, fed by the same event stream as the checker. The metrics
 * registry itself is always on (it pulls counters the subsystems keep
 * anyway); the tracer is opt-in and costs one null-pointer branch per
 * event when off. Tracing only observes — it never schedules events or
 * touches protocol state, so enabling it cannot change any timing.
 */
struct TelemetryConfig {
    /** Record events into the trace ring and the traffic summaries. */
    bool trace = false;
    /** Bounded event-ring capacity; older events are overwritten. */
    std::size_t ringCapacity = 1u << 18;
};

/**
 * Forward-progress watchdog (sim::Watchdog, wired by core::Machine).
 * When enabled, a periodic check panics — dumping recent telemetry and
 * the checker's event trace — if an entire window elapses with no
 * processor progress and no packet delivered while work is still
 * pending. Off by default: the watchdog then schedules no events at
 * all, so enabling it is the only way it can perturb timing.
 */
struct WatchdogConfig {
    bool enabled = false;
    /** Progress-check period in cycles. */
    Cycles windowCycles = 1u << 20;
};

/** Top-level machine description. */
struct MachineConfig {
    /** Number of nodes (each: processor + memory + coherence manager). */
    unsigned nodes = 16;

    /** Local-memory frames per node (8 Mbyte / 4 Kbyte = 2048 by default). */
    unsigned framesPerNode = 2048;

    /** Processor latency-hiding mode. */
    ProcessorMode mode = ProcessorMode::Delayed;

    /** Coherence-protocol backend. */
    CoherenceProtocol protocol = CoherenceProtocol::WriteUpdate;

    NetworkConfig network;
    CostModel cost;
    CheckConfig check;
    TelemetryConfig telemetry;
    WatchdogConfig watchdog;

    /** Seed for all workload randomness. */
    std::uint64_t seed = 1;

    /**
     * Validate and fill in derived fields (mesh dimensions). Throws
     * FatalError on inconsistent settings.
     */
    void validate();

    /** Mesh width after validate() (explicit or near-square automatic). */
    unsigned meshWidth() const { return resolvedMeshWidth_; }
    unsigned meshHeight() const { return resolvedMeshHeight_; }

    /** The coherence protocol; read `protocol` directly in new code. */
    CoherenceProtocol resolvedProtocol() const { return protocol; }

  private:
    unsigned resolvedMeshWidth_ = 0;
    unsigned resolvedMeshHeight_ = 0;
};

} // namespace plus

#endif // PLUS_COMMON_CONFIG_HPP_
