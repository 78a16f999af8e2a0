/**
 * @file
 * Deterministic fault injection for the interconnection network.
 *
 * The injector sits between Network::send() and hop delivery (see
 * net::LinkLayer): every frame put on the wire asks it for a Fate —
 * deliver, drop, corrupt, duplicate, or delay — rolled from the
 * injector's own seeded xoshiro256** stream, independent of workload
 * randomness, so a fault schedule replays exactly under both engine
 * backends. On top of the probabilistic fates it tracks link and router
 * liveness, mutated by a scripted schedule (FaultScriptEntry) or by
 * tests directly; the mesh consults liveness at every hop so a packet
 * already in flight dies at the killed link, exactly like real hardware.
 *
 * Everything here is reached only when FaultConfig::enabled armed the
 * subsystem; fault-free runs never construct an injector and pay one
 * null-pointer branch per packet (the event-stream contract, see
 * docs/ROBUSTNESS.md).
 */

#ifndef PLUS_NET_FAULT_INJECTOR_HPP_
#define PLUS_NET_FAULT_INJECTOR_HPP_

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "net/topology.hpp"

namespace plus {
namespace sim {
class Engine;
} // namespace sim

namespace net {

struct Packet;

/** What happens to one frame put on the wire. */
enum class Fate : std::uint8_t {
    Deliver,   ///< pass through untouched
    Drop,      ///< silently lost
    Corrupt,   ///< delivered with crcOk cleared (dropped at the receiver)
    Duplicate, ///< delivered twice
    Delay,     ///< held back a uniform [1, maxDelayCycles] extra cycles
};

/** Injected-fault counters (exported as net.fault.* metrics). */
struct FaultStats {
    std::uint64_t dropped = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t delayed = 0;
    std::uint64_t linkKills = 0;
    std::uint64_t nodeKills = 0;
    std::uint64_t nodeCrashes = 0;
};

/** FaultStats exported as net.fault.* (0 while no injector exists). */
inline constexpr StatRow<FaultStats> kFaultStatRows[] = {
    {"net.fault.dropped", &FaultStats::dropped},
    {"net.fault.corrupted", &FaultStats::corrupted},
    {"net.fault.duplicated", &FaultStats::duplicated},
    {"net.fault.delayed", &FaultStats::delayed},
};

/** nodeCrashes, exported after the net.link.* block. */
inline constexpr StatRow<FaultStats> kFaultCrashStatRows[] = {
    {"net.fault.nodeCrashes", &FaultStats::nodeCrashes},
};

/** Seeded fault source plus link/router liveness (see file comment). */
class FaultInjector
{
  public:
    FaultInjector(sim::Engine& engine, const Topology& topology,
                  const FaultConfig& config);

    /** Roll the fate of one frame (consumes one RNG draw). */
    Fate fateFor(const Packet& packet);

    /** Extra cycles for a Fate::Delay frame (consumes one RNG draw). */
    Cycles delayFor();

    /**
     * Schedule the config's script entries as engine events, each at
     * now() + entry.at. Idempotent — the second and later calls are
     * no-ops, so core::Machine can defer arming to the first run()
     * (setup settles must not consume workload-relative faults) while
     * direct Network users keep arming at enableFaults().
     */
    void scheduleScript();

    bool nodeAlive(NodeId node) const { return !deadNodes_[node]; }

    /** True once a CrashNode entry permanently failed @p node. */
    bool nodeCrashed(NodeId node) const { return crashedNodes_[node] != 0; }

    /** Number of nodes the schedule has crashed so far. */
    std::size_t crashedCount() const { return crashedCount_; }

    bool
    linkAlive(NodeId a, NodeId b) const
    {
        return deadLinks_.empty() ||
               deadLinks_.find(linkKey(a, b)) == deadLinks_.end();
    }

    /** Kill (false) or revive (true) a router. */
    void setNodeAlive(NodeId node, bool alive);

    /**
     * Fail-stop crash of @p node: the router is killed and the node is
     * marked permanently crashed (setNodeAlive(node, true) on a crashed
     * node is rejected). Fires the crash handler, if installed, from the
     * same context as the script entry (machine lane). Idempotent.
     */
    void crashNode(NodeId node);

    /**
     * Invoked from machine context when a CrashNode schedule entry
     * fires; core::Machine wires this to the recovery manager so the
     * crash is acted on at its scheduled cycle, deterministically,
     * rather than only when a retransmit budget notices the silence.
     */
    void setCrashHandler(std::function<void(NodeId)> fn)
    {
        crashHandler_ = std::move(fn);
    }

    /** Kill (false) or revive (true) the undirected link a <-> b. */
    void setLinkAlive(NodeId a, NodeId b, bool alive);

    /**
     * Test hook: decide fates deterministically instead of rolling.
     * Return nullopt to fall through to the probabilistic roll.
     */
    void
    setFateOverride(std::function<std::optional<Fate>(const Packet&)> fn)
    {
        override_ = std::move(fn);
    }

    /** Aggregate counters. */
    const FaultStats& stats() const { return stats_; }

    const FaultConfig& config() const { return config_; }

  private:
    /** Order-independent key of the undirected link a <-> b. */
    static std::uint64_t
    linkKey(NodeId a, NodeId b)
    {
        if (a > b) {
            std::swap(a, b);
        }
        return (static_cast<std::uint64_t>(a) << 32) | b;
    }

    void apply(const FaultScriptEntry& entry);

    /** The executing lane's RNG stream (last stream = machine). */
    Xoshiro256& laneRng();

    sim::Engine& engine_;
    FaultConfig config_;
    /**
     * One independent xoshiro256** stream per lane, seeded from
     * FaultConfig::seed and the lane index. A frame's fate is rolled on
     * the lane that transmits it, so a fault schedule replays exactly
     * on either engine backend. The recorded fault outputs depend on
     * this split.
     */
    std::vector<Xoshiro256> rngs_;
    FaultStats stats_;
    /**
     * Liveness is written from machine context only (scripted entries
     * and test hooks) and read at every hop.
     */
    std::vector<char> deadNodes_;
    /** Permanently failed nodes: written under crashNode only, never
     *  cleared — a crashed node cannot be revived. */
    std::vector<char> crashedNodes_;
    std::size_t crashedCount_ = 0;
    std::unordered_set<std::uint64_t> deadLinks_;
    std::function<std::optional<Fate>(const Packet&)> override_;
    std::function<void(NodeId)> crashHandler_;
    bool scriptArmed_ = false;
};

} // namespace net
} // namespace plus

#endif // PLUS_NET_FAULT_INJECTOR_HPP_
