#include "common/config.hpp"

#include <cmath>
#include <cstdlib>
#include <string_view>

#include "common/panic.hpp"

namespace plus {

const char*
envRead(const char* name)
{
    return std::getenv(name);
}

const char*
toString(ProcessorMode mode)
{
    switch (mode) {
      case ProcessorMode::Blocking: return "blocking";
      case ProcessorMode::Delayed: return "delayed";
      case ProcessorMode::ContextSwitch: return "context-switch";
      default: return "?";
    }
}

const char*
toString(CoherenceProtocol protocol)
{
    switch (protocol) {
      case CoherenceProtocol::WriteUpdate: return "write-update";
      case CoherenceProtocol::WriteInvalidate: return "write-invalidate";
      default: return "?";
    }
}

bool
protocolFromString(std::string_view name, CoherenceProtocol& out)
{
    if (name == "update" || name == "write-update") {
        out = CoherenceProtocol::WriteUpdate;
    } else if (name == "invalidate" || name == "write-invalidate") {
        out = CoherenceProtocol::WriteInvalidate;
    } else {
        return false;
    }
    return true;
}

void
MachineConfig::validate()
{
    if (nodes == 0) {
        PLUS_FATAL("machine needs at least one node");
    }
    if (framesPerNode == 0) {
        PLUS_FATAL("framesPerNode must be positive");
    }
    if (cost.pendingWriteEntries == 0) {
        PLUS_FATAL("pendingWriteEntries must be positive");
    }
    if (cost.delayedOpEntries == 0) {
        PLUS_FATAL("delayedOpEntries must be positive");
    }
    if (cost.cacheLineWords == 0 || cost.cacheWays == 0 ||
        cost.cacheBytes == 0) {
        PLUS_FATAL("cache geometry must be positive");
    }
    if (network.bytesPerCycle <= 0.0) {
        PLUS_FATAL("network bandwidth must be positive");
    }

    const FaultConfig& fault = network.fault;
    if (!fault.enabled &&
        (fault.dropRate > 0.0 || fault.corruptRate > 0.0 ||
         fault.duplicateRate > 0.0 || fault.delayRate > 0.0 ||
         !fault.script.empty())) {
        PLUS_FATAL("fault rates or a fault script are configured but "
                   "network.fault.enabled is false; set it to true (or "
                   "clear the fault settings) — a disabled injector "
                   "would silently ignore them");
    }
    if (fault.dropRate < 0.0 || fault.corruptRate < 0.0 ||
        fault.duplicateRate < 0.0 || fault.delayRate < 0.0) {
        PLUS_FATAL("fault rates must be non-negative");
    }
    if (fault.dropRate + fault.corruptRate + fault.duplicateRate +
            fault.delayRate > 1.0) {
        PLUS_FATAL("fault rates must sum to at most 1");
    }
    if (fault.enabled && fault.maxDelayCycles == 0 && fault.delayRate > 0.0) {
        PLUS_FATAL("delayRate requires maxDelayCycles > 0");
    }
    std::vector<char> crashed(nodes, 0);
    std::size_t crash_count = 0;
    for (const FaultScriptEntry& entry : fault.script) {
        if (entry.a >= nodes ||
            ((entry.kind == FaultScriptEntry::Kind::LinkDown ||
              entry.kind == FaultScriptEntry::Kind::LinkUp) &&
             entry.b >= nodes)) {
            PLUS_FATAL("fault script names node beyond machine size");
        }
        if (entry.kind == FaultScriptEntry::Kind::CrashNode) {
            if (!crashed[entry.a]) {
                crashed[entry.a] = 1;
                ++crash_count;
            }
        }
    }
    if (crash_count == nodes && nodes > 0) {
        PLUS_FATAL("crash schedule kills every node in the machine; "
                   "nothing would survive to recover — leave at least "
                   "one node out of the CrashNode entries");
    }
    if (crash_count > 0 && fault.maxRetransmits == 0) {
        if (fault.recover) {
            PLUS_FATAL("recovery detects a crash by retransmit-budget "
                       "exhaustion; maxRetransmits = 0 retries forever "
                       "and the death would never be reported — give "
                       "the link layer a finite budget");
        }
        PLUS_FATAL("CrashNode without recovery and with an unbounded "
                   "retransmit budget (maxRetransmits = 0) can only end "
                   "in a watchdog hang; arm network.fault.recover and a "
                   "finite budget, or keep a finite budget for diagnosis");
    }
    if (watchdog.enabled && watchdog.windowCycles == 0) {
        PLUS_FATAL("watchdog window must be positive");
    }

    if (protocol == CoherenceProtocol::WriteInvalidate && fault.recover) {
        PLUS_FATAL("write-invalidate does not support fail-stop "
                   "recovery: re-mastering would promote a replica "
                   "that may hold invalidated words, losing data; "
                   "run crash-recovery schedules under write-update "
                   "or drop network.fault.recover");
    }

    if (network.meshWidth != 0) {
        if (network.meshWidth > nodes) {
            PLUS_FATAL("meshWidth ", network.meshWidth,
                       " exceeds node count ", nodes);
        }
        resolvedMeshWidth_ = network.meshWidth;
    } else {
        // Near-square mesh: the smallest width whose square covers nodes.
        auto w = static_cast<unsigned>(
            std::ceil(std::sqrt(static_cast<double>(nodes))));
        resolvedMeshWidth_ = w;
    }
    resolvedMeshHeight_ =
        (nodes + resolvedMeshWidth_ - 1) / resolvedMeshWidth_;
}

} // namespace plus
