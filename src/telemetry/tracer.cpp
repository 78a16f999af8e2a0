#include "telemetry/tracer.hpp"

#include <string>

#include "telemetry/metrics.hpp"

namespace plus {
namespace telemetry {

using check::EventKind;

Telemetry::Telemetry(const TelemetryConfig& config)
    : ring_(config.ringCapacity)
{
}

void
Telemetry::registerMetrics(MetricsRegistry& registry)
{
    registry.addCounter("telemetry.events.recorded",
                        [this] { return ring_.recorded(); });
    // The ring overwriting the oldest record is a tracing fidelity loss;
    // stats snapshots report it where trace consumers look for it.
    registry.addCounter("telemetry.trace.dropped",
                        [this] { return ring_.dropped(); });
    for (std::size_t t = 0;
         t < static_cast<std::size_t>(proto::MsgType::NumTypes); ++t) {
        registry.addDistribution(
            std::string("net.latency.") +
                proto::toString(static_cast<proto::MsgType>(t)),
            &latency_[t]);
    }
    registry.addDistribution("pending.lifetime", &pendingLifetime_);
}

void
Telemetry::consume(const check::Event& e)
{
    switch (e.kind) {
      case EventKind::MessageSent: {
        PageTraffic& page = pageTraffic_[e.vpn];
        page.messages += 1;
        page.bytes += e.bytes;
        if (e.cls == static_cast<std::uint8_t>(proto::MsgType::UpdateReq)) {
            page.updates += 1;
        }
        break;
      }
      case EventKind::PacketDelivered:
        if (e.cls < static_cast<std::uint8_t>(proto::MsgType::NumTypes)) {
            latency_[e.cls].record(static_cast<double>(e.a));
        }
        break;
      case EventKind::LinkBusy: {
        LinkTraffic& link =
            linkTraffic_[(static_cast<std::uint64_t>(e.node) << 32) |
                         e.peer];
        link.messages += 1;
        link.bytes += e.bytes;
        link.busyCycles += e.b;
        break;
      }
      case EventKind::PendingInsert:
        openPending_[(static_cast<std::uint64_t>(e.node) << 32) | e.a] = e;
        return;
      case EventKind::PendingComplete: {
        auto it =
            openPending_.find((static_cast<std::uint64_t>(e.node) << 32) |
                              e.a);
        if (it == openPending_.end()) {
            return; // insert predates tracer installation
        }
        const check::Event& open = it->second;
        ring_.push({.kind = EventKind::PendingWrite,
                    .node = e.node,
                    .cycle = e.cycle,
                    .vpn = open.vpn,
                    .word = open.word,
                    .a = e.a,
                    .b = open.cycle});
        pendingLifetime_.record(static_cast<double>(e.cycle - open.cycle));
        openPending_.erase(it);
        return;
      }
      case EventKind::PacketDropped:
      case EventKind::Retransmit:
      case EventKind::WriteIssued:
      case EventKind::WordInvalidated:
      case EventKind::WordRevalidated:
      case EventKind::OwnershipTransfer:
      case EventKind::ChainApplied:
      case EventKind::FenceComplete:
      case EventKind::ProcStall:
      case EventKind::ProcRmwIssue:
      case EventKind::ProcVerify:
        break;
      default:
        return; // checker-only kinds
    }
    ring_.push(e);
}

} // namespace telemetry
} // namespace plus
