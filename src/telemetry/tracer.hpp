/**
 * @file
 * Cycle-stamped structured event tracer.
 *
 * Telemetry is the second sink of the machine's check::EventStream (after
 * the checker). It keeps the events Perfetto exports in a bounded
 * check::EventRing — old events are overwritten, so tracing a long run
 * keeps the tail — and synthesizes one PendingWrite interval per retired
 * pending-writes entry. Alongside the ring it accumulates
 * per-message-class latency distributions, pending-write lifetimes, and
 * per-page / per-link traffic attribution, which survive ring
 * wrap-around.
 *
 * The tracer only observes: it never schedules simulation events, never
 * touches protocol state, and never reads anything it could perturb —
 * a run with tracing enabled is cycle-for-cycle identical to one
 * without.
 */

#ifndef PLUS_TELEMETRY_TRACER_HPP_
#define PLUS_TELEMETRY_TRACER_HPP_

#include <array>
#include <cstdint>
#include <map>
#include <unordered_map>

#include "check/event.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "proto/messages.hpp"

namespace plus {
namespace telemetry {

class MetricsRegistry;

/** The tracing sink core::Machine adds to the stream after the checker. */
class Telemetry final : public check::EventSink
{
  public:
    explicit Telemetry(const TelemetryConfig& config);

    const check::EventRing& events() const { return ring_; }

    /** Per-message-class end-to-end latency, cycles. */
    const Histogram&
    latencyOf(proto::MsgType type) const
    {
        return latency_[static_cast<std::size_t>(type)];
    }

    /** Pending-write entry lifetimes (insert to retire), cycles. */
    const Histogram& pendingLifetime() const { return pendingLifetime_; }

    /** Traffic attributed to one directed mesh link. */
    struct LinkTraffic {
        std::uint64_t messages = 0;
        std::uint64_t bytes = 0;
        Cycles busyCycles = 0;
    };

    /** Traffic attributed to one virtual page. */
    struct PageTraffic {
        std::uint64_t messages = 0;
        std::uint64_t bytes = 0;
        std::uint64_t updates = 0; ///< UpdateReq share of messages
    };

    /** Keyed (from << 32) | to; ordered for deterministic export. */
    const std::map<std::uint64_t, LinkTraffic>&
    linkTraffic() const
    {
        return linkTraffic_;
    }

    /**
     * Keyed by vpn; messages that address no page (acks, responses,
     * copy-engine control) fall into the reserved vpn 0 bucket.
     */
    const std::map<Vpn, PageTraffic>& pageTraffic() const
    {
        return pageTraffic_;
    }

    /** Register the tracer's own derived metrics. */
    void registerMetrics(MetricsRegistry& registry);

    void consume(const check::Event& event) override;

  private:
    check::EventRing ring_;

    /** PendingInsert records of open entries, keyed (node << 32) | tag. */
    std::unordered_map<std::uint64_t, check::Event> openPending_;

    std::array<Histogram,
               static_cast<std::size_t>(proto::MsgType::NumTypes)>
        latency_;
    Histogram pendingLifetime_;

    std::map<std::uint64_t, LinkTraffic> linkTraffic_;
    std::map<Vpn, PageTraffic> pageTraffic_;
};

} // namespace telemetry
} // namespace plus

#endif // PLUS_TELEMETRY_TRACER_HPP_
