/**
 * @file
 * Central metrics registry.
 *
 * Every per-subsystem stat struct (CmStats, ProcessorStats, Cache::Stats,
 * NetworkStats, the pending-writes and delayed-op caches, the work queue)
 * registers its counters here under a dotted name ("cm.sent.update-req",
 * "proc.stall.fence", ...), mostly through StatRow tables declared next
 * to the struct (common/stats.hpp). Registration is pull-based: the
 * registry stores a getter, the subsystem keeps incrementing its own
 * plain struct, and nothing on the hot path changes — a snapshot reads
 * every getter at the moment it is taken. Distributions are registered as pointers to the
 * owner's Histogram and summarized at snapshot time.
 *
 * core::Machine owns one registry per machine and registers every node's
 * stats at construction; snapshots are dumped as JSON for the
 * --stats-out harness flag.
 */

#ifndef PLUS_TELEMETRY_METRICS_HPP_
#define PLUS_TELEMETRY_METRICS_HPP_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace plus {
namespace telemetry {

/** Point-in-time summary of one registered Histogram. */
struct DistSummary {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
};

/** Named, typed, pull-based metric sources. */
class MetricsRegistry
{
  public:
    /** Monotonic event count, read through @p get at snapshot time. */
    void addCounter(std::string name, std::function<std::uint64_t()> get);

    /** Instantaneous value (utilization, occupancy high-water, ...). */
    void addGauge(std::string name, std::function<double()> get);

    /**
     * Latency-style distribution. The registry keeps the pointer; @p hist
     * must outlive it (subsystem stat structs and the Machine share that
     * lifetime).
     */
    void addDistribution(std::string name, const Histogram* hist);

    /**
     * A getter summing @p proj (a member pointer or a callable) over
     * every stats struct that @p each hands to its visitor at snapshot
     * time. A visitor that is never called reads 0.
     */
    template <typename Proj, typename Each>
    static auto
    sumOf(Proj proj, Each each)
    {
        return [proj, each]() -> std::uint64_t {
            std::uint64_t total = 0;
            each([&](const auto& stats) {
                total += std::invoke(proj, stats);
            });
            return total;
        };
    }

    /** One counter per StatRow of @p rows, summed over @p each. */
    template <typename Rows, typename Each>
    void
    addCounters(const Rows& rows, const Each& each)
    {
        for (const auto& row : rows) {
            addCounter(row.name, sumOf(row.field, each));
        }
    }

    /** One gauge per StatRow of @p rows, summed over @p each. */
    template <typename Rows, typename Each>
    void
    addGauges(const Rows& rows, const Each& each)
    {
        for (const auto& row : rows) {
            addGauge(row.name, [get = sumOf(row.field, each)] {
                return static_cast<double>(get());
            });
        }
    }

    /** Everything the registry knew at one cycle. */
    struct Snapshot {
        Cycles cycle = 0;
        std::vector<std::pair<std::string, std::uint64_t>> counters;
        std::vector<std::pair<std::string, double>> gauges;
        std::vector<std::pair<std::string, DistSummary>> distributions;
    };

    /** Read every source. Sources are reported in registration order. */
    Snapshot snapshot(Cycles now) const;

    /**
     * Write a snapshot as one JSON object:
     * {"cycle":N,"counters":{...},"gauges":{...},"distributions":{...}}.
     */
    static void writeJson(std::ostream& os, const Snapshot& snap);

    std::size_t size() const
    {
        return counters_.size() + gauges_.size() + distributions_.size();
    }

  private:
    /** Suffix duplicate names (#2, #3, ...) so lookups stay unambiguous. */
    std::string uniqued(std::string name);

    std::vector<std::pair<std::string, std::function<std::uint64_t()>>>
        counters_;
    std::vector<std::pair<std::string, std::function<double()>>> gauges_;
    std::vector<std::pair<std::string, const Histogram*>> distributions_;
};

} // namespace telemetry
} // namespace plus

#endif // PLUS_TELEMETRY_METRICS_HPP_
