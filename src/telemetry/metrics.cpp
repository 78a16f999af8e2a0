#include "telemetry/metrics.hpp"

#include <ostream>

#include "common/panic.hpp"
#include "telemetry/json.hpp"

namespace plus {
namespace telemetry {

std::string
MetricsRegistry::uniqued(std::string name)
{
    auto taken = [this](const std::string& n) {
        for (const auto& [existing, fn] : counters_) {
            (void)fn;
            if (existing == n) {
                return true;
            }
        }
        for (const auto& [existing, fn] : gauges_) {
            (void)fn;
            if (existing == n) {
                return true;
            }
        }
        for (const auto& [existing, hist] : distributions_) {
            (void)hist;
            if (existing == n) {
                return true;
            }
        }
        return false;
    };
    if (!taken(name)) {
        return name;
    }
    for (unsigned suffix = 2;; ++suffix) {
        const std::string candidate =
            name + "#" + std::to_string(suffix);
        if (!taken(candidate)) {
            return candidate;
        }
    }
}

void
MetricsRegistry::addCounter(std::string name,
                            std::function<std::uint64_t()> get)
{
    PLUS_ASSERT(get, "counter '", name, "' registered without a getter");
    counters_.emplace_back(uniqued(std::move(name)), std::move(get));
}

void
MetricsRegistry::addGauge(std::string name, std::function<double()> get)
{
    PLUS_ASSERT(get, "gauge '", name, "' registered without a getter");
    gauges_.emplace_back(uniqued(std::move(name)), std::move(get));
}

void
MetricsRegistry::addDistribution(std::string name, const Histogram* hist)
{
    PLUS_ASSERT(hist, "distribution '", name,
                "' registered without a histogram");
    distributions_.emplace_back(uniqued(std::move(name)), hist);
}

MetricsRegistry::Snapshot
MetricsRegistry::snapshot(Cycles now) const
{
    Snapshot snap;
    snap.cycle = now;
    snap.counters.reserve(counters_.size());
    for (const auto& [name, get] : counters_) {
        snap.counters.emplace_back(name, get());
    }
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, get] : gauges_) {
        snap.gauges.emplace_back(name, get());
    }
    snap.distributions.reserve(distributions_.size());
    for (const auto& [name, hist] : distributions_) {
        DistSummary d;
        d.count = hist->count();
        d.sum = hist->sum();
        d.min = hist->min();
        d.max = hist->max();
        d.mean = hist->mean();
        d.p50 = hist->percentile(50.0);
        d.p90 = hist->percentile(90.0);
        d.p95 = hist->percentile(95.0);
        d.p99 = hist->percentile(99.0);
        d.p999 = hist->percentile(99.9);
        snap.distributions.emplace_back(name, d);
    }
    return snap;
}

void
MetricsRegistry::writeJson(std::ostream& os, const Snapshot& snap)
{
    os << "{\"cycle\":" << snap.cycle << ",\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : snap.counters) {
        os << (first ? "" : ",") << jsonQuoted(name) << ":" << value;
        first = false;
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto& [name, value] : snap.gauges) {
        os << (first ? "" : ",") << jsonQuoted(name) << ":"
           << jsonNumber(value);
        first = false;
    }
    os << "},\"distributions\":{";
    first = true;
    for (const auto& [name, d] : snap.distributions) {
        os << (first ? "" : ",") << jsonQuoted(name) << ":{"
           << "\"count\":" << d.count << ",\"sum\":" << jsonNumber(d.sum)
           << ",\"min\":" << jsonNumber(d.min)
           << ",\"max\":" << jsonNumber(d.max)
           << ",\"mean\":" << jsonNumber(d.mean)
           << ",\"p50\":" << jsonNumber(d.p50)
           << ",\"p90\":" << jsonNumber(d.p90)
           << ",\"p95\":" << jsonNumber(d.p95)
           << ",\"p99\":" << jsonNumber(d.p99)
           << ",\"p999\":" << jsonNumber(d.p999) << "}";
        first = false;
    }
    os << "}}";
}

} // namespace telemetry
} // namespace plus
