/**
 * @file
 * Statistics primitives used by the instrumented subsystems.
 *
 * Each subsystem keeps a plain struct of named counters (cheap, typed) and
 * uses Histogram for latency-style distributions. The bench harnesses pull
 * these structs and format them with TablePrinter.
 */

#ifndef PLUS_COMMON_STATS_HPP_
#define PLUS_COMMON_STATS_HPP_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/panic.hpp"

namespace plus {

/**
 * Streaming distribution: tracks count, sum, min, max exactly, and keeps
 * every sample for exact percentiles (sample counts in this simulator are
 * modest; exactness beats approximation for reproducibility).
 */
class Histogram
{
  public:
    void
    record(double value)
    {
        samples_.push_back(value);
        sum_ += value;
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
        sorted_ = false;
    }

    std::uint64_t count() const { return samples_.size(); }
    double sum() const { return sum_; }
    double min() const { return count() ? min_ : 0.0; }
    double max() const { return count() ? max_ : 0.0; }
    double mean() const { return count() ? sum_ / count() : 0.0; }

    /** Exact percentile by nearest-rank; p in [0, 100]. */
    double
    percentile(double p) const
    {
        PLUS_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range");
        if (samples_.empty()) {
            return 0.0;
        }
        sortIfNeeded();
        const auto n = samples_.size();
        auto rank = static_cast<std::size_t>(p / 100.0 * (n - 1) + 0.5);
        return samples_[std::min(rank, n - 1)];
    }

    double median() const { return percentile(50.0); }

    void
    clear()
    {
        samples_.clear();
        sum_ = 0.0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
        sorted_ = false;
    }

    /** Merge another histogram's samples into this one. */
    void
    merge(const Histogram& other)
    {
        for (double v : other.samples_) {
            record(v);
        }
    }

  private:
    void
    sortIfNeeded() const
    {
        if (!sorted_) {
            std::sort(samples_.begin(), samples_.end());
            sorted_ = true;
        }
    }

    mutable std::vector<double> samples_;
    mutable bool sorted_ = false;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * One exported stats field: its full dotted metric name and a pointer to
 * the member it reads. Each stats struct declares its rows next to
 * itself, in snapshot order, and the owner registers a whole table with
 * MetricsRegistry::addCounters or addGauges. Adding a counter is adding
 * a row.
 */
template <typename Stats, typename Field = std::uint64_t>
struct StatRow {
    const char* name;
    Field Stats::*field;
};

/** Ratio helper that renders 0/0 as 0 instead of NaN. */
inline double
safeRatio(double numerator, double denominator)
{
    return denominator == 0.0 ? 0.0 : numerator / denominator;
}

} // namespace plus

#endif // PLUS_COMMON_STATS_HPP_
