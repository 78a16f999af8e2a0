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
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "common/panic.hpp"

namespace plus {

/**
 * Exact distribution stored as a count per distinct value: count, sum,
 * min, max and every nearest-rank percentile are the same doubles a
 * sample-keeping histogram reports, in memory that grows with the
 * number of distinct values instead of the number of samples.
 *
 * Small non-negative integers, which covers every cycle latency, count
 * into a dense array that grows to the largest value seen below
 * kDenseCap; every other value (negative, fractional, or at and above
 * the cap) goes to a sorted value -> count map. sum() accumulates in
 * record order.
 */
class Histogram
{
  public:
    /** Integers in [0, kDenseCap) are counted in the dense array. */
    static constexpr std::size_t kDenseCap = 4096;

    void
    record(double value)
    {
        add(value, 1);
        sum_ += value;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count() ? min_ : 0.0; }
    double max() const { return count() ? max_ : 0.0; }
    double mean() const { return count() ? sum_ / count() : 0.0; }

    /** Exact percentile by nearest-rank; p in [0, 100]. */
    double
    percentile(double p) const
    {
        PLUS_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range");
        if (count_ == 0) {
            return 0.0;
        }
        const auto rank = std::min(
            static_cast<std::uint64_t>(p / 100.0 * (count_ - 1) + 0.5),
            count_ - 1);
        double found = 0.0;
        std::uint64_t seen = 0;
        walk([&](double value, std::uint64_t n) {
            seen += n;
            found = value;
            return rank < seen;
        });
        return found;
    }

    double median() const { return percentile(50.0); }

    void
    clear()
    {
        dense_.clear();
        sparse_.clear();
        count_ = 0;
        sum_ = 0.0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }

    /**
     * Merge another histogram's samples into this one. Its samples are
     * added to sum() in ascending value order.
     */
    void
    merge(const Histogram& other)
    {
        other.walk([this](double value, std::uint64_t n) {
            add(value, n);
            for (std::uint64_t i = 0; i < n; ++i) {
                sum_ += value;
            }
            return false;
        });
    }

  private:
    static bool
    isDense(double value)
    {
        return !std::signbit(value) &&
               value < static_cast<double>(kDenseCap) &&
               value == std::floor(value);
    }

    /** Count @p n samples of @p value; sum() is the caller's. */
    void
    add(double value, std::uint64_t n)
    {
        if (isDense(value)) {
            const auto i = static_cast<std::size_t>(value);
            if (i >= dense_.size()) {
                dense_.resize(i + 1);
            }
            dense_[i] += n;
        } else {
            sparse_[value] += n;
        }
        count_ += n;
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }

    /**
     * Call fn(value, count) for each distinct value in ascending order,
     * the dense and sparse stores interleaved, until fn returns true.
     */
    template <typename Fn>
    void
    walk(Fn fn) const
    {
        auto it = sparse_.begin();
        for (std::size_t i = 0; i < dense_.size(); ++i) {
            for (; it != sparse_.end() && it->first < static_cast<double>(i);
                 ++it) {
                if (fn(it->first, it->second)) {
                    return;
                }
            }
            if (dense_[i] != 0 && fn(static_cast<double>(i), dense_[i])) {
                return;
            }
        }
        for (; it != sparse_.end(); ++it) {
            if (fn(it->first, it->second)) {
                return;
            }
        }
    }

    std::vector<std::uint64_t> dense_;      ///< count of value i at [i]
    std::map<double, std::uint64_t> sparse_; ///< every other value
    std::uint64_t count_ = 0;
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
