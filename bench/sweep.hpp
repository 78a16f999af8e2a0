/**
 * @file
 * The sweep behind bench/paper_results: an experiment is a list
 * of independent points plus one printer. runSweep() runs the points of
 * several experiments on a pool of host threads, one serial machine per
 * thread at a time; each printer then reads its results in point order,
 * so the output does not depend on the thread count or on the order in
 * which the points finished.
 */

#ifndef PLUS_BENCH_SWEEP_HPP_
#define PLUS_BENCH_SWEEP_HPP_

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"

namespace plus {
namespace bench {

/**
 * What runSweep() hands a running point: build() makes its machines,
 * and the last one outlives the point so that it can be exported.
 */
struct PointRun {
    bool exported; ///< this point's machine is the one the files describe
    std::unique_ptr<core::Machine> machine;

    /** Build @p builder's machine, replacing the point's previous one.
     *  Telemetry never changes a run, so only the exported one has it. */
    core::Machine&
    build(MachineBuilder builder)
    {
        machine =
            builder.observer(exported && harnessArgs().telemetry()).build();
        return *machine;
    }
};

/** Labelled points whose closures return an R. */
template <typename R>
using Points =
    std::vector<std::pair<std::string, std::function<R(PointRun&)>>>;

/** A paper result: its points and the printer that renders them. */
struct Experiment {
    std::string name;       ///< command-line name = golden/<name>.txt
    std::string title;      ///< printHeader()'s headline
    std::string reproduces; ///< printHeader()'s "Reproduces:" line
    Points<void> points;    ///< each keeps its own result
    /** Render the results after every point has run; false = the
     *  experiment's own check of its numbers failed. */
    std::function<bool(std::ostream&)> print;
};

/** Declare an experiment whose @p print reads the results of @p points
 *  in point order. */
template <typename R>
Experiment
experiment(std::string name, std::string title, std::string reproduces,
           Points<R> points,
           std::function<bool(const std::vector<R>&, std::ostream&)> print)
{
    auto results = std::make_shared<std::vector<R>>(points.size());
    Experiment e{std::move(name), std::move(title), std::move(reproduces),
                 {}, [results, print](std::ostream& os) {
                     return print(*results, os);
                 }};
    for (std::size_t i = 0; i < points.size(); ++i) {
        e.points.emplace_back(
            std::move(points[i].first),
            [results, i, fn = std::move(points[i].second)](PointRun& run) {
                (*results)[i] = fn(run);
            });
    }
    return e;
}

/** A point that threw instead of returning its result. */
struct PointFailure {
    std::string experiment;
    std::string point;
    std::string what;
};

struct SweepOutcome {
    std::vector<PointFailure> failures; ///< in declared order
    /** The last machine the last point of the last experiment built:
     *  the one --trace-out/--stats-out describe (may be nullptr). */
    std::unique_ptr<core::Machine> exported;
};

/**
 * Run every point of @p experiments on @p workers host threads that each
 * pull the next point, in declared order, off one shared index. A point
 * that throws is recorded and the others still run.
 */
inline SweepOutcome
runSweep(const std::vector<Experiment>& experiments, unsigned workers)
{
    std::vector<std::pair<const Experiment*, std::size_t>> tasks;
    for (const Experiment& e : experiments) {
        for (std::size_t p = 0; p < e.points.size(); ++p) {
            tasks.emplace_back(&e, p);
        }
    }
    SweepOutcome out;
    std::vector<std::optional<std::string>> errors(tasks.size());
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i = 0; (i = next++) < tasks.size();) {
            const auto [e, p] = tasks[i];
            PointRun run{i + 1 == tasks.size(), nullptr};
            try {
                e->points[p].second(run);
            } catch (const std::exception& ex) {
                errors[i] = ex.what();
                continue;
            }
            if (run.exported) {
                out.exported = std::move(run.machine);
            }
        }
    };
    {
        // jthreads join when the pool goes out of scope, on every path.
        std::vector<std::jthread> pool;
        const std::size_t n =
            std::min<std::size_t>(std::max(workers, 1u), tasks.size());
        for (std::size_t w = 0; w < n; ++w) {
            pool.emplace_back(worker);
        }
    }
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (errors[i]) {
            const auto [e, p] = tasks[i];
            out.failures.push_back({e->name, e->points[p].first, *errors[i]});
        }
    }
    return out;
}

} // namespace bench
} // namespace plus

#endif // PLUS_BENCH_SWEEP_HPP_
