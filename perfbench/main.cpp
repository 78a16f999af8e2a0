/**
 * @file
 * plus_bench: runs one benchmark workload for a fixed host time and
 * prints its metrics (see README.md in this directory).
 *
 *   plus_bench --workload <local-hits|update-flood|sssp> --seed <n>
 *              --seconds <s> [--trace <0|1>] [--layers-out <file>]
 *   plus_bench --selftest
 *
 * A run covers kInputsPerRun inputs derived from the seed and runs one
 * unit (build, generate, run, check) of each in turn, pass after pass,
 * until the time is up and at least kMinPasses passes are complete.
 * Every unit is checked; a unit whose simulated
 * digest differs from the first unit of the same input also fails. A
 * timing is the median over an input's units, averaged over the inputs,
 * so a run measures the workload rather than one input's quirks.
 *
 * The last line of standard output is one JSON object: {"correct",
 * "attempted", "failed", "metrics"}. With --trace 0 the metrics are the
 * end-to-end ones. With --trace 1 passes alternate between untraced and
 * traced (plus::prof on, per-op spans recorded), the metrics are the
 * per-layer ones, and the full layer report goes to --layers-out.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using perfbench::OpSpans;
using perfbench::UnitOptions;
using perfbench::UnitResult;
using perfbench::Workload;

/** Inputs one run covers; their spread averages out over this many. */
constexpr unsigned kInputsPerRun = 16;
/** Passes over the inputs a run makes at least, whatever the time. */
constexpr unsigned kMinPasses = 2;

std::uint64_t
inputSeed(std::uint64_t seed, unsigned k)
{
    return seed * kInputsPerRun + k;
}

std::string
num(double v)
{
    if (!std::isfinite(v)) {
        v = 0;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

double
median(std::vector<double> v)
{
    if (v.empty()) {
        return 0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile @p p (0..100) of @p v. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty()) {
        return 0;
    }
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
percentile(const std::vector<plus::Cycles>& v, double p)
{
    return percentile(std::vector<double>(v.begin(), v.end()), p);
}

/**
 * The highest of a fixed ladder of percentiles that still has at least
 * ten samples beyond it, or 0 when even the median has fewer.
 */
double
tailPercentileOf(std::size_t n)
{
    double best = 0;
    for (double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
        if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) {
            best = p;
        }
    }
    return best;
}

double
ratio(double num_v, double den)
{
    return den > 0 ? num_v / den : 0;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                return line.substr(line.find_first_not_of(" \t", colon + 1));
            }
        }
    }
    return "unknown";
}

/**
 * Peak resident memory of this process image. VmHWM, not ru_maxrss:
 * Linux carries ru_maxrss across exec, so it would report the launching
 * process's footprint whenever that was larger.
 */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;
        }
    }
    return 0;
}

/** Attempted and failed units, with the determinism-digest check. */
struct Tally {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    /** Input seed -> digest of its first unit that passed. */
    std::map<std::uint64_t, std::uint64_t> digests;
    std::vector<std::string> failures;

    /** Count @p r; false if it failed (wrong output, error, or digest). */
    bool
    add(std::uint64_t seed, UnitResult& r)
    {
        ++attempted;
        if (r.ok) {
            const auto [it, first] = digests.emplace(seed, r.digest);
            if (!first && it->second != r.digest) {
                r.ok = false;
                r.failure = "simulated digest differs from the first unit "
                            "of input seed " +
                            std::to_string(seed);
            }
        }
        if (!r.ok) {
            ++failed;
            if (failures.size() < 5) {
                failures.push_back(r.failure);
            }
        }
        return r.ok;
    }
};

/**
 * The units one input ran. Simulated results repeat exactly for an
 * input (the digest check fails a unit that does not), so they are kept
 * once, and the units keep only their host timings: what a run retains
 * then does not grow with the number of units it runs.
 */
struct InputRuns {
    std::uint64_t seed = 0;
    std::vector<UnitResult> plain;
    std::vector<UnitResult> traced;
    /** metricsSnapshot() of the first unit. */
    std::vector<std::pair<std::string, double>> metrics;
    double relaxationsPerEdge = 0;
    /** Op spans of the first traced unit. */
    OpSpans ops;

    /** Keep @p r, a unit that passed, moving its simulated results out. */
    void
    add(UnitResult&& r, bool traced_unit)
    {
        if (metrics.empty()) {
            metrics = std::move(r.metrics);
            relaxationsPerEdge = r.relaxationsPerEdge;
        }
        if (traced_unit && traced.empty()) {
            ops = std::move(r.ops);
        }
        r.metrics = {};
        r.ops = {};
        (traced_unit ? traced : plain).push_back(std::move(r));
    }

    double
    metric(std::string_view name) const
    {
        for (const auto& [n, v] : metrics) {
            if (n == name) {
                return v;
            }
        }
        return 0;
    }
};

/** Mean over the inputs of @p f of each input. */
template <typename F>
double
meanOverInputs(const std::vector<InputRuns>& inputs, F&& f)
{
    double sum = 0;
    for (const InputRuns& in : inputs) {
        sum += f(in);
    }
    return inputs.empty() ? 0 : sum / static_cast<double>(inputs.size());
}

std::vector<double>
wallsOf(const std::vector<UnitResult>& units)
{
    std::vector<double> v;
    for (const UnitResult& u : units) {
        v.push_back(u.wallS);
    }
    return v;
}

/** Mean over the inputs of the median of @p f over each one's units. */
template <typename F>
double
acrossInputs(const std::vector<InputRuns>& inputs, bool traced, F&& f)
{
    double sum = 0;
    std::size_t n = 0;
    for (const InputRuns& in : inputs) {
        const std::vector<UnitResult>& units = traced ? in.traced : in.plain;
        if (units.empty()) {
            continue;
        }
        std::vector<double> v;
        for (const UnitResult& u : units) {
            v.push_back(f(u));
        }
        sum += median(v);
        ++n;
    }
    return n > 0 ? sum / static_cast<double>(n) : 0;
}

struct Args {
    Workload workload = Workload::LocalHits;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string layersOut;
    bool selftest = false;
};

bool
parseArgs(int argc, char** argv, Args& a)
{
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--selftest") {
            a.selftest = true;
            continue;
        }
        if (i + 1 >= argc) {
            return false;
        }
        const std::string value = argv[++i];
        if (flag == "--workload") {
            if (!perfbench::workloadFromString(value, a.workload)) {
                return false;
            }
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            a.seconds = std::stod(value);
        } else if (flag == "--trace") {
            a.trace = value == "1";
        } else if (flag == "--layers-out") {
            a.layersOut = value;
        } else {
            return false;
        }
    }
    return a.selftest || have_workload;
}

/**
 * Show the output checks are live: a wrong host reference, a cycle cap
 * that raises FatalError and a digest that does not repeat must each
 * count a unit as failed.
 */
int
selftest()
{
    int bad = 0;
    auto expectFailed = [&](const char* what, UnitResult r, Tally& t) {
        const std::size_t before = t.failed;
        t.add(1, r);
        const bool counted = t.failed == before + 1;
        std::cout << "selftest " << what << ": "
                  << (counted ? "counted as failed (" + r.failure + ")"
                              : std::string("NOT counted as failed"))
                  << "\n";
        bad += counted ? 0 : 1;
    };

    for (Workload w : {Workload::LocalHits, Workload::UpdateFlood}) {
        Tally t;
        UnitOptions wrong;
        wrong.corruptReference = true;
        expectFailed(perfbench::toString(w),
                     perfbench::runUnit(w, 1, wrong), t);
    }
    {
        Tally t;
        UnitOptions capped;
        capped.maxCycles = 1000;
        expectFailed("cycle cap",
                     perfbench::runUnit(Workload::LocalHits, 1, capped), t);
    }
    {
        Tally t;
        UnitResult good = perfbench::runUnit(Workload::LocalHits, 1, {});
        if (!t.add(1, good)) {
            std::cout << "selftest: clean unit failed: " << good.failure
                      << "\n";
            ++bad;
        }
        UnitResult drifted = good;
        drifted.digest ^= 1;
        expectFailed("digest", drifted, t);
    }
    std::cout << (bad == 0 ? "selftest ok" : "selftest FAILED") << "\n";
    return bad == 0 ? 0 : 1;
}

/** Per-layer metrics, and the layer report of a traced run. */
class LayerReport
{
  public:
    struct Metric {
        std::string name;
        const char* unit;
        double value;
    };

    void
    value(const std::string& layer, const std::string& name,
          const char* unit, double v)
    {
        metrics_.push_back({name, unit, v});
        add(layer, name,
            "{\"value\":" + num(v) + ",\"unit\":\"" + unit + "\"}");
    }

    /** A ratio, reported with its base. */
    void
    ratioOf(const std::string& layer, const std::string& name, double n,
            const std::string& n_of, double d, const std::string& d_of)
    {
        const double v = ratio(n, d);
        metrics_.push_back({name, "ratio", v});
        add(layer, name,
            "{\"value\":" + num(v) + ",\"unit\":\"ratio\",\"num\":" + num(n) +
                ",\"num_of\":\"" + n_of + "\",\"den\":" + num(d) +
                ",\"den_of\":\"" + d_of + "\"}");
    }

    const std::vector<Metric>&
    metrics() const
    {
        return metrics_;
    }

    std::string
    layersJson() const
    {
        std::string out;
        for (const auto& [layer, body] : layers_) {
            out += (out.empty() ? "{\"" : ",\"") + layer + "\":{" + body + "}";
        }
        return out + "}";
    }

  private:
    void
    add(const std::string& layer, const std::string& name,
        const std::string& json)
    {
        std::string& body = layers_[layer];
        body += (body.empty() ? "\"" : ",\"") + name + "\":" + json;
    }

    std::vector<Metric> metrics_;
    std::map<std::string, std::string> layers_;
};

double
spanMs(const UnitResult& u, const char* name)
{
    for (const auto& [span, ms] : u.spansMs) {
        if (span == name) {
            return ms;
        }
    }
    return 0;
}

/**
 * The per-layer report: counts and host times from the untraced
 * units, plus::prof phases and op spans from the traced ones.
 */
LayerReport
layerReport(const std::vector<InputRuns>& inputs)
{
    LayerReport rep;
    auto c = [&](const std::string& name) {
        return meanOverInputs(inputs, [&](const InputRuns& in) {
            return in.metric(name);
        });
    };
    auto span = [&](const char* name) {
        return acrossInputs(inputs, false, [&](const UnitResult& u) {
            return spanMs(u, name);
        });
    };

    const double events = c("sim.eventsExecuted");
    const double ops = c("proc.reads") + c("proc.writes") +
                       c("proc.rmwIssues") + c("proc.fences");
    double user = 0;
    double sys = 0;
    for (const InputRuns& in : inputs) {
        for (const UnitResult& u : in.plain) {
            user += u.userS;
            sys += u.sysS;
        }
    }
    rep.value("sim", "sim.events", "count", events);
    rep.ratioOf("sim", "sim.events_per_op", events, "sim.eventsExecuted",
                ops, "node.ops");
    rep.value("sim", "sim.ns_per_event", "ns",
              meanOverInputs(inputs, [](const InputRuns& in) {
                  return ratio(median(wallsOf(in.plain)) * 1e9,
                               in.metric("sim.eventsExecuted"));
              }));
    rep.value("sim", "sim.cascades", "count", c("sim.wheelCascades"));
    rep.value("sim", "sim.slab_high_water", "count",
              c("sim.slabHighWater"));
    rep.ratioOf("sim", "sim.fiber.sys_share", sys, "system CPU s",
                user + sys, "total CPU s");

    rep.value("node", "node.ops", "count", ops);
    rep.ratioOf("node", "node.cache.hit_ratio", c("cache.hits"),
                "cache.hits", c("cache.hits") + c("cache.misses"),
                "cache accesses");
    rep.value("node", "node.mem_busy_cycles", "cycles",
              c("proc.cycles.memBusy"));
    for (const char* kind :
         {"read", "verify", "fence", "pending-full", "issue-slot"}) {
        rep.value("node", std::string("node.stall_cycles.") + kind,
                  "cycles", c(std::string("proc.stall.") + kind));
    }

    const double sent = meanOverInputs(inputs, [](const InputRuns& in) {
        double total = 0;
        for (const auto& [name, v] : in.metrics) {
            total += name.rfind("cm.sent.", 0) == 0 ? v : 0;
        }
        return total;
    });
    rep.ratioOf("proto", "proto.msgs_per_op", sent, "sum of cm.sent.*", ops,
                "node.ops");
    rep.value("proto", "proto.update_msgs", "count",
              c("cm.sent.update-req"));
    rep.value("proto", "proto.cm_busy_cycles", "cycles", c("cm.busyCycles"));
    rep.ratioOf("proto", "proto.retry_ratio", c("cm.retries"), "cm.retries",
                c("cm.remoteReads") + c("cm.remoteWrites") +
                    c("cm.remoteRmws"),
                "remote reads+writes+rmws");

    const double packets = c("net.packets");
    rep.value("net", "net.packets", "count", packets);
    rep.ratioOf("net", "net.hops_per_packet", c("net.totalHops"),
                "net.totalHops", packets, "net.packets");
    rep.ratioOf("net", "net.events_per_packet", events,
                "sim.eventsExecuted", packets, "net.packets");
    rep.value("net", "net.latency_p50", "cycles", c("net.latency.p50"));
    rep.value("net", "net.latency_p99", "cycles", c("net.latency.p99"));
    rep.value("net", "net.queueing_mean", "cycles", c("net.queueing.mean"));
    rep.value("net", "net.queueing_p99", "cycles", c("net.queueing.p99"));
    rep.value("net", "net.backpressure_stalls", "count",
              c("net.backpressureStalls"));

    rep.value("core", "core.build_ms", "ms", span("build"));
    rep.value("mem", "mem.alloc_ms", "ms", span("alloc"));
    rep.value("mem", "mem.replicate_ms", "ms", span("replicate"));
    rep.value("mem", "mem.settle_ms", "ms", span("settle"));
    rep.value("core", "core.spawn_ms", "ms", span("spawn"));
    rep.value("core", "core.run_ms", "ms", span("run"));
    rep.value("core", "core.report_ms", "ms", span("report"));
    rep.value("mem", "mem.page_faults", "count", c("proc.pageFaults"));
    rep.ratioOf("core", "core.workq.steal_ratio", c("workq.steals"),
                "workq.steals", c("workq.pops"), "workq.pops");
    rep.ratioOf("core", "core.workq.empty_poll_ratio", c("workq.emptyPolls"),
                "workq.emptyPolls", c("workq.pops") + c("workq.emptyPolls"),
                "workq polls");

    rep.value("workloads", "workloads.gen_ms", "ms", span("gen"));
    rep.value("workloads", "workloads.verify_ms", "ms", span("verify"));
    rep.value("workloads", "workloads.relaxations_per_edge", "ratio",
              meanOverInputs(inputs, [](const InputRuns& in) {
                  return in.relaxationsPerEdge;
              }));

    OpSpans ops_t;
    for (const InputRuns& in : inputs) {
        perfbench::append(ops_t, in.ops);
    }
    rep.value("op", "op.read.cycles_p50", "cycles",
              percentile(ops_t.read, 50));
    rep.value("op", "op.read.cycles_p99", "cycles",
              percentile(ops_t.read, 99));
    rep.value("op", "op.write.cycles_p50", "cycles",
              percentile(ops_t.write, 50));
    rep.value("op", "op.rmw.cycles_p50", "cycles", percentile(ops_t.rmw, 50));
    rep.value("op", "op.fence.cycles_p50", "cycles",
              percentile(ops_t.fence, 50));

    auto prof = [&](double perfbench::ProfPhases::* field) {
        return acrossInputs(inputs, true, [field](const UnitResult& u) {
            return u.prof.*field;
        });
    };
    const double engine_ms = prof(&perfbench::ProfPhases::engineRunMs);
    rep.value("prof", "prof.engine_run_ms", "ms", engine_ms);
    rep.value("prof", "prof.proc_dispatch_ms", "ms",
              prof(&perfbench::ProfPhases::procDispatchMs));
    rep.value("prof", "prof.proto_handle_ms", "ms",
              prof(&perfbench::ProfPhases::protoHandleMs));
    rep.value("prof", "prof.net_deliver_ms", "ms",
              prof(&perfbench::ProfPhases::netDeliverMs));
    rep.ratioOf("prof", "prof.unattributed_share", engine_ms,
                "engine.run exclusive ms",
                prof(&perfbench::ProfPhases::runWallMs),
                "Engine::run wall ms");
    auto wall = [](const UnitResult& u) { return u.wallS; };
    const double traced_wall = acrossInputs(inputs, true, wall);
    rep.value("prof", "prof.traced_wall_s", "s", traced_wall);
    rep.value("prof", "prof.tracing_overhead_s", "s",
              traced_wall - acrossInputs(inputs, false, wall));
    return rep;
}

void
writeLayers(const std::string& path, const Args& args,
            const std::vector<InputRuns>& inputs, const LayerReport& rep,
            const UnitResult& any)
{
    const auto& names = inputs.front().metrics;
    std::ofstream out(path);
    out << "{\"workload\":\"" << perfbench::toString(args.workload)
        << "\",\"seed\":" << args.seed << ",\"inputs\":" << inputs.size()
        << ",\"host\":{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
        << ",\"cpu\":\"" << cpuModel() << "\"},\"engine\":\"" << any.engine
        << "\",\"protocol\":\"" << any.protocol
        << "\",\"layers\":" << rep.layersJson() << ",\"counters\":{";
    // Every metric of the snapshot, averaged over the inputs.
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string& name = names[i].first;
        out << (i ? "," : "") << "\"" << name << "\":"
            << num(meanOverInputs(inputs, [&](const InputRuns& in) {
                   return in.metric(name);
               }));
    }
    out << "}}\n";
}

} // namespace

int
main(int argc, char** argv)
{
    // Users run the default serial engine and protocol; an inherited
    // override must not change what is measured.
    for (const char* var : {"PLUS_ENGINE", "PLUS_PROTOCOL", "PLUS_PROF"}) {
        unsetenv(var);
    }

    Args args;
    bool parsed = false;
    try {
        parsed = parseArgs(argc, argv, args);
    } catch (const std::exception&) {
        parsed = false;
    }
    if (!parsed) {
        std::cerr << "usage: plus_bench --workload "
                     "<local-hits|update-flood|sssp> --seed <n> --seconds "
                     "<s> [--trace 0|1] [--layers-out <file>]\n"
                     "       plus_bench --selftest\n";
        return 2;
    }
    if (args.selftest) {
        return selftest();
    }

    std::cout << "workload " << perfbench::toString(args.workload)
              << " seed " << args.seed << " seconds " << args.seconds
              << " trace " << (args.trace ? 1 : 0) << " inputs "
              << kInputsPerRun << "\n";

    std::vector<InputRuns> inputs(kInputsPerRun);
    for (unsigned k = 0; k < kInputsPerRun; ++k) {
        inputs[k].seed = inputSeed(args.seed, k);
    }
    Tally tally;
    // Warm-up: checked and counted, never timed.
    UnitResult warm = perfbench::runUnit(args.workload, inputs[0].seed, {});
    tally.add(inputs[0].seed, warm);

    const auto t0 = std::chrono::steady_clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    // Peak memory after the first pass: the warm-up and one unit of
    // every input. Later passes repeat that work, so reading it later
    // would only add allocator drift that grows with the unit count.
    double rss_mb = 0;
    bool done = false;
    for (unsigned pass = 0; !done; ++pass) {
        if (pass == 1) {
            rss_mb = peakRssMb();
        }
        UnitOptions opt;
        opt.trace = args.trace && pass % 2 == 1;
        for (InputRuns& in : inputs) {
            done = pass >= kMinPasses && elapsed() >= args.seconds;
            if (done) {
                break;
            }
            UnitResult r = perfbench::runUnit(args.workload, in.seed, opt);
            if (tally.add(in.seed, r)) {
                in.add(std::move(r), opt.trace);
            }
        }
    }

    for (const std::string& f : tally.failures) {
        std::cout << "FAILED unit: " << f << "\n";
    }
    const bool correct = tally.failed == 0;
    std::cout << "host nproc " << sysconf(_SC_NPROCESSORS_ONLN) << " cpu \""
              << cpuModel() << "\" engine " << warm.engine << " protocol "
              << warm.protocol << "\n";
    std::cout << "fail_rate "
              << num(ratio(static_cast<double>(tally.failed),
                           static_cast<double>(tally.attempted)))
              << " (" << tally.failed << " of " << tally.attempted
              << " units)\n";

    auto wall = [](const UnitResult& u) { return u.wallS; };
    std::vector<std::pair<std::string, std::pair<double, const char*>>>
        metrics;
    if (correct && !args.trace) {
        // Host noise alone: each unit's time over its input's median.
        std::vector<double> rel;
        for (const InputRuns& in : inputs) {
            const std::vector<double> v = wallsOf(in.plain);
            const double med = median(v);
            for (double x : v) {
                rel.push_back(ratio(x, med));
            }
        }
        const double tail = tailPercentileOf(rel.size());
        std::cout << "wall_s tail: p" << num(tail) << " of unit/input-median "
                  << num(percentile(rel, tail)) << " (n=" << rel.size()
                  << " units)\n";

        metrics.push_back(
            {"wall_s", {acrossInputs(inputs, false, wall), "s"}});
        metrics.push_back(
            {"setup_s",
             {acrossInputs(inputs, false,
                           [](const UnitResult& u) { return u.setupS; }),
              "s"}});
        metrics.push_back(
            {"sim_cycles",
             {acrossInputs(inputs, false,
                           [](const UnitResult& u) {
                               return static_cast<double>(u.simCycles);
                           }),
              "cycles"}});
        metrics.push_back({"peak_rss_mb", {rss_mb, "MB"}});
    } else if (correct) {
        const LayerReport rep = layerReport(inputs);
        for (const LayerReport::Metric& m : rep.metrics()) {
            metrics.push_back({m.name, {m.value, m.unit}});
        }
        if (!args.layersOut.empty()) {
            writeLayers(args.layersOut, args, inputs, rep, warm);
            std::cout << "layer report written to " << args.layersOut
                      << "\n";
        }
    }
    for (const auto& [name, v] : metrics) {
        std::cout << name << " " << num(v.first) << " " << v.second << "\n";
    }

    std::ostringstream line;
    line << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << tally.attempted
         << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        line << (i ? ", " : "") << "\"" << metrics[i].first
             << "\": {\"value\": " << num(metrics[i].second.first)
             << ", \"unit\": \"" << metrics[i].second.second << "\"}";
    }
    line << "}}";
    std::cout << line.str() << std::endl;
    return 0;
}
