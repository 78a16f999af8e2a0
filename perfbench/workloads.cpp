#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <string>

#include "common/panic.hpp"
#include "common/rng.hpp"
#include "plus/plus.hpp"
#include "telemetry/prof.hpp"
#include "workloads/graph.hpp"
#include "workloads/sssp.hpp"

namespace perfbench {

namespace {

using plus::Addr;
using plus::Context;
using plus::Cycles;
using plus::Machine;
using plus::MachineBuilder;
using plus::NodeId;
using plus::Word;
using Clock = std::chrono::steady_clock;

// --- workload sizes --------------------------------------------------------
// Each unit runs a few tenths of a second on a current x86 core, so one
// run of the benchmark takes tens of samples of every timing.

/** local-hits: 16 nodes, each working on 4 pages of its own memory
 *  (16 KB, inside the 32 KB modelled cache, which starts empty). */
constexpr unsigned kLhNodes = 16;
constexpr unsigned kLhPages = 4;
constexpr unsigned kLhWords = kLhPages * plus::kPageWords;
constexpr unsigned kLhOpsPerNode = 8192;
constexpr unsigned kLhReadPercent = 80;
constexpr Cycles kLhCompute = 4;

/** update-flood: 64 nodes on an 8x8 mesh, each the master of one page
 *  that its next three nodes replicate (192 replicas). Word 0 of each
 *  page is a fetch-and-add counter; the writes go to the other words. */
constexpr unsigned kUfNodes = 64;
constexpr unsigned kUfMeshWidth = 8;
constexpr unsigned kUfReplicas = 3;
constexpr unsigned kUfWritesPerNode = 512;
constexpr unsigned kUfRmwEvery = 32;

/** sssp: Table 2-1's shortest path on a grid with shortcuts. */
constexpr unsigned kSsspNodes = 16;
constexpr std::uint32_t kSsspSide = 32;
constexpr double kSsspShortcuts = 0.25;
constexpr unsigned kSsspReplication = 3;

// --- host-time spans -------------------------------------------------------

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Time @p fn and add it to span @p name of @p r. */
template <typename Fn>
void
timed(UnitResult& r, const char* name, Fn&& fn)
{
    const Clock::time_point t0 = Clock::now();
    std::forward<Fn>(fn)();
    const double ms = secondsSince(t0) * 1e3;
    for (auto& [span, total] : r.spansMs) {
        if (span == name) {
            total += ms;
            return;
        }
    }
    r.spansMs.emplace_back(name, ms);
}

struct CpuTimes {
    double user = 0;
    double sys = 0;
};

CpuTimes
cpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return {secs(ru.ru_utime), secs(ru.ru_stime)};
}

ProfPhases
collectProf()
{
    const plus::prof::Summary s = plus::prof::collect();
    auto ms = [&](std::uint64_t ticks) {
        return s.ticksPerSec > 0
                   ? static_cast<double>(ticks) / s.ticksPerSec * 1e3
                   : 0.0;
    };
    auto phase = [&](plus::prof::Phase p) {
        std::uint64_t ticks = 0;
        for (const auto& t : s.threads) {
            ticks += t.ticks[static_cast<std::size_t>(p)];
        }
        return ms(ticks);
    };
    ProfPhases out;
    out.engineRunMs = phase(plus::prof::Phase::EngineRun);
    out.procDispatchMs = phase(plus::prof::Phase::ProcDispatch);
    out.protoHandleMs = phase(plus::prof::Phase::ProtoHandle);
    out.netDeliverMs = phase(plus::prof::Phase::NetDeliver);
    out.runWallMs = ms(s.runWallTicks);
    return out;
}

/**
 * Run @p phase as the unit's measured phase: host wall and CPU time,
 * and, when tracing, the plus::prof breakdown of exactly this phase.
 */
template <typename Fn>
void
measure(UnitResult& r, const UnitOptions& opt, Fn&& phase)
{
    if (opt.trace) {
        plus::prof::reset();
        plus::prof::enable(true);
    }
    const CpuTimes c0 = cpuNow();
    const Clock::time_point t0 = Clock::now();
    std::forward<Fn>(phase)();
    r.wallS = secondsSince(t0);
    const CpuTimes c1 = cpuNow();
    if (opt.trace) {
        plus::prof::enable(false);
        r.prof = collectProf();
    }
    r.userS = c1.user - c0.user;
    r.sysS = c1.sys - c0.sys;
    r.spansMs.emplace_back("run", r.wallS * 1e3);
}

// --- snapshot and digest ---------------------------------------------------

std::uint64_t
fnv1a(std::uint64_t h, const void* data, std::size_t n)
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h = (h ^ p[i]) * 0x100000001b3ull;
    }
    return h;
}

/** Read the machine's metrics and fill metrics, simCycles and digest. */
void
snapshot(UnitResult& r, Machine& m, Cycles sim_cycles)
{
    plus::telemetry::MetricsRegistry::Snapshot snap;
    timed(r, "report", [&] { snap = m.metricsSnapshot(); });
    r.simCycles = sim_cycles;
    for (const auto& [name, v] : snap.counters) {
        r.metrics.emplace_back(name, static_cast<double>(v));
    }
    for (const auto& [name, v] : snap.gauges) {
        r.metrics.emplace_back(name, v);
    }
    for (const auto& [name, d] : snap.distributions) {
        r.metrics.emplace_back(name + ".count", static_cast<double>(d.count));
        r.metrics.emplace_back(name + ".mean", d.mean);
        r.metrics.emplace_back(name + ".p50", d.p50);
        r.metrics.emplace_back(name + ".p99", d.p99);
        r.metrics.emplace_back(name + ".max", d.max);
    }
    std::uint64_t h = fnv1a(0xcbf29ce484222325ull, &sim_cycles,
                            sizeof sim_cycles);
    for (const auto& [name, v] : r.metrics) {
        h = fnv1a(h, name.data(), name.size());
        h = fnv1a(h, &v, sizeof v);
    }
    r.digest = h;
    r.engine = m.engine().impl() == plus::sim::EngineImpl::Wheel  ? "wheel"
               : m.engine().impl() == plus::sim::EngineImpl::Heap ? "heap"
                                                                  : "parallel";
    r.protocol = plus::toString(m.config().resolvedProtocol());
}

void
fail(UnitResult& r, std::string why)
{
    if (r.ok) {
        r.ok = false;
        r.failure = std::move(why);
    }
}

/** Simulated cycles since @p t0, read from inside a thread body. */
Cycles
since(Context& ctx, Cycles t0)
{
    return ctx.machine().now() - t0;
}

// --- local-hits ------------------------------------------------------------

struct LocalOp {
    std::uint32_t word;
    Word value;
    bool write;
};

void
runLocalHits(UnitResult& r, std::uint64_t seed, const UnitOptions& opt)
{
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Machine> m;
    timed(r, "build", [&] {
        m = MachineBuilder().nodes(kLhNodes).seed(seed).build();
    });
    std::vector<std::vector<LocalOp>> ops(kLhNodes);
    timed(r, "gen", [&] {
        plus::Xoshiro256 rng(seed);
        for (auto& list : ops) {
            list.resize(kLhOpsPerNode);
            for (LocalOp& op : list) {
                op.write = rng() % 100 >= kLhReadPercent;
                op.word = static_cast<std::uint32_t>(rng() % kLhWords);
                op.value = static_cast<Word>(rng());
            }
        }
    });
    std::vector<Addr> base(kLhNodes);
    timed(r, "alloc", [&] {
        for (NodeId n = 0; n < kLhNodes; ++n) {
            base[n] = m->alloc(kLhWords * plus::kWordBytes, n);
        }
    });
    std::vector<std::uint64_t> mismatches(kLhNodes, 0);
    std::vector<OpSpans> spans(kLhNodes);
    timed(r, "spawn", [&] {
        for (NodeId n = 0; n < kLhNodes; ++n) {
            m->spawn(n, [&, n](Context& ctx) {
                const bool trace = opt.trace;
                OpSpans& sp = spans[n];
                std::vector<Word> shadow(kLhWords, 0);
                for (const LocalOp& op : ops[n]) {
                    ctx.compute(kLhCompute);
                    const Addr a = base[n] + plus::kWordBytes * op.word;
                    const Cycles t = ctx.machine().now();
                    if (op.write) {
                        ctx.write(a, op.value);
                        shadow[op.word] = op.value;
                        if (trace) {
                            sp.write.push_back(since(ctx, t));
                        }
                    } else {
                        // Read-your-own-write: the thread is the only
                        // writer of its pages.
                        if (ctx.read(a) != shadow[op.word]) {
                            ++mismatches[n];
                        }
                        if (trace) {
                            sp.read.push_back(since(ctx, t));
                        }
                    }
                }
                const Cycles t = ctx.machine().now();
                ctx.fence();
                if (trace) {
                    sp.fence.push_back(since(ctx, t));
                }
            });
        }
    });
    r.setupS = secondsSince(t0);

    const Cycles c0 = m->now();
    measure(r, opt, [&] { m->run(opt.maxCycles); });
    snapshot(r, *m, m->now() - c0);

    timed(r, "verify", [&] {
        std::vector<Word> expected(kLhWords);
        for (NodeId n = 0; n < kLhNodes; ++n) {
            if (mismatches[n] != 0) {
                fail(r, "local-hits: node " + std::to_string(n) +
                            " read a value it did not write last");
            }
            std::fill(expected.begin(), expected.end(), 0);
            for (const LocalOp& op : ops[n]) {
                if (op.write) {
                    expected[op.word] = op.value;
                }
            }
            if (opt.corruptReference && n == 0) {
                expected[0] ^= 1;
            }
            for (std::uint32_t w = 0; w < kLhWords; ++w) {
                if (m->peek(base[n] + plus::kWordBytes * w) !=
                    expected[w]) {
                    fail(r, "local-hits: node " + std::to_string(n) +
                                " word " + std::to_string(w) +
                                " differs from the host replay");
                    break;
                }
            }
        }
    });
    for (const OpSpans& sp : spans) {
        append(r.ops, sp);
    }
}

// --- update-flood ----------------------------------------------------------

struct FloodWrite {
    std::uint32_t word; ///< in [1, kPageWords): word 0 is the counter
    Word value;
};

void
runUpdateFlood(UnitResult& r, std::uint64_t seed, const UnitOptions& opt)
{
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Machine> m;
    timed(r, "build", [&] {
        m = MachineBuilder()
                .nodes(kUfNodes)
                .meshWidth(kUfMeshWidth)
                .seed(seed)
                .build();
    });
    std::vector<std::vector<FloodWrite>> writes(kUfNodes);
    timed(r, "gen", [&] {
        plus::Xoshiro256 rng(seed);
        for (auto& list : writes) {
            list.resize(kUfWritesPerNode);
            for (FloodWrite& w : list) {
                w.word = 1 + static_cast<std::uint32_t>(
                                 rng() % (plus::kPageWords - 1));
                w.value = static_cast<Word>(rng());
            }
        }
    });
    std::vector<Addr> page(kUfNodes);
    timed(r, "alloc", [&] {
        for (NodeId n = 0; n < kUfNodes; ++n) {
            page[n] = m->alloc(plus::kPageBytes, n);
        }
    });
    timed(r, "replicate", [&] {
        for (NodeId n = 0; n < kUfNodes; ++n) {
            for (unsigned k = 1; k <= kUfReplicas; ++k) {
                m->replicate(page[n], (n + k) % kUfNodes);
            }
        }
    });
    timed(r, "settle", [&] { m->settle(); });
    std::vector<std::uint64_t> mismatches(kUfNodes, 0);
    std::vector<OpSpans> spans(kUfNodes);
    timed(r, "spawn", [&] {
        for (NodeId n = 0; n < kUfNodes; ++n) {
            m->spawn(n, [&, n](Context& ctx) {
                const bool trace = opt.trace;
                OpSpans& sp = spans[n];
                Word adds = 0;
                for (std::size_t i = 0; i < writes[n].size(); ++i) {
                    const FloodWrite& w = writes[n][i];
                    Cycles t = ctx.machine().now();
                    ctx.write(page[n] + plus::kWordBytes * w.word, w.value);
                    if (trace) {
                        sp.write.push_back(since(ctx, t));
                    }
                    if ((i + 1) % kUfRmwEvery != 0) {
                        continue;
                    }
                    t = ctx.machine().now();
                    const plus::core::OpHandle h = ctx.issueFadd(page[n], 1);
                    if (ctx.verify(h) != adds++) {
                        ++mismatches[n];
                    }
                    if (trace) {
                        sp.rmw.push_back(since(ctx, t));
                    }
                }
                const Cycles t = ctx.machine().now();
                ctx.fence();
                if (trace) {
                    sp.fence.push_back(since(ctx, t));
                }
            });
        }
    });
    r.setupS = secondsSince(t0);

    const Cycles c0 = m->now();
    measure(r, opt, [&] { m->run(opt.maxCycles); });
    snapshot(r, *m, m->now() - c0);

    timed(r, "verify", [&] {
        std::vector<Word> expected(plus::kPageWords);
        for (NodeId n = 0; n < kUfNodes; ++n) {
            if (mismatches[n] != 0) {
                fail(r, "update-flood: node " + std::to_string(n) +
                            " fetch-and-add returned a wrong count");
            }
            std::fill(expected.begin(), expected.end(), 0);
            for (const FloodWrite& w : writes[n]) {
                expected[w.word] = w.value;
            }
            expected[0] = kUfWritesPerNode / kUfRmwEvery;
            if (opt.corruptReference && n == 0) {
                expected[1] ^= 1;
            }
            for (std::uint32_t w = 0; w < plus::kPageWords; ++w) {
                if (m->peek(page[n] + plus::kWordBytes * w) != expected[w]) {
                    fail(r, "update-flood: node " + std::to_string(n) +
                                " word " + std::to_string(w) +
                                " is not the last value written");
                    break;
                }
            }
        }
    });
    for (const OpSpans& sp : spans) {
        append(r.ops, sp);
    }
}

// --- sssp ------------------------------------------------------------------

void
runSssp(UnitResult& r, std::uint64_t seed, const UnitOptions& opt)
{
    namespace wl = plus::workloads;
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Machine> m;
    timed(r, "build", [&] {
        m = MachineBuilder().nodes(kSsspNodes).seed(seed).build();
    });
    wl::SsspConfig cfg;
    cfg.kind = wl::SsspGraphKind::Grid;
    cfg.vertices = kSsspSide * kSsspSide;
    cfg.shortcutFrac = kSsspShortcuts;
    cfg.replication = kSsspReplication;
    cfg.seed = seed;
    std::unique_ptr<wl::Graph> graph;
    timed(r, "gen", [&] {
        plus::Xoshiro256 rng(seed);
        graph = std::make_unique<wl::Graph>(wl::makeGridGraph(
            kSsspSide, kSsspSide, cfg.maxWeight, cfg.shortcutFrac, rng));
    });
    r.setupS = secondsSince(t0);

    // runSssp lays out the image, replicates and settles it, runs the
    // workers and checks the distances against Dijkstra: all of that is
    // the measured phase.
    wl::SsspResult result;
    const Cycles c0 = m->now();
    measure(r, opt, [&] { result = wl::runSssp(*m, *graph, cfg); });
    snapshot(r, *m, m->now() - c0);

    timed(r, "verify", [&] {
        // The same host reference runSssp compares every distance with;
        // here it also bounds the relaxation count from below: every
        // reachable vertex but the source was improved at least once.
        const std::vector<std::uint32_t> dist =
            wl::dijkstra(*graph, cfg.source);
        std::uint64_t reachable = 0;
        for (std::uint32_t d : dist) {
            reachable += d != wl::kInfDist ? 1 : 0;
        }
        if (!result.correct) {
            fail(r, "sssp: distances differ from Dijkstra");
        } else if (result.relaxations + 1 < reachable) {
            fail(r, "sssp: fewer relaxations than reachable vertices");
        }
    });
    r.relaxationsPerEdge = static_cast<double>(result.relaxations) /
                           static_cast<double>(graph->edges());
}

} // namespace

void
append(OpSpans& to, const OpSpans& from)
{
    auto add = [](std::vector<Cycles>& dst, const std::vector<Cycles>& src) {
        dst.insert(dst.end(), src.begin(), src.end());
    };
    add(to.read, from.read);
    add(to.write, from.write);
    add(to.rmw, from.rmw);
    add(to.fence, from.fence);
}

const char*
toString(Workload w)
{
    switch (w) {
      case Workload::LocalHits: return "local-hits";
      case Workload::UpdateFlood: return "update-flood";
      case Workload::Sssp: return "sssp";
    }
    return "?";
}

bool
workloadFromString(std::string_view name, Workload& out)
{
    for (Workload w :
         {Workload::LocalHits, Workload::UpdateFlood, Workload::Sssp}) {
        if (name == toString(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

UnitResult
runUnit(Workload w, std::uint64_t seed, const UnitOptions& opt)
{
    UnitResult r;
    r.ok = true;
    try {
        switch (w) {
          case Workload::LocalHits: runLocalHits(r, seed, opt); break;
          case Workload::UpdateFlood: runUpdateFlood(r, seed, opt); break;
          case Workload::Sssp: runSssp(r, seed, opt); break;
        }
    } catch (const plus::FatalError& e) {
        fail(r, std::string("FatalError: ") + e.what());
    } catch (const plus::PanicError& e) {
        fail(r, std::string("PanicError: ") + e.what());
    } catch (const std::exception& e) {
        fail(r, std::string("exception: ") + e.what());
    }
    plus::prof::enable(false);
    return r;
}

} // namespace perfbench
