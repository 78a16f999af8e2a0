/**
 * @file
 * Tests of the telemetry subsystem: the metrics registry, the bounded
 * event ring, the machine-installed tracer, the Perfetto/stats JSON
 * exporters, and the guarantee that tracing never perturbs a run.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "core/context.hpp"
#include "core/machine.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracer.hpp"

namespace plus {
namespace telemetry {
namespace {

// --- MetricsRegistry --------------------------------------------------------

TEST(MetricsRegistry, SnapshotReadsSourcesAtCallTime)
{
    MetricsRegistry reg;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    Histogram hist;
    reg.addCounter("c", [&] { return counter; });
    reg.addGauge("g", [&] { return gauge; });
    reg.addDistribution("d", &hist);
    EXPECT_EQ(reg.size(), 3u);

    counter = 7;
    gauge = 2.5;
    hist.record(10);
    hist.record(30);

    const auto snap = reg.snapshot(123);
    EXPECT_EQ(snap.cycle, 123u);
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(snap.counters[0].first, "c");
    EXPECT_EQ(snap.counters[0].second, 7u);
    ASSERT_EQ(snap.gauges.size(), 1u);
    EXPECT_DOUBLE_EQ(snap.gauges[0].second, 2.5);
    ASSERT_EQ(snap.distributions.size(), 1u);
    EXPECT_EQ(snap.distributions[0].second.count, 2u);
    EXPECT_DOUBLE_EQ(snap.distributions[0].second.mean, 20.0);
    EXPECT_DOUBLE_EQ(snap.distributions[0].second.max, 30.0);
}

TEST(MetricsRegistry, DuplicateNamesAreUniqued)
{
    MetricsRegistry reg;
    reg.addCounter("x", [] { return std::uint64_t{1}; });
    reg.addCounter("x", [] { return std::uint64_t{2}; });
    const auto snap = reg.snapshot(0);
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].first, "x");
    EXPECT_EQ(snap.counters[1].first, "x#2");
}

TEST(MetricsRegistry, TableAndJsonRenderAllSources)
{
    MetricsRegistry reg;
    Histogram hist;
    hist.record(4);
    reg.addCounter("net.packets", [] { return std::uint64_t{42}; });
    reg.addGauge("load", [] { return 0.5; });
    reg.addDistribution("lat", &hist);
    const auto snap = reg.snapshot(9);

    const std::string table = MetricsRegistry::renderTable(snap);
    EXPECT_NE(table.find("net.packets"), std::string::npos);
    EXPECT_NE(table.find("42"), std::string::npos);
    EXPECT_NE(table.find("lat"), std::string::npos);

    std::ostringstream os;
    MetricsRegistry::writeJson(os, snap);
    const std::string json = os.str();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"cycle\":9"), std::string::npos);
    EXPECT_NE(json.find("\"net.packets\":42"), std::string::npos);
    EXPECT_NE(json.find("\"distributions\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
    EXPECT_NE(json.find("\"p95\""), std::string::npos);
    EXPECT_NE(json.find("\"p999\""), std::string::npos);
}

TEST(MetricsRegistry, PercentilesMatchKnownDistributions)
{
    // 1..1000 inserted in a scrambled order: nearest-rank percentiles
    // have closed-form expectations (rank = round(p/100 * (n-1))).
    MetricsRegistry reg;
    Histogram hist;
    for (int i = 0; i < 1000; ++i) {
        hist.record(static_cast<double>((i * 617) % 1000 + 1));
    }
    reg.addDistribution("u", &hist);
    const auto snap = reg.snapshot(0);
    ASSERT_EQ(snap.distributions.size(), 1u);
    const DistSummary& d = snap.distributions[0].second;
    EXPECT_EQ(d.count, 1000u);
    EXPECT_DOUBLE_EQ(d.min, 1.0);
    EXPECT_DOUBLE_EQ(d.max, 1000.0);
    EXPECT_DOUBLE_EQ(d.p50, 501.0);
    EXPECT_DOUBLE_EQ(d.p90, 900.0);
    EXPECT_DOUBLE_EQ(d.p95, 950.0);
    EXPECT_DOUBLE_EQ(d.p99, 990.0);
    EXPECT_DOUBLE_EQ(d.p999, 999.0);

    // A 1-in-100 outlier: p99 rounds to rank 98 (still the common
    // value); only the p99.9 tail and the max land on the spike.
    Histogram spike;
    for (int i = 0; i < 99; ++i) {
        spike.record(1.0);
    }
    spike.record(100.0);
    EXPECT_DOUBLE_EQ(spike.percentile(50.0), 1.0);
    EXPECT_DOUBLE_EQ(spike.percentile(99.0), 1.0);
    EXPECT_DOUBLE_EQ(spike.percentile(99.9), 100.0);
    EXPECT_DOUBLE_EQ(spike.percentile(100.0), 100.0);
}

// --- EventRing --------------------------------------------------------------

check::Event
eventAt(Cycles t)
{
    return {.kind = check::EventKind::FenceComplete, .cycle = t};
}

TEST(EventRing, KeepsEverythingBelowCapacity)
{
    check::EventRing ring(4);
    for (Cycles t = 0; t < 3; ++t) {
        ring.push(eventAt(t));
    }
    EXPECT_EQ(ring.recorded(), 3u);
    EXPECT_EQ(ring.dropped(), 0u);
    std::vector<Cycles> seen;
    ring.forEach([&](const check::Event& e) { seen.push_back(e.cycle); });
    EXPECT_EQ(seen, (std::vector<Cycles>{0, 1, 2}));
}

TEST(EventRing, WrapKeepsNewestOldestFirst)
{
    check::EventRing ring(3);
    for (Cycles t = 0; t < 7; ++t) {
        ring.push(eventAt(t));
    }
    EXPECT_EQ(ring.recorded(), 7u);
    EXPECT_EQ(ring.dropped(), 4u);
    std::vector<Cycles> seen;
    ring.forEach([&](const check::Event& e) { seen.push_back(e.cycle); });
    EXPECT_EQ(seen, (std::vector<Cycles>{4, 5, 6}));
}

// --- Machine integration ----------------------------------------------------

MachineConfig
tracedConfig(unsigned nodes)
{
    MachineConfig cfg;
    cfg.nodes = nodes;
    cfg.framesPerNode = 64;
    cfg.telemetry.trace = true;
    return cfg;
}

/** Replicated-page writes + remote reads + a delayed fadd + fences. */
void
runMixedWorkload(core::Machine& m, Addr shared, Addr counter)
{
    for (NodeId n = 0; n < m.config().nodes; ++n) {
        m.spawn(n, [shared, counter, n](core::Context& ctx) {
            for (Word i = 0; i < 8; ++i) {
                ctx.write(shared + 4 * ((n * 8 + i) % 64), n * 100 + i);
                ctx.read(shared + 4 * (i % 64));
                ctx.compute(10);
            }
            const auto h = ctx.issueFadd(counter, 1);
            ctx.verify(h);
            ctx.fence();
        });
    }
    m.run();
}

struct TracedRun {
    TracedRun(unsigned nodes, bool traced)
        : machine(traced ? tracedConfig(nodes)
                         : [nodes] {
                               MachineConfig cfg;
                               cfg.nodes = nodes;
                               cfg.framesPerNode = 64;
                               return cfg;
                           }())
    {
        shared = machine.alloc(kPageBytes, 0);
        for (NodeId n = 1; n < nodes; ++n) {
            machine.replicate(shared, n);
        }
        counter = machine.alloc(kPageBytes, 1);
        machine.settle();
        runMixedWorkload(machine, shared, counter);
    }

    core::Machine machine;
    Addr shared = 0;
    Addr counter = 0;
};

TEST(Telemetry, MachineRecordsAllEventKinds)
{
    TracedRun run(4, true);
    const Telemetry* t = run.machine.telemetry();
    ASSERT_NE(t, nullptr);
    EXPECT_GT(t->events().recorded(), 0u);

    using check::EventKind;
    std::set<EventKind> kinds;
    t->events().forEach(
        [&](const check::Event& e) { kinds.insert(e.kind); });
    EXPECT_TRUE(kinds.count(EventKind::MessageSent));
    EXPECT_TRUE(kinds.count(EventKind::PacketDelivered));
    EXPECT_TRUE(kinds.count(EventKind::LinkBusy));
    EXPECT_TRUE(kinds.count(EventKind::PendingWrite));
    EXPECT_TRUE(kinds.count(EventKind::ChainApplied));
    EXPECT_TRUE(kinds.count(EventKind::FenceComplete));
    EXPECT_TRUE(kinds.count(EventKind::ProcRmwIssue));
    EXPECT_TRUE(kinds.count(EventKind::ProcVerify));
}

TEST(Telemetry, AttributesTrafficToPagesAndLinks)
{
    TracedRun run(4, true);
    const Telemetry* t = run.machine.telemetry();
    ASSERT_NE(t, nullptr);

    // The replicated shared page must show update traffic.
    const auto& pages = t->pageTraffic();
    const auto it = pages.find(pageOf(run.shared));
    ASSERT_NE(it, pages.end());
    EXPECT_GT(it->second.messages, 0u);
    EXPECT_GT(it->second.updates, 0u);

    // Some mesh link carried bytes and was busy for cycles.
    const auto& links = t->linkTraffic();
    ASSERT_FALSE(links.empty());
    std::uint64_t bytes = 0;
    Cycles busy = 0;
    for (const auto& [key, traffic] : links) {
        bytes += traffic.bytes;
        busy += traffic.busyCycles;
    }
    EXPECT_GT(bytes, 0u);
    EXPECT_GT(busy, 0u);

    // Message-latency distributions filled in for the update class.
    EXPECT_GT(t->latencyOf(proto::MsgType::UpdateReq).count(), 0u);
    EXPECT_GT(t->pendingLifetime().count(), 0u);
}

TEST(Telemetry, MachineMetricsSnapshotCoversSubsystems)
{
    TracedRun run(4, true);
    const auto snap = run.machine.metricsSnapshot();
    EXPECT_EQ(snap.cycle, run.machine.now());

    std::set<std::string> names;
    for (const auto& [name, value] : snap.counters) {
        names.insert(name);
    }
    for (const char* expected :
         {"cm.localWrites", "cm.remoteWrites", "net.packets",
          "proc.reads", "cache.hits", "telemetry.events.recorded"}) {
        EXPECT_TRUE(names.count(expected)) << "missing " << expected;
    }
    // The run did work, so the headline counters moved.
    for (const auto& [name, value] : snap.counters) {
        if (name == "net.packets" || name == "proc.reads") {
            EXPECT_GT(value, 0u) << name;
        }
    }
}

TEST(Telemetry, TraceExportIsWellFormedPerfettoJson)
{
    TracedRun run(4, true);
    std::ostringstream os;
    run.machine.writeTraceJson(os);
    const std::string json = os.str();

    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json[json.find_last_not_of('\n')], '}');
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // Per-node and per-link tracks.
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("node 0"), std::string::npos);
    EXPECT_NE(json.find("link"), std::string::npos);
    EXPECT_NE(json.find("\"pid\":1000"), std::string::npos);
    // At least one update-chain flow event (start and finish arrows).
    EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
    // Pending writes as async spans.
    EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);

    // Balanced braces/brackets (cheap well-formedness proxy).
    long depth = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char c = json[i];
        if (in_string) {
            if (c == '\\') {
                ++i;
            } else if (c == '"') {
                in_string = false;
            }
            continue;
        }
        if (c == '"') {
            in_string = true;
        } else if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            --depth;
            EXPECT_GE(depth, 0);
        }
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_string);
}

TEST(Telemetry, StatsExportCombinesMetricsAndTraffic)
{
    TracedRun run(4, true);
    std::ostringstream os;
    run.machine.writeStatsJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"metrics\""), std::string::npos);
    EXPECT_NE(json.find("\"traffic\""), std::string::npos);
    EXPECT_NE(json.find("\"perPage\""), std::string::npos);
    EXPECT_NE(json.find("\"perLink\""), std::string::npos);
    EXPECT_NE(json.find("\"busyCycles\""), std::string::npos);
}

TEST(Telemetry, StatsExportWorksWithoutTracer)
{
    MachineConfig cfg;
    cfg.nodes = 2;
    cfg.framesPerNode = 64;
    core::Machine m(cfg);
    EXPECT_EQ(m.telemetry(), nullptr);
    std::ostringstream os;
    m.writeStatsJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"metrics\""), std::string::npos);
    EXPECT_NE(json.find("\"perPage\":[]"), std::string::npos);
}

TEST(Telemetry, TracingDoesNotPerturbTheRun)
{
    TracedRun traced(4, true);
    TracedRun plain(4, false);

    // Cycle-for-cycle identical: same finish time, same protocol work.
    EXPECT_EQ(traced.machine.now(), plain.machine.now());
    const auto a = traced.machine.report();
    const auto b = plain.machine.report();
    EXPECT_EQ(a.totalMessages, b.totalMessages);
    EXPECT_EQ(a.updateMessages, b.updateMessages);
    EXPECT_EQ(a.localReads, b.localReads);
    EXPECT_EQ(a.remoteReads, b.remoteReads);
    EXPECT_EQ(a.localWrites, b.localWrites);
    EXPECT_EQ(a.remoteWrites, b.remoteWrites);
    EXPECT_EQ(traced.machine.peek(traced.counter),
              plain.machine.peek(plain.counter));
}

TEST(Telemetry, RingCapacityIsRespected)
{
    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.framesPerNode = 64;
    cfg.telemetry.trace = true;
    cfg.telemetry.ringCapacity = 16;
    core::Machine m(cfg);
    const Addr page = m.alloc(kPageBytes, 3);
    m.spawn(0, [page](core::Context& ctx) {
        for (Word i = 0; i < 32; ++i) {
            ctx.write(page + 4 * (i % 16), i);
        }
        ctx.fence();
    });
    m.run();
    const Telemetry* t = m.telemetry();
    ASSERT_NE(t, nullptr);
    EXPECT_GT(t->events().recorded(), 16u);
    EXPECT_EQ(t->events().dropped(), t->events().recorded() - 16u);
    std::size_t retained = 0;
    t->events().forEach([&](const check::Event&) { ++retained; });
    EXPECT_EQ(retained, 16u);
}

TEST(Telemetry, RingOverflowIsCountedInMetricsSnapshot)
{
    // Ring overflow used to be silent truncation; now every overwrite
    // shows up as telemetry.trace.dropped in the metrics snapshot.
    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.framesPerNode = 64;
    cfg.telemetry.trace = true;
    cfg.telemetry.ringCapacity = 16;
    core::Machine m(cfg);
    const Addr page = m.alloc(kPageBytes, 3);
    m.spawn(0, [page](core::Context& ctx) {
        for (Word i = 0; i < 32; ++i) {
            ctx.write(page + 4 * (i % 16), i);
        }
        ctx.fence();
    });
    m.run();

    const Telemetry* t = m.telemetry();
    ASSERT_NE(t, nullptr);
    const std::uint64_t expected = t->events().dropped();
    ASSERT_GT(expected, 0u);

    const auto snap = m.metricsSnapshot();
    bool found = false;
    for (const auto& [name, value] : snap.counters) {
        if (name == "telemetry.trace.dropped") {
            found = true;
            EXPECT_EQ(value, expected);
        }
    }
    EXPECT_TRUE(found) << "telemetry.trace.dropped missing from snapshot";
}

} // namespace
} // namespace telemetry
} // namespace plus
