/**
 * @file
 * The host-time profiler (plus::prof): off means free and silent, on
 * means per-thread exclusive-time attribution, a flight recorder that
 * rides along on every panic (including the watchdog's stall report),
 * and JSON output with per-thread phase breakdowns.
 *
 * The profiler reads host clocks by design (it is PLUS_HOST_ONLY), so
 * these tests assert structure and ordering properties, never absolute
 * times: which phases recorded, who billed whom, what the dump and the
 * JSON contain.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/determinism.hpp"
#include "common/panic.hpp"
#include "core/context.hpp"
#include "plus/plus.hpp"
#include "telemetry/prof.hpp"

namespace plus {
namespace {

PLUS_HOST_ONLY("exercises the host-time profiler; asserts structure, "
               "not simulation state");

/** Burn host time so a scope has something to measure. */
void
spin(std::uint64_t iters)
{
    volatile std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < iters; ++i) {
        sink = sink + i;
    }
}

/** This thread's entry in a fresh collect(), or nullptr. */
const prof::Summary::Thread*
threadNamed(const prof::Summary& s, const std::string& label)
{
    for (const prof::Summary::Thread& t : s.threads) {
        if (t.label == label) {
            return &t;
        }
    }
    return nullptr;
}

std::uint64_t
countOf(const prof::Summary& s, prof::Phase phase)
{
    std::uint64_t n = 0;
    for (const prof::Summary::Thread& t : s.threads) {
        n += t.count[static_cast<std::size_t>(phase)];
    }
    return n;
}

TEST(Prof, DisabledScopesRecordNothing)
{
    prof::enable(false);
    prof::reset();
    {
        const prof::ScopedPhase scope(prof::Phase::ProtoHandle);
        spin(1000);
    }
    const prof::Summary s = prof::collect();
    EXPECT_EQ(countOf(s, prof::Phase::ProtoHandle), 0u);
    EXPECT_TRUE(prof::flightRecorderDump().empty());
}

TEST(Prof, NestedScopesBillExclusiveTime)
{
    prof::enable(true);
    prof::reset();
    prof::setThreadLabel("t0");
    {
        const prof::ScopedPhase outer(prof::Phase::EngineRun);
        {
            const prof::ScopedPhase inner(prof::Phase::ProtoHandle);
            spin(2'000'000); // the inner scope does all the work
        }
    }
    const prof::Summary s = prof::collect();
    const prof::Summary::Thread* t = threadNamed(s, "t0");
    ASSERT_NE(t, nullptr);
    const auto outer_ix = static_cast<std::size_t>(prof::Phase::EngineRun);
    const auto inner_ix =
        static_cast<std::size_t>(prof::Phase::ProtoHandle);
    EXPECT_EQ(t->count[outer_ix], 1u);
    EXPECT_EQ(t->count[inner_ix], 1u);
    EXPECT_GT(t->ticks[inner_ix], 0u);
    // Exclusive accounting: the busy-wait belongs to the inner phase,
    // so the outer phase keeps only its own (tiny) share.
    EXPECT_LT(t->ticks[outer_ix], t->ticks[inner_ix]);
}

TEST(Prof, FlightRecorderKeepsRecentScopes)
{
    prof::enable(true);
    prof::reset();
    for (int i = 0; i < 3; ++i) {
        const prof::ScopedPhase scope(prof::Phase::NetDeliver);
        spin(100);
    }
    const std::string dump = prof::flightRecorderDump();
    EXPECT_NE(dump.find("prof flight recorder"), std::string::npos)
        << dump;
    EXPECT_NE(dump.find("net.deliver"), std::string::npos) << dump;
}

TEST(Prof, PanicCarriesTheFlightRecorder)
{
    prof::enable(true);
    prof::reset();
    {
        const prof::ScopedPhase scope(prof::Phase::ProcDispatch);
        spin(100);
    }
    try {
        PLUS_PANIC("prof test panic");
        FAIL() << "PLUS_PANIC returned";
    } catch (const PanicError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("prof test panic"), std::string::npos);
        EXPECT_NE(what.find("prof flight recorder"), std::string::npos)
            << what;
        EXPECT_NE(what.find("proc.dispatch"), std::string::npos) << what;
    }
}

TEST(Prof, WriteJsonEmitsPhases)
{
    prof::enable(true);
    prof::reset();
    {
        const prof::ScopedPhase run(prof::Phase::EngineRun);
        spin(10'000);
    }
    {
        const prof::ScopedPhase handle(prof::Phase::ProtoHandle);
        spin(10'000);
    }
    std::ostringstream os;
    prof::writeJson(os);
    const std::string json = os.str();
    for (const char* key :
         {"\"enabled\":true", "\"ticksPerSec\"", "\"runWallNs\"",
          "\"threads\"", "\"phases\"", "\"engine.run\"",
          "\"proto.handle\"", "\"count\":1", "\"pct\""}) {
        EXPECT_NE(json.find(key), std::string::npos)
            << "missing " << key << " in: " << json;
    }
}

TEST(Prof, WatchdogStallDumpIncludesFlightRecorder)
{
    // A permanent partition with unlimited retransmits: only the
    // watchdog can diagnose the hang, and with profiling on its panic
    // must carry the per-thread flight recorder.
    prof::enable(true);
    prof::reset();
    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.network.fault.enabled = true;
    cfg.network.fault.maxRetransmits = 0;
    cfg.network.fault.script.push_back(
        {1, FaultScriptEntry::Kind::LinkDown, 0, 1});
    cfg.watchdog.enabled = true;
    cfg.watchdog.windowCycles = 1u << 15;
    core::Machine m(cfg);
    const Addr a = m.alloc(8, 0); // homed on node 0
    m.spawn(1, [&](core::Context& ctx) { ctx.read(a); });
    try {
        m.run();
        FAIL() << "expected the watchdog to panic";
    } catch (const PanicError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("watchdog"), std::string::npos) << what;
        EXPECT_NE(what.find("prof flight recorder"), std::string::npos)
            << what;
        // The stalled run still dispatched processor work before
        // hanging; its phase records are in the dump.
        EXPECT_NE(what.find("proc.dispatch"), std::string::npos) << what;
    }
    prof::enable(false);
}

} // namespace
} // namespace plus
