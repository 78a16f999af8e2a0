/**
 * @file
 * Fail-stop crash recovery: a scripted CrashNode entry silences a node
 * mid-run, peer-death detection (retransmit-budget exhaustion against a
 * crashed destination) triggers the recovery manager, and the machine
 * must finish the workload without a watchdog panic — dead node purged
 * from every copy-list, masters re-homed onto survivors, survivor
 * copies byte-identical, in-flight operations replayed, and pages whose
 * only copy died served degraded (bounded PageLost completion with
 * kPageLostValue). The whole recovery epoch is deterministic: the
 * post-recovery image and statistics must be byte-identical across the
 * wheel and heap engine backends.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/checker.hpp"
#include "check/invariant_checker.hpp"
#include "common/config.hpp"
#include "common/panic.hpp"
#include "core/context.hpp"
#include "core/machine.hpp"
#include "core/recovery.hpp"
#include "mem/copy_list.hpp"
#include "mem/local_memory.hpp"
#include "net/fault_injector.hpp"
#include "net/network.hpp"
#include "net/reliable_link.hpp"
#include "node/node.hpp"
#include "node/processor.hpp"
#include "sim/watchdog.hpp"
#include "telemetry/prof.hpp"

namespace plus {
namespace core {
namespace {

constexpr NodeId kDoomed = 3;
// Script cycles count from run() (setup/settle time is excluded); the
// writers span ~30k cycles, so 8k lands the crash mid-workload with
// writes in flight on every survivor. If timing-model changes move the
// workload off this window, the prober assert below fails loudly (it
// never sees the lost page) — the test cannot silently degrade into a
// post-run crash.
constexpr Cycles kCrashCycle = 8000;
constexpr Word kIters = 80;

/**
 * Four nodes in a 1x4 line so the crashed node (the end of the line)
 * is never an intermediate router for survivor traffic — dimension-
 * order routing cannot route around a dead router, so recovery tests
 * must crash topological corner nodes.
 */
MachineConfig
recoveryConfig(SimEngine backend = SimEngine::Wheel)
{
    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.engine = backend;
    cfg.network.meshWidth = 4;
    cfg.network.fault.enabled = true;
    cfg.network.fault.recover = true;
    cfg.network.fault.maxRetransmits = 4;
    cfg.network.fault.script.push_back(
        {kCrashCycle, FaultScriptEntry::Kind::CrashNode, kDoomed});
    cfg.watchdog.enabled = true;
    cfg.watchdog.windowCycles = 1u << 15;
    return cfg;
}

struct Outcome {
    Cycles elapsed = 0;
    Addr shared = 0;
    std::vector<Word> image;
    Word soloSeen = 0;
    RecoveryStats rec;
    std::uint64_t executed = 0;
};

/**
 * The shared page is mastered on the doomed node and replicated onto
 * nodes 0 and 1; `solo` stays unreplicated on the doomed node, so the
 * crash makes it a lost page. Each writer owns one word (a replayed
 * write is idempotent under single-writer words, so the final image is
 * exact despite at-least-once replay).
 */
Outcome
runCrashScenario(Machine& m)
{
    const Addr shared = m.alloc(kPageBytes, kDoomed);
    m.replicate(shared, 0);
    m.replicate(shared, 1);
    const Addr solo = m.alloc(kPageBytes, kDoomed);
    m.settle();

    Outcome out;
    // Node 0 doubles as the lost-page prober: it polls `solo` while it
    // writes, so a probe is in flight when the master dies (completed
    // as lost by the recovery walk) and later probes fault degraded at
    // translation time.
    m.spawn(0, [&out, shared, solo](Context& ctx) {
        for (Word i = 1; i <= kIters; ++i) {
            ctx.write(shared + 4 * 0, i);
            ctx.read(shared + 4 * 1);
            if (out.soloSeen != kPageLostValue) {
                out.soloSeen = ctx.read(solo);
            }
            ctx.compute(20);
        }
        for (int i = 0; i < 4000 && out.soloSeen != kPageLostValue; ++i) {
            out.soloSeen = ctx.read(solo);
        }
        // The loss has been observed (possibly via an in-flight read the
        // recovery walk completed as lost); one more round trip must now
        // fault degraded at translation time (proc.pageLostFaults) and
        // still complete in bounded cycles, for reads and writes both.
        out.soloSeen = ctx.read(solo);
        ctx.write(solo, 1);
    });
    for (NodeId n = 1; n < 3; ++n) {
        m.spawn(n, [shared, n](Context& ctx) {
            for (Word i = 1; i <= kIters; ++i) {
                ctx.write(shared + 4 * n, n * 1000 + i);
                ctx.read(shared + 4 * ((n + 1) % 3));
                ctx.compute(20);
            }
        });
    }
    // The doomed node's writer would run far past the whole test; the
    // crash must write it off (halted processor, thread never finishes).
    m.spawn(kDoomed, [shared](Context& ctx) {
        for (Word i = 1; i <= 100000; ++i) {
            ctx.write(shared + 4 * kDoomed, 3000 + i);
            ctx.compute(10);
        }
    });
    m.run();
    m.settle();

    out.shared = shared;
    out.elapsed = m.now();
    for (Word w = 0; w < 8; ++w) {
        out.image.push_back(m.peek(shared + 4 * w));
    }
    out.image.push_back(out.soloSeen);
    out.rec = m.recovery()->stats();
    out.executed = m.engine().executedEvents();
    return out;
}

TEST(Recovery, MasterCrashRecoversAndServesDegraded)
{
    MachineConfig cfg = recoveryConfig();
    Machine m(cfg);
    const Outcome out = runCrashScenario(m);

    // Survivors finished their writes; single-writer words are exact.
    for (NodeId n = 0; n < 3; ++n) {
        EXPECT_EQ(out.image[n], n * 1000 + kIters) << "writer " << n;
    }
    // The lost page completed degraded, within the probe bound.
    EXPECT_EQ(out.soloSeen, kPageLostValue);

    ASSERT_NE(m.recovery(), nullptr);
    EXPECT_TRUE(m.recovery()->nodeCrashed(kDoomed));
    EXPECT_TRUE(m.recovery()->nodeRecovered(kDoomed));
    EXPECT_EQ(out.rec.nodeRecoveries, 1u);
    EXPECT_GE(out.rec.pagesRemastered, 1u);
    EXPECT_GE(out.rec.pagesLost, 1u);

    // No stall window: recovery must beat the watchdog.
    ASSERT_NE(m.watchdog(), nullptr);
    EXPECT_EQ(m.watchdog()->stallWindows(), 0u);

    // The protocol drained: every write chain retired or was aborted.
    ASSERT_NE(m.checker(), nullptr);
    ASSERT_NE(m.checker()->invariants(), nullptr);
    EXPECT_EQ(m.checker()->invariants()->writesInFlight(), 0u);
}

TEST(Recovery, DeadNodePurgedFromCopyListAndSurvivorsConsistent)
{
    MachineConfig cfg = recoveryConfig();
    Machine m(cfg);
    const Outcome out = runCrashScenario(m);

    const mem::CopyList& list = m.copyListOf(out.shared);
    ASSERT_GE(list.copies().size(), 2u);
    for (const PhysPage& copy : list.copies()) {
        EXPECT_NE(copy.node, kDoomed) << "dead node still in copy-list";
    }
    // Every survivor copy is byte-identical to the new master: the
    // recovery re-sync repaired any suffix the mid-chain crash left
    // stale.
    const PhysPage master = list.copies().front();
    const mem::LocalMemory& mm = m.nodeAt(master.node).memory();
    for (std::size_t c = 1; c < list.copies().size(); ++c) {
        const PhysPage copy = list.copies()[c];
        const mem::LocalMemory& cm = m.nodeAt(copy.node).memory();
        for (Addr w = 0; w < kPageWords; ++w) {
            ASSERT_EQ(cm.read(copy.frame, w), mm.read(master.frame, w))
                << "copy on node " << copy.node << " diverges at word "
                << w;
        }
    }
}

TEST(Recovery, MetricsAndPanicSummaryExposeTheEpoch)
{
    MachineConfig cfg = recoveryConfig();
    Machine m(cfg);
    runCrashScenario(m);

    std::uint64_t epochs = 0;
    std::uint64_t lostFaults = 0;
    std::uint64_t peerDeaths = 0;
    std::uint64_t crashes = 0;
    for (const auto& [name, value] : m.metricsSnapshot().counters) {
        if (name == "recovery.epochs") {
            epochs = value;
        } else if (name == "proc.pageLostFaults") {
            lostFaults = value;
        } else if (name == "net.link.peerDeaths") {
            peerDeaths = value;
        } else if (name == "net.fault.nodeCrashes") {
            crashes = value;
        }
    }
    EXPECT_EQ(epochs, 1u);
    EXPECT_GT(lostFaults, 0u);
    EXPECT_GT(peerDeaths, 0u);
    EXPECT_EQ(crashes, 1u);

    // The panic decorator's dossier (appended to PLUS_PANIC output and
    // the machine diagnostics dump) names the epoch and the dead node.
    const std::string summary = m.recovery()->panicSummary();
    EXPECT_NE(summary.find("crash recovery"), std::string::npos) << summary;
    EXPECT_NE(summary.find("recovered"), std::string::npos) << summary;
}

TEST(Recovery, PostRecoveryImageIsByteIdenticalAcrossBackends)
{
    auto runOn = [](SimEngine backend) {
        MachineConfig cfg = recoveryConfig(backend);
        Machine m(cfg);
        return runCrashScenario(m);
    };
    const Outcome wheel = runOn(SimEngine::Wheel);
    ASSERT_FALSE(wheel.image.empty());

    auto expectIdentical = [&wheel](const Outcome& got, const char* label) {
        EXPECT_EQ(wheel.elapsed, got.elapsed) << label;
        EXPECT_EQ(wheel.image, got.image) << label;
        EXPECT_EQ(wheel.executed, got.executed) << label;
        EXPECT_EQ(wheel.rec.nodeRecoveries, got.rec.nodeRecoveries) << label;
        EXPECT_EQ(wheel.rec.pagesRemastered, got.rec.pagesRemastered)
            << label;
        EXPECT_EQ(wheel.rec.copyListsRepaired, got.rec.copyListsRepaired)
            << label;
        EXPECT_EQ(wheel.rec.pagesLost, got.rec.pagesLost) << label;
        EXPECT_EQ(wheel.rec.abortedOps, got.rec.abortedOps) << label;
        EXPECT_EQ(wheel.rec.lostCompletions, got.rec.lostCompletions)
            << label;
    };
    expectIdentical(runOn(SimEngine::Heap), "heap");
}

TEST(Recovery, CompletedRmwWithTornChainDoesNotLeakItsPendingWrite)
{
    // A fetch-and-add's result reaches its issuer, then the crash cuts
    // the update chain toward the replica: the op's slot is already
    // free, but its pending write still waits for the chain's ack. The
    // recovery walk must retire that entry (its effect is at the
    // master), or the issuer's next fence waits forever.
    for (const Cycles crash :
         {1000, 1500, 2000, 2500, 3500, 4000, 5000, 6000}) {
        MachineConfig cfg = recoveryConfig();
        cfg.network.fault.script = {
            {crash, FaultScriptEntry::Kind::CrashNode, kDoomed}};
        Machine m(cfg);
        const Addr p = m.alloc(kPageBytes, 0);
        m.replicate(p, kDoomed);
        m.settle();
        m.spawn(1, [p](Context& ctx) {
            for (int i = 0; i < 200; ++i) {
                ctx.fadd(p, 1);
                ctx.fence();
                ctx.compute(20);
            }
        });
        try {
            m.run();
        } catch (const std::exception& e) {
            ADD_FAILURE() << "crash at cycle " << crash << ": " << e.what();
            continue;
        }
        EXPECT_EQ(m.peek(p), 200u) << "crash at cycle " << crash;
        EXPECT_EQ(m.recovery()->stats().nodeRecoveries, 1u)
            << "crash at cycle " << crash;
    }
}

TEST(Recovery, FenceOnPageWhoseEveryHolderCrashedCompletes)
{
    // A crash schedule may kill every copy of a page a survivor fences
    // on: the page is lost, and recovery retires the writes still
    // pending toward it, so every fence completes and later accesses
    // are served degraded.
    const std::vector<std::vector<NodeId>> holder_sets = {{3}, {3, 2}};
    for (const std::vector<NodeId>& holders : holder_sets) {
        for (const Cycles crash : {1000, 4000}) {
            const std::string where = "holders " +
                                      std::to_string(holders.size()) +
                                      ", crash at cycle " +
                                      std::to_string(crash);
            MachineConfig cfg = recoveryConfig();
            cfg.network.fault.script.clear();
            for (NodeId holder : holders) {
                cfg.network.fault.script.push_back(
                    {crash, FaultScriptEntry::Kind::CrashNode, holder});
            }
            Machine m(cfg);
            const Addr p = m.alloc(kPageBytes, holders.front());
            for (std::size_t h = 1; h < holders.size(); ++h) {
                m.replicate(p, holders[h]);
            }
            m.settle();
            int fences = 0;
            Word seen = 0;
            m.spawn(0, [p, &fences, &seen](Context& ctx) {
                for (int i = 0; i < 200; ++i) {
                    ctx.write(p, static_cast<Word>(i + 1));
                    ctx.fence();
                    ++fences;
                    ctx.compute(20);
                }
                seen = ctx.read(p);
            });
            try {
                m.run();
            } catch (const std::exception& e) {
                ADD_FAILURE() << where << ": " << e.what();
                continue;
            }
            EXPECT_EQ(fences, 200) << where;
            // The crash caught an access to the page in flight.
            EXPECT_GE(m.recovery()->stats().lostCompletions, 1u) << where;
            EXPECT_TRUE(m.pageIsLost(pageOf(p))) << where;
            EXPECT_EQ(seen, kPageLostValue) << where;
        }
    }
}

/** Occurrences of @p needle in @p haystack. */
std::size_t
countOf(const std::string& haystack, const std::string& needle)
{
    std::size_t n = 0;
    for (std::size_t at = haystack.find(needle); at != std::string::npos;
         at = haystack.find(needle, at + needle.size())) {
        ++n;
    }
    return n;
}

TEST(Recovery, PanicInsideARunningMachineCarriesOneDossier)
{
    // One decorator serves every panic: the running machine's dossier
    // (with its recovery state and checker history) and the profiler's
    // flight recorder, each exactly once.
    prof::enable(true);
    prof::reset();
    Machine m(recoveryConfig());
    const Addr a = m.alloc(kPageBytes, 0);
    m.spawn(1, [a](Context& ctx) {
        ctx.write(a, 1);
        ctx.fence();
        PLUS_ASSERT(ctx.read(a) == 2, "dossier probe");
    });
    std::string what;
    try {
        m.run();
    } catch (const PanicError& e) {
        what = e.what();
    }
    prof::enable(false);
    EXPECT_NE(what.find("dossier probe"), std::string::npos) << what;
    EXPECT_EQ(countOf(what, "machine diagnostics"), 1u) << what;
    EXPECT_EQ(countOf(what, "checker history"), 1u) << what;
    EXPECT_EQ(countOf(what, "=== crash recovery ==="), 1u) << what;
    EXPECT_EQ(countOf(what, "prof flight recorder"), 1u) << what;

    // Outside run() and settle() no machine is running: a panic carries
    // no machine's dossier.
    try {
        PLUS_PANIC("idle probe");
    } catch (const PanicError& e) {
        EXPECT_EQ(std::string(e.what()).find("machine diagnostics"),
                  std::string::npos)
            << e.what();
    }
}

// --- configuration validation -------------------------------------------

TEST(RecoveryConfig, RejectsCrashOfNodeBeyondMachineSize)
{
    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.network.fault.enabled = true;
    cfg.network.fault.script.push_back(
        {10, FaultScriptEntry::Kind::CrashNode, 9});
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(RecoveryConfig, RejectsCrashingEveryNode)
{
    MachineConfig cfg;
    cfg.nodes = 2;
    cfg.network.fault.enabled = true;
    cfg.network.fault.recover = true;
    cfg.network.fault.script.push_back(
        {10, FaultScriptEntry::Kind::CrashNode, 0});
    cfg.network.fault.script.push_back(
        {20, FaultScriptEntry::Kind::CrashNode, 1});
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(RecoveryConfig, RejectsUnboundedRetransmitBudgetWithRecovery)
{
    // Detection rides on retransmit-budget exhaustion: retry-forever
    // would never report the death.
    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.network.fault.enabled = true;
    cfg.network.fault.recover = true;
    cfg.network.fault.maxRetransmits = 0;
    cfg.network.fault.script.push_back(
        {10, FaultScriptEntry::Kind::CrashNode, 3});
    EXPECT_THROW(cfg.validate(), FatalError);
}

} // namespace
} // namespace core
} // namespace plus
