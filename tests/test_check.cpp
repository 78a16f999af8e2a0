/**
 * @file
 * Tests for the plus::check subsystem: the protocol-invariant checker
 * (clean runs stay clean, seeded protocol violations panic with a trace)
 * and the happens-before race detector (racy workloads are flagged,
 * fence+lock-disciplined workloads are not).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "common/config.hpp"
#include "common/panic.hpp"
#include "core/context.hpp"
#include "core/machine.hpp"
#include "net/network.hpp"
#include "proto/messages.hpp"
#include "sim/engine.hpp"

namespace plus {
namespace {

using core::Context;
using core::Machine;

MachineConfig
smallConfig(unsigned nodes)
{
    MachineConfig cfg;
    cfg.nodes = nodes;
    cfg.framesPerNode = 64;
    return cfg;
}

// --------------------------------------------------------------------------
// Invariant checker: clean runs
// --------------------------------------------------------------------------

TEST(CheckClean, ReplicatedWritesRunCleanWithCheckerOn)
{
    Machine m(smallConfig(4));
    ASSERT_NE(m.checker(), nullptr);
    ASSERT_NE(m.checker()->invariants(), nullptr);

    const Addr base = m.alloc(kPageBytes, 0);
    m.replicate(base, 1);
    m.replicate(base, 2);
    m.settle();

    for (NodeId n = 0; n < 4; ++n) {
        m.spawn(n, [base, n](Context& ctx) {
            ctx.write(base + 4 * n, 100 + n);
            ctx.fence();
            ctx.fadd(base + 4 * 32, 1);
            ctx.write(base + 4 * (8 + n), 200 + n);
            ctx.fence();
        });
    }
    m.run();
    m.settle();

    for (NodeId n = 0; n < 4; ++n) {
        EXPECT_EQ(m.peek(base + 4 * n), 100 + n);
        EXPECT_EQ(m.peek(base + 4 * (8 + n)), 200 + n);
    }
    EXPECT_EQ(m.peek(base + 4 * 32), 4u);

    const check::InvariantChecker& inv = *m.checker()->invariants();
    EXPECT_GT(inv.writesRetired(), 0u);
    EXPECT_GT(inv.chainsCompleted(), 0u);
    EXPECT_EQ(inv.writesInFlight(), 0u);
    EXPECT_GT(m.checker()->history().recorded(), 0u);
}

TEST(CheckClean, OnlineDeletionStaysClean)
{
    Machine m(smallConfig(4));
    const Addr base = m.alloc(kPageBytes, 0);
    m.replicate(base, 1);
    m.replicate(base, 2);
    m.settle();

    m.spawn(3, [base](Context& ctx) {
        for (unsigned i = 0; i < 16; ++i) {
            ctx.write(base + 4 * i, i);
        }
        ctx.fence();
    });
    m.deleteCopy(base, 2);
    m.run();
    m.settle();

    EXPECT_EQ(m.checker()->invariants()->writesInFlight(), 0u);
}

TEST(CheckClean, CheckerCanBeDisabled)
{
    MachineConfig cfg = smallConfig(2);
    cfg.check.invariants = false;
    cfg.check.races = false;
    Machine m(cfg);
    EXPECT_EQ(m.checker(), nullptr);

    const Addr base = m.alloc(kPageBytes, 0);
    m.spawn(1, [base](Context& ctx) {
        ctx.write(base, 7);
        ctx.fence();
    });
    m.run();
    EXPECT_EQ(m.peek(base), 7u);
}

// --------------------------------------------------------------------------
// Invariant checker: seeded protocol violations
// --------------------------------------------------------------------------

TEST(CheckSeeded, UpdateBypassingMasterIsDetected)
{
    Machine m(smallConfig(2));
    const Addr base = m.alloc(kPageBytes, 0);
    m.replicate(base, 1);
    m.settle();

    // Inject an UpdateReq straight at the replica: its chain never took
    // effect at the master copy, breaking the master-first ordering rule.
    const mem::CopyList& cl = m.copyListOf(base);
    ASSERT_EQ(cl.size(), 2u);
    const PhysPage replica = cl.copies()[1];
    ASSERT_EQ(replica.node, 1u);

    const proto::UpdateReq msg{.target = replica,
                               .vpn = pageOf(base),
                               .writes = {proto::WordWrite{3, 42}},
                               .originator = 0,
                               .tag = 7,
                               .chainId = 12345}; // never assigned
    m.nodeAt(1).cm().onPacket({.src = 0,
                               .dst = 1,
                               .payloadBytes = proto::wireBytes(msg),
                               .message = msg});

    EXPECT_THROW(m.settle(), PanicError);
}

TEST(CheckSeeded, CopyListSkipIsDetected)
{
    Machine m(smallConfig(4));
    const Addr base = m.alloc(kPageBytes, 0);
    m.replicate(base, 1);
    m.replicate(base, 2);
    m.settle();

    const mem::CopyList& cl = m.copyListOf(base);
    ASSERT_EQ(cl.size(), 3u);
    const PhysPage master = cl.copies()[0];
    const PhysPage skipped_to = cl.copies()[2];
    ASSERT_EQ(master.node, 0u);

    // Corrupt the master's next-copy pointer so its update chains bypass
    // the second copy in the list: the checker must flag the first write.
    m.nodeAt(master.node).tables().setNextCopy(master.frame, skipped_to);

    m.spawn(0, [base](Context& ctx) {
        ctx.write(base + 4 * 5, 99);
        ctx.fence();
    });
    try {
        m.run();
        FAIL() << "expected a checker violation";
    } catch (const PanicError& err) {
        // The violation carries its history; the machine's dossier adds
        // the rest without rendering that history a second time.
        const std::string what = err.what();
        const std::size_t history = what.find(" events:\n");
        EXPECT_NE(what.find("machine diagnostics"), std::string::npos)
            << what;
        EXPECT_NE(history, std::string::npos) << what;
        EXPECT_EQ(history, what.rfind(" events:\n")) << what;
    }
}

// --------------------------------------------------------------------------
// Invariant checker: unit-level event sequences
// --------------------------------------------------------------------------

CheckConfig
invariantsOnly()
{
    CheckConfig config;
    config.invariants = true;
    config.races = false;
    return config;
}

using check::EventKind;

TEST(CheckUnit, RetireOfUnknownTagPanics)
{
    check::Checker c(invariantsOnly());
    EXPECT_THROW(
        c.consume({.kind = EventKind::PendingComplete, .node = 0, .a = 99}),
        PanicError);
}

TEST(CheckUnit, RetireBeforeMasterApplicationPanics)
{
    check::Checker c(invariantsOnly());
    c.consume({.kind = EventKind::PendingInsert,
               .node = 0,
               .vpn = 5,
               .word = 3,
               .a = /*tag=*/1});
    c.consume({.kind = EventKind::WriteIssued,
               .node = 0,
               .vpn = 5,
               .word = 3,
               .a = 1});
    // The write never reached the master copy, yet an ack arrives.
    EXPECT_THROW(
        c.consume({.kind = EventKind::PendingComplete, .node = 0, .a = 1}),
        PanicError);
}

TEST(CheckUnit, WriteIssuedWithoutPendingEntryPanics)
{
    check::Checker c(invariantsOnly());
    EXPECT_THROW(c.consume({.kind = EventKind::WriteIssued,
                            .node = 0,
                            .vpn = 1,
                            .word = 0,
                            .a = 9}),
                 PanicError);
}

TEST(CheckUnit, ReplicaApplicationWithUnknownChainPanics)
{
    check::Checker c(invariantsOnly());
    EXPECT_THROW(
        c.consume({.kind = EventKind::ChainApplied,
                   .cls = check::chainFlags(/*at_master=*/false,
                                            /*tracked=*/true),
                   .node = 1,
                   .peer = /*originator=*/0,
                   .bytes = /*words=*/1,
                   .vpn = 5,
                   .word = 0,
                   .a = /*chain=*/77,
                   .b = check::packFrameTag(/*frame=*/4, /*tag=*/1)}),
        PanicError);
}

TEST(CheckUnit, ReadOfOwnInFlightWritePanics)
{
    check::Checker c(invariantsOnly());
    c.consume({.kind = EventKind::PendingInsert,
               .node = 2,
               .vpn = 5,
               .word = 3,
               .a = 1});
    // Different word, then different node: fine.
    c.consume({.kind = EventKind::ReadServed, .node = 2, .vpn = 5, .word = 4});
    c.consume({.kind = EventKind::ReadServed, .node = 1, .vpn = 5, .word = 3});
    EXPECT_THROW(c.consume({.kind = EventKind::ReadServed,
                            .node = 2,
                            .vpn = 5,
                            .word = 3}),
                 PanicError);
}

TEST(CheckUnit, ReadOfOwnInFlightWriteNamesTheLowestTag)
{
    check::Checker c(invariantsOnly());
    for (const std::uint64_t tag : {4, 7}) {
        c.consume({.kind = EventKind::PendingInsert,
                   .node = 2,
                   .vpn = 5,
                   .word = 3,
                   .a = tag});
    }
    try {
        c.consume({.kind = EventKind::ReadServed,
                   .node = 2,
                   .vpn = 5,
                   .word = 3});
        FAIL() << "expected a checker violation";
    } catch (const PanicError& err) {
        EXPECT_NE(std::string(err.what()).find("(tag 4)"),
                  std::string::npos)
            << err.what();
    }
}

TEST(CheckUnit, ReusedInFlightTagPanics)
{
    check::Checker c(invariantsOnly());
    for (const std::uint64_t tag : {7, 4}) {
        c.consume({.kind = EventKind::PendingInsert,
                   .node = 1,
                   .vpn = 5,
                   .word = tag,
                   .a = tag});
    }
    try {
        c.consume({.kind = EventKind::PendingInsert,
                   .node = 1,
                   .vpn = 6,
                   .word = 0,
                   .a = 7});
        FAIL() << "expected a checker violation";
    } catch (const PanicError& err) {
        EXPECT_NE(std::string(err.what()).find("re-used in-flight write tag 7"),
                  std::string::npos)
            << err.what();
    }
}

TEST(CheckUnit, FenceWithInFlightWritesPanics)
{
    check::Checker c(invariantsOnly());
    c.consume({.kind = EventKind::PendingInsert,
               .node = 0,
               .vpn = 5,
               .word = 3,
               .a = 1});
    EXPECT_THROW(c.consume({.kind = EventKind::FenceComplete,
                            .cls = /*pending_empty=*/1,
                            .node = 0}),
                 PanicError);
}

TEST(CheckUnit, FenceWithNonEmptyCachePanics)
{
    check::Checker c(invariantsOnly());
    EXPECT_THROW(c.consume({.kind = EventKind::FenceComplete,
                            .cls = /*pending_empty=*/0,
                            .node = 0}),
                 PanicError);
}

// --------------------------------------------------------------------------
// Event stream and history
// --------------------------------------------------------------------------

/** Sink that logs the records it is handed, tagged with its name. */
class RecordingSink final : public check::EventSink
{
  public:
    RecordingSink(char name, std::vector<std::string>* log)
        : name_(name), log_(log)
    {
    }

    void
    consume(const check::Event& event) override
    {
        log_->push_back(std::string(1, name_) + ":" +
                        check::toString(event.kind) + "@" +
                        std::to_string(event.cycle) + " n" +
                        std::to_string(event.node));
    }

  private:
    char name_;
    std::vector<std::string>* log_;
};

TEST(EventStream, FansOutToEverySinkInOrder)
{
    sim::Engine engine;
    check::EventStream stream(engine);
    std::vector<std::string> log;
    RecordingSink checker('c', &log);
    RecordingSink tracer('t', &log);
    stream.addSink(&checker);
    stream.addSink(&tracer);

    engine.schedule(7, [&stream] {
        // The emitter's cycle is overwritten by the stream's stamp.
        stream.emit({.kind = EventKind::ProcFence, .node = 3, .cycle = 99});
    });
    engine.run();

    EXPECT_EQ(log, (std::vector<std::string>{"c:proc-fence@7 n3",
                                             "t:proc-fence@7 n3"}));
}

TEST(CheckTrace, KeepsBoundedHistoryAndRendersIt)
{
    check::EventRing history(4);
    for (unsigned i = 0; i < 6; ++i) {
        history.push({.kind = EventKind::ProcWrite, .node = i});
    }
    EXPECT_EQ(history.recorded(), 6u);
    EXPECT_EQ(history.dropped(), 2u);
    const std::string text = history.render();
    EXPECT_NE(text.find("last 4 of 6"), std::string::npos);
    EXPECT_NE(text.find("proc-write"), std::string::npos);
    EXPECT_NE(text.find("n5"), std::string::npos);  // newest retained
    EXPECT_EQ(text.find("n1 "), std::string::npos); // oldest evicted

    try {
        check::violation(history, "boom");
        FAIL() << "violation() must panic";
    } catch (const PanicError& err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("boom"), std::string::npos);
        EXPECT_NE(what.find("proc-write"), std::string::npos);
    }
}

// --------------------------------------------------------------------------
// Race detector
// --------------------------------------------------------------------------

MachineConfig
raceConfig(unsigned nodes)
{
    MachineConfig cfg = smallConfig(nodes);
    cfg.check.races = true;
    return cfg;
}

TEST(CheckRaces, UnsynchronizedSharingIsFlagged)
{
    Machine m(raceConfig(2));
    const Addr data = m.alloc(kPageBytes, 0);

    m.spawn(0, [data](Context& ctx) {
        ctx.write(data, 1);
        ctx.fence();
    });
    m.spawn(1, [data](Context& ctx) {
        ctx.compute(2000); // runs well after the writer — still no HB edge
        (void)ctx.read(data);
    });
    m.run();

    ASSERT_NE(m.checker()->raceDetector(), nullptr);
    const auto& races = m.checker()->raceDetector()->races();
    ASSERT_EQ(races.size(), 1u);
    EXPECT_EQ(races[0].addr, data);
}

/** Spin-lock critical section; @p fenced controls the pre-unlock fence. */
void
lockedIncrement(Context& ctx, Addr lock, Addr data, bool fenced)
{
    while (ctx.xchng(lock, 1) != 0) {
        ctx.compute(50);
    }
    const Word v = ctx.read(data);
    ctx.write(data, v + 1);
    if (fenced) {
        ctx.fence(); // publish the data write before releasing the lock
    }
    ctx.write(lock, 0); // plain-write unlock (Figure 3-2 idiom)
}

TEST(CheckRaces, LockAndFenceDisciplineIsClean)
{
    Machine m(raceConfig(2));
    const Addr page = m.alloc(kPageBytes, 0);
    const Addr lock = page;
    const Addr data = page + 4;

    for (NodeId n = 0; n < 2; ++n) {
        m.spawn(n, [lock, data](Context& ctx) {
            lockedIncrement(ctx, lock, data, /*fenced=*/true);
        });
    }
    m.run();

    EXPECT_EQ(m.peek(data), 2u);
    EXPECT_TRUE(m.checker()->raceDetector()->races().empty());
    // The lock word was classified as a synchronization variable.
    EXPECT_EQ(m.checker()->raceDetector()->syncWords(), 1u);
}

TEST(CheckRaces, MissingFenceBeforeUnlockIsFlagged)
{
    Machine m(raceConfig(2));
    const Addr page = m.alloc(kPageBytes, 0);
    const Addr lock = page;
    const Addr data = page + 4;

    // Same critical sections, but the unlock is not preceded by a fence:
    // the data write can still be in flight when the next lock holder
    // reads — exactly the weak-ordering bug class of Section 3.1.
    for (NodeId n = 0; n < 2; ++n) {
        m.spawn(n, [lock, data](Context& ctx) {
            lockedIncrement(ctx, lock, data, /*fenced=*/false);
        });
    }
    m.run();

    const auto& races = m.checker()->raceDetector()->races();
    ASSERT_EQ(races.size(), 1u);
    EXPECT_EQ(races[0].addr, data);
}

TEST(CheckRaces, PanicOnRaceRaisesWithTrace)
{
    MachineConfig cfg = raceConfig(2);
    cfg.check.panicOnRace = true;
    Machine m(cfg);
    const Addr data = m.alloc(kPageBytes, 0);

    m.spawn(0, [data](Context& ctx) {
        ctx.write(data, 1);
        ctx.fence();
    });
    m.spawn(1, [data](Context& ctx) {
        ctx.compute(2000);
        (void)ctx.read(data);
    });
    EXPECT_THROW(m.run(), PanicError);
}

} // namespace
} // namespace plus
