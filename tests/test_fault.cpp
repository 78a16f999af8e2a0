/**
 * @file
 * Fault injection and reliable delivery: every injected fault class —
 * drop, duplicate, corrupt, delay, link kill — must be invisible to the
 * protocol layer (exactly-once, in-order delivery per (src,dst)), and
 * the failure backstops (retransmit-budget panic, forward-progress
 * watchdog) must convert permanent partitions into diagnoses.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/panic.hpp"
#include "core/context.hpp"
#include "core/machine.hpp"
#include "net/fault_injector.hpp"
#include "net/network.hpp"
#include "net/reliable_link.hpp"
#include "sim/engine.hpp"
#include "sim/watchdog.hpp"

namespace plus {
namespace net {
namespace {

/** Cloneable test payload carrying one word. */
struct Val final : Payload {
    explicit Val(Word v) : v(v) {}
    Word v;
    std::unique_ptr<Payload>
    clone() const override
    {
        return std::make_unique<Val>(*this);
    }
};

Packet
makePacket(NodeId src, NodeId dst, Word value)
{
    Packet p;
    p.src = src;
    p.dst = dst;
    p.payloadBytes = 8;
    p.payload = std::make_unique<Val>(value);
    return p;
}

/** A 2x2 mesh with faults armed and per-node delivery recording. */
class Harness
{
  public:
    explicit Harness(FaultConfig fault = FaultConfig{}) : topo(4, 2, 2)
    {
        fault.enabled = true;
        cfg.fault = fault;
        network = makeNetwork(engine, topo, cfg);
        network->enableFaults(cfg.fault);
        for (NodeId n = 0; n < 4; ++n) {
            network->setDeliveryHandler(n, [this, n](Packet p) {
                auto* val = static_cast<const Val*>(p.payload.get());
                deliveredAt[n].push_back(val->v);
            });
        }
    }

    FaultInjector& injector() { return *network->faultInjector(); }
    LinkLayer& link() { return *network->linkLayer(); }

    sim::Engine engine;
    Topology topo;
    NetworkConfig cfg;
    std::unique_ptr<Network> network;
    std::vector<Word> deliveredAt[4];
};

TEST(ReliableLink, DroppedFrameIsRetransmittedAndDeliveredOnce)
{
    Harness h;
    unsigned dataFrames = 0;
    h.injector().setFateOverride(
        [&](const Packet& p) -> std::optional<Fate> {
            if (p.linkCtl == kLinkData && ++dataFrames == 1) {
                return Fate::Drop;
            }
            return Fate::Deliver;
        });
    h.network->send(makePacket(0, 1, 42));
    h.engine.run();

    EXPECT_EQ(h.deliveredAt[1], std::vector<Word>{42});
    EXPECT_GE(h.link().stats().retransmits, 1u);
    EXPECT_EQ(h.link().inFlight(), 0u);
    EXPECT_EQ(h.network->stats().packets, 1u);
    EXPECT_EQ(h.network->stats().dropped, 1u);
}

TEST(ReliableLink, DuplicatedFramesAreSuppressed)
{
    Harness h;
    h.injector().setFateOverride(
        [](const Packet& p) -> std::optional<Fate> {
            return p.linkCtl == kLinkData ? Fate::Duplicate
                                          : Fate::Deliver;
        });
    h.network->send(makePacket(0, 1, 1));
    h.network->send(makePacket(0, 1, 2));
    h.network->send(makePacket(0, 1, 3));
    h.engine.run();

    EXPECT_EQ(h.deliveredAt[1], (std::vector<Word>{1, 2, 3}));
    EXPECT_EQ(h.link().stats().dupSuppressed, 3u);
    EXPECT_EQ(h.link().inFlight(), 0u);
    EXPECT_EQ(h.network->stats().packets, 3u);
}

TEST(ReliableLink, CorruptedFrameIsDroppedAndRecovered)
{
    Harness h;
    unsigned dataFrames = 0;
    h.injector().setFateOverride(
        [&](const Packet& p) -> std::optional<Fate> {
            if (p.linkCtl == kLinkData && ++dataFrames == 1) {
                return Fate::Corrupt;
            }
            return Fate::Deliver;
        });
    h.network->send(makePacket(0, 1, 7));
    h.engine.run();

    EXPECT_EQ(h.deliveredAt[1], std::vector<Word>{7});
    EXPECT_EQ(h.link().stats().crcDrops, 1u);
    EXPECT_GE(h.link().stats().retransmits, 1u);
    EXPECT_EQ(h.network->stats().packets, 1u);
}

TEST(ReliableLink, GapIsHeldInReorderBufferUntilRetransmitFills)
{
    Harness h;
    unsigned dataFrames = 0;
    // Losing frame 1 makes frame 2 arrive first: it must wait in the
    // reorder buffer so the handler still sees the original order.
    h.injector().setFateOverride(
        [&](const Packet& p) -> std::optional<Fate> {
            if (p.linkCtl == kLinkData && ++dataFrames == 1) {
                return Fate::Drop;
            }
            return Fate::Deliver;
        });
    h.network->send(makePacket(0, 1, 10));
    h.network->send(makePacket(0, 1, 20));
    h.engine.run();

    EXPECT_EQ(h.deliveredAt[1], (std::vector<Word>{10, 20}));
    EXPECT_EQ(h.link().stats().reordered, 1u);
    EXPECT_EQ(h.link().inFlight(), 0u);
}

TEST(ReliableLink, LostAckIsRepairedByDupSuppressReAck)
{
    Harness h;
    unsigned acks = 0;
    h.injector().setFateOverride(
        [&](const Packet& p) -> std::optional<Fate> {
            if (p.linkCtl == kLinkAck && ++acks == 1) {
                return Fate::Drop;
            }
            return Fate::Deliver;
        });
    h.network->send(makePacket(0, 1, 5));
    h.engine.run();

    // Delivered exactly once despite the retransmit the lost ack forced.
    EXPECT_EQ(h.deliveredAt[1], std::vector<Word>{5});
    EXPECT_GE(h.link().stats().retransmits, 1u);
    EXPECT_EQ(h.link().stats().dupSuppressed, 1u);
    EXPECT_EQ(h.link().inFlight(), 0u);
}

TEST(ReliableLink, DelayedFrameStillArrivesExactlyOnce)
{
    FaultConfig fault;
    fault.maxDelayCycles = 500;
    Harness h(fault);
    unsigned dataFrames = 0;
    h.injector().setFateOverride(
        [&](const Packet& p) -> std::optional<Fate> {
            if (p.linkCtl == kLinkData && ++dataFrames == 1) {
                return Fate::Delay;
            }
            return Fate::Deliver;
        });
    h.network->send(makePacket(0, 1, 11));
    h.network->send(makePacket(0, 1, 22));
    h.engine.run();

    EXPECT_EQ(h.deliveredAt[1], (std::vector<Word>{11, 22}));
    EXPECT_EQ(h.injector().stats().delayed, 1u);
    EXPECT_EQ(h.link().inFlight(), 0u);
}

TEST(ReliableLink, ScriptedLinkKillRecoversAfterRevive)
{
    FaultConfig fault;
    fault.maxRetransmits = 0; // retry forever; revive will repair it
    fault.script.push_back({100, FaultScriptEntry::Kind::LinkDown, 0, 1});
    fault.script.push_back({8000, FaultScriptEntry::Kind::LinkUp, 0, 1});
    Harness h(fault);
    h.engine.schedule(200, [&h] { h.network->send(makePacket(0, 1, 9)); });
    h.engine.run();

    EXPECT_EQ(h.deliveredAt[1], std::vector<Word>{9});
    EXPECT_GE(h.link().stats().retransmits, 1u);
    EXPECT_GE(h.injector().stats().linkKills, 1u);
    EXPECT_GE(h.engine.now(), Cycles{8000});
}

TEST(ReliableLink, RetransmitBudgetExhaustionPanicsWithDiagnostics)
{
    FaultConfig fault;
    fault.maxRetransmits = 2;
    Harness h(fault);
    // Restores the process-wide decorator however the test exits.
    struct DecoratorGuard
    {
        PanicDecorator previous = panicDecorator();
        ~DecoratorGuard() { setPanicDecorator(previous); }
    } const guard;
    setPanicDecorator(
        [](std::string_view) { return std::string("\nTRACE-MARK"); });
    h.injector().setLinkAlive(0, 1, false);
    h.network->send(makePacket(0, 1, 1));
    try {
        h.engine.run();
        FAIL() << "expected a PanicError";
    } catch (const PanicError& e) {
        // The diagnosis must name the channel, the frame, the exhausted
        // budget and the suspected cause, and carry the panic decorator's
        // dump — it is the only artifact a hung chaos run leaves behind.
        const std::string what = e.what();
        EXPECT_NE(what.find("reliable link 0 -> 1"), std::string::npos)
            << what;
        EXPECT_NE(what.find("gave up on frame 1"), std::string::npos)
            << what;
        EXPECT_NE(what.find("after 2 retransmits"), std::string::npos)
            << what;
        EXPECT_NE(what.find("permanent partition"), std::string::npos)
            << what;
        EXPECT_NE(what.find("TRACE-MARK"), std::string::npos) << what;
    }
    EXPECT_EQ(h.link().stats().retransmits, 2u);
}

TEST(ReliableLink, RecoveryArmedStillPanicsOnGenuinePartition)
{
    // FaultConfig::recover only converts budget exhaustion against a
    // *crashed* peer into a peer-death signal; a partition toward a
    // live node must keep its panic diagnosis.
    FaultConfig fault;
    fault.maxRetransmits = 2;
    fault.recover = true;
    Harness h(fault);
    unsigned deaths = 0;
    h.link().setPeerDeathHandler([&deaths](NodeId) { ++deaths; });
    h.injector().setLinkAlive(0, 1, false);
    h.network->send(makePacket(0, 1, 1));
    try {
        h.engine.run();
        FAIL() << "expected a PanicError";
    } catch (const PanicError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("gave up"), std::string::npos) << what;
    }
    EXPECT_EQ(deaths, 0u);
    EXPECT_EQ(h.link().stats().peerDeaths, 0u);
}

TEST(ReliableLink, DeadDestinationNodeDropsUntilRevived)
{
    FaultConfig fault;
    fault.maxRetransmits = 0;
    fault.script.push_back({1, FaultScriptEntry::Kind::NodeDown, 1});
    fault.script.push_back({6000, FaultScriptEntry::Kind::NodeUp, 1});
    Harness h(fault);
    h.engine.schedule(10, [&h] { h.network->send(makePacket(0, 1, 3)); });
    h.engine.run();

    EXPECT_EQ(h.deliveredAt[1], std::vector<Word>{3});
    EXPECT_GE(h.injector().stats().nodeKills, 1u);
    EXPECT_GE(h.link().stats().retransmits, 1u);
}

} // namespace
} // namespace net

namespace core {
namespace {

MachineConfig
faultyConfig()
{
    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.network.fault.enabled = true;
    return cfg;
}

TEST(Watchdog, PermanentPartitionTripsTheWatchdog)
{
    MachineConfig cfg = faultyConfig();
    // Retry forever: the hang must be diagnosed by the watchdog, not the
    // link layer's retransmit budget.
    cfg.network.fault.maxRetransmits = 0;
    cfg.network.fault.script.push_back(
        {1, FaultScriptEntry::Kind::LinkDown, 0, 1});
    cfg.watchdog.enabled = true;
    cfg.watchdog.windowCycles = 1u << 15;
    Machine m(cfg);
    const Addr a = m.alloc(8, 0); // homed on node 0
    m.spawn(1, [&](Context& ctx) { ctx.read(a); });
    try {
        m.run();
        FAIL() << "expected the watchdog to panic";
    } catch (const PanicError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("watchdog"), std::string::npos) << what;
        EXPECT_NE(what.find("machine diagnostics"), std::string::npos)
            << what;
        // Telemetry is off: the checker history is the only event trail
        // a stall report carries.
        EXPECT_NE(what.find("checker history"), std::string::npos) << what;
    }
    ASSERT_NE(m.watchdog(), nullptr);
    EXPECT_GE(m.watchdog()->stallWindows(), 1u);
}

TEST(Watchdog, QuietWhenWorkloadFinishes)
{
    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.watchdog.enabled = true;
    cfg.watchdog.windowCycles = 256; // far shorter than the run
    Machine m(cfg);
    const Addr a = m.alloc(8, 0);
    Word seen = 0;
    m.spawn(1, [&](Context& ctx) {
        for (int i = 0; i < 100; ++i) {
            ctx.fadd(a, 1);
        }
        seen = ctx.read(a);
    });
    m.run();
    EXPECT_EQ(seen, 100u);
    EXPECT_EQ(m.watchdog()->stallWindows(), 0u);
    EXPECT_FALSE(m.watchdog()->armed());
}

TEST(MachineFaults, ChaosSmokeFinalMemoryMatchesFaultFree)
{
    // Disjoint per-node counters: the final image is independent of
    // timing, so any lost / duplicated / misordered protocol message
    // shows up as a wrong count.
    constexpr int kIncrements = 40;
    MachineConfig cfg = faultyConfig();
    cfg.network.fault.seed = 1234;
    cfg.network.fault.dropRate = 0.02;
    cfg.network.fault.duplicateRate = 0.02;
    cfg.network.fault.corruptRate = 0.01;
    cfg.watchdog.enabled = true;
    Machine m(cfg);
    const Addr base = m.alloc(8 * 4, 0);
    for (NodeId n = 0; n < 4; ++n) {
        m.spawn(n, [&, n](Context& ctx) {
            for (int i = 0; i < kIncrements; ++i) {
                ctx.fadd(base + 8 * n, 1);
            }
            ctx.fence();
        });
    }
    m.run();
    m.settle();
    for (NodeId n = 0; n < 4; ++n) {
        EXPECT_EQ(m.peek(base + 8 * n), static_cast<Word>(kIncrements))
            << "node " << n;
    }
    const net::FaultStats& f = m.network().faultInjector()->stats();
    EXPECT_GT(f.dropped + f.corrupted + f.duplicated, 0u)
        << "chaos run injected no faults — rates too low?";
}

TEST(MachineFaults, FaultMetricsAreRegistered)
{
    MachineConfig cfg = faultyConfig();
    cfg.network.fault.dropRate = 0.05;
    Machine m(cfg);
    const Addr a = m.alloc(8, 0);
    m.spawn(1, [&](Context& ctx) { ctx.fadd(a, 1); });
    m.run();
    m.settle();

    const auto snap = m.metricsSnapshot();
    bool sawRetries = false;
    bool sawLink = false;
    for (const auto& [name, value] : snap.counters) {
        (void)value;
        if (name == "proto.nack_retries") {
            sawRetries = true;
        }
        if (name == "net.link.retransmits") {
            sawLink = true;
        }
    }
    EXPECT_TRUE(sawRetries);
    EXPECT_TRUE(sawLink);
}

} // namespace
} // namespace core
} // namespace plus
