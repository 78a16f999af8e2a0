/**
 * @file
 * The plus::MachineBuilder facade: every knob must land in the built
 * machine's configuration, the faults()/watchdog() conveniences must
 * flip the corresponding enable bits, constructing directly from a
 * MachineConfig must produce a byte-identical machine, and the
 * environment must never choose the protocol.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "core/context.hpp"
#include "plus/plus.hpp"

namespace plus {
namespace {

TEST(Builder, KnobsReachConfig)
{
    const MachineBuilder b = MachineBuilder()
                                 .nodes(8)
                                 .framesPerNode(64)
                                 .mode(ProcessorMode::ContextSwitch)
                                 .seed(99)
                                 .meshWidth(4)
                                 .invariants(false)
                                 .races(true, true)
                                 .observer(true);
    const MachineConfig& c = b.config();
    EXPECT_EQ(c.nodes, 8u);
    EXPECT_EQ(c.framesPerNode, 64u);
    EXPECT_EQ(c.mode, ProcessorMode::ContextSwitch);
    EXPECT_EQ(c.seed, 99u);
    EXPECT_EQ(c.network.meshWidth, 4u);
    EXPECT_FALSE(c.check.invariants);
    EXPECT_TRUE(c.check.races);
    EXPECT_TRUE(c.check.panicOnRace);
    EXPECT_TRUE(c.telemetry.trace);
}

TEST(Builder, IdealNetworkKnob)
{
    EXPECT_TRUE(MachineBuilder().idealNetwork().config().network.ideal);
    EXPECT_FALSE(
        MachineBuilder().idealNetwork(false).config().network.ideal);
}

TEST(Builder, FaultsKnobForcesEnabled)
{
    FaultConfig f;
    f.dropRate = 0.01; // caller forgot f.enabled — builder fixes it
    const MachineBuilder b = MachineBuilder().nodes(4).faults(f);
    EXPECT_TRUE(b.config().network.fault.enabled);
    EXPECT_DOUBLE_EQ(b.config().network.fault.dropRate, 0.01);
}

TEST(Builder, WatchdogKnobEnablesAndSetsWindow)
{
    const MachineBuilder b = MachineBuilder().nodes(4).watchdog(1u << 12);
    EXPECT_TRUE(b.config().watchdog.enabled);
    EXPECT_EQ(b.config().watchdog.windowCycles, Cycles{1u << 12});
}

TEST(Builder, TuneEscapeHatchSeesFullConfig)
{
    const MachineBuilder b = MachineBuilder().nodes(4).tune(
        [](MachineConfig& c) { c.cost.ctxSwitchCycles = 140; });
    EXPECT_EQ(b.config().cost.ctxSwitchCycles, Cycles{140});
}

/** The protocol comes from the config alone, never the environment. */
TEST(Builder, EnvironmentNeverChoosesEngineOrProtocol)
{
    ::setenv("PLUS_PROTOCOL", "invalidate", 1);
    auto m = MachineBuilder().nodes(2).build();
    ::unsetenv("PLUS_PROTOCOL");

    EXPECT_EQ(m->config().protocol, CoherenceProtocol::WriteUpdate);
}

TEST(Builder, BuiltMachineMatchesKnobs)
{
    auto m = MachineBuilder().nodes(6).framesPerNode(64).build();
    EXPECT_EQ(m->nodeCount(), 6u);
}

/** The direct constructor and the builder must agree. */
TEST(Builder, BuildMatchesDirectConstruction)
{
    auto workload = [](core::Machine& m) {
        const Addr page = m.alloc(kPageBytes, 0);
        m.replicate(page, 2);
        m.settle();
        for (NodeId n = 0; n < m.nodeCount(); ++n) {
            m.spawn(n, [page, n](core::Context& ctx) {
                for (Word i = 0; i < 8; ++i) {
                    ctx.write(page + 4 * n, ctx.fadd(page + 64, 1) + i);
                    ctx.read(page + 4 * ((n + 1) % 4));
                    ctx.compute(20);
                }
                ctx.fence();
            });
        }
        m.run();
        return page;
    };

    auto built = MachineBuilder().nodes(4).framesPerNode(64).build();
    const Addr a1 = workload(*built);

    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.framesPerNode = 64;
    core::Machine direct(cfg);
    const Addr a2 = workload(direct);

    ASSERT_EQ(a1, a2);
    EXPECT_EQ(built->now(), direct.now());
    for (Word off = 0; off < 128; off += 4) {
        EXPECT_EQ(built->peek(a1 + off), direct.peek(a2 + off))
            << "offset " << off;
    }
    EXPECT_EQ(built->report(), direct.report());
}

} // namespace
} // namespace plus
