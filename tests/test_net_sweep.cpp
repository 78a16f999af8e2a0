/**
 * @file
 * Parameterized network sweeps: the zero-load latency formula must hold
 * for every source/destination pair on meshes of several shapes, the
 * mesh must agree with the ideal model at zero load, and per-route FIFO
 * must hold under randomized traffic (the page-copy protocol's
 * correctness rests on it).
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"

namespace plus {
namespace net {
namespace {

struct MeshShape {
    unsigned nodes;
    unsigned width;
};

class MeshSweep : public ::testing::TestWithParam<MeshShape>
{
};

TEST_P(MeshSweep, ZeroLoadLatencyMatchesFormulaForAllPairs)
{
    const MeshShape shape = GetParam();
    const unsigned height = (shape.nodes + shape.width - 1) / shape.width;
    Topology topo(shape.nodes, shape.width, height);
    NetworkConfig cfg;

    for (NodeId src = 0; src < shape.nodes; ++src) {
        for (NodeId dst = 0; dst < shape.nodes; ++dst) {
            if (src == dst) {
                continue;
            }
            // Fresh engine+network per pair: zero load by construction.
            sim::Engine engine;
            MeshNetwork network(engine, topo, cfg);
            Cycles delivered_at = 0;
            for (NodeId n = 0; n < shape.nodes; ++n) {
                network.setDeliveryHandler(n, [&](Packet) {
                    delivered_at = engine.now();
                });
            }
            Packet p;
            p.src = src;
            p.dst = dst;
            p.payloadBytes = 8;
            network.send(std::move(p));
            engine.run();
            EXPECT_EQ(delivered_at,
                      network.zeroLoadLatency(topo.distance(src, dst)))
                << src << " -> " << dst;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MeshSweep,
    ::testing::Values(MeshShape{4, 2}, MeshShape{6, 3}, MeshShape{7, 3},
                      MeshShape{16, 4}, MeshShape{12, 4},
                      MeshShape{9, 3}),
    [](const ::testing::TestParamInfo<MeshShape>& info) {
        return "n" + std::to_string(info.param.nodes) + "_w" +
               std::to_string(info.param.width);
    });

TEST(MeshFifo, RandomTrafficNeverReordersWithinARoute)
{
    Topology topo(16, 4, 4);
    NetworkConfig cfg;
    sim::Engine engine;
    MeshNetwork network(engine, topo, cfg);

    // Tag each packet with a per-route sequence number, carried as the
    // tag of a ReadResp.
    struct Key {
        NodeId src, dst;
        bool operator<(const Key& o) const
        {
            return src != o.src ? src < o.src : dst < o.dst;
        }
    };
    std::map<Key, unsigned> next_expected;
    bool ok = true;

    for (NodeId n = 0; n < 16; ++n) {
        network.setDeliveryHandler(n, [&](Packet p) {
            const unsigned seq = std::get<proto::ReadResp>(p.message).tag;
            unsigned& expected = next_expected[Key{p.src, p.dst}];
            if (seq != expected) {
                ok = false;
            }
            ++expected;
        });
    }

    Xoshiro256 rng(31);
    std::map<Key, unsigned> next_seq;
    for (int i = 0; i < 2000; ++i) {
        const auto src = static_cast<NodeId>(rng.below(16));
        auto dst = static_cast<NodeId>(rng.below(16));
        if (dst == src) {
            dst = (dst + 1) % 16;
        }
        const Key key{src, dst};
        const unsigned bytes = 4 + static_cast<unsigned>(rng.below(28));
        // Inject in bursts at varying times; the per-route sequence
        // number is taken at *injection* time (FIFO is an injection-
        // order property).
        engine.schedule(rng.below(500),
                        [&network, &next_seq, key, bytes] {
                            network.send(
                                {.src = key.src,
                                 .dst = key.dst,
                                 .payloadBytes = bytes,
                                 .message = proto::ReadResp{
                                     .tag = next_seq[key]++}});
                        });
    }
    engine.run();
    EXPECT_TRUE(ok);
    EXPECT_EQ(network.stats().packets, 2000u);
}

TEST(MeshFifo, HeavyBurstOnOneRouteStaysOrderedAndConserved)
{
    Topology topo(9, 3, 3);
    NetworkConfig cfg;
    sim::Engine engine;
    MeshNetwork network(engine, topo, cfg);
    unsigned delivered = 0;
    Cycles last = 0;
    bool ordered = true;
    for (NodeId n = 0; n < 9; ++n) {
        network.setDeliveryHandler(n, [&](Packet) {
            if (engine.now() < last) {
                ordered = false;
            }
            last = engine.now();
            ++delivered;
        });
    }
    for (int i = 0; i < 500; ++i) {
        Packet p;
        p.src = 0;
        p.dst = 8;
        p.payloadBytes = 16;
        network.send(std::move(p));
    }
    engine.run();
    EXPECT_EQ(delivered, 500u);
    EXPECT_TRUE(ordered);
    // With 24-byte messages at 0.8 B/cycle, the injection link is busy
    // for 500 * 30 cycles.
    EXPECT_GE(network.maxLinkBusyCycles(), 500u * 30u);
}

} // namespace
} // namespace net
} // namespace plus
