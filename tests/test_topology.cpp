/**
 * @file
 * Unit tests for the mesh topology: coordinates, distances, and
 * dimension-order routing including partially filled meshes.
 */

#include <gtest/gtest.h>

#include "net/topology.hpp"

namespace plus {
namespace net {
namespace {

TEST(Topology, CoordinatesRoundTrip)
{
    Topology topo(16, 4, 4);
    for (NodeId n = 0; n < 16; ++n) {
        EXPECT_EQ(topo.nodeAt(topo.coordOf(n)), n);
    }
}

TEST(Topology, CoordLayoutIsRowMajor)
{
    Topology topo(16, 4, 4);
    EXPECT_EQ(topo.coordOf(0), (Coord{0, 0}));
    EXPECT_EQ(topo.coordOf(3), (Coord{3, 0}));
    EXPECT_EQ(topo.coordOf(4), (Coord{0, 1}));
    EXPECT_EQ(topo.coordOf(15), (Coord{3, 3}));
}

TEST(Topology, ManhattanDistance)
{
    Topology topo(16, 4, 4);
    EXPECT_EQ(topo.distance(0, 0), 0u);
    EXPECT_EQ(topo.distance(0, 1), 1u);
    EXPECT_EQ(topo.distance(0, 4), 1u);
    EXPECT_EQ(topo.distance(0, 5), 2u);
    EXPECT_EQ(topo.distance(0, 15), 6u);
    EXPECT_EQ(topo.distance(3, 12), 6u);
}

TEST(Topology, DistanceIsSymmetric)
{
    Topology topo(11, 4, 3);
    for (NodeId a = 0; a < 11; ++a) {
        for (NodeId b = 0; b < 11; ++b) {
            EXPECT_EQ(topo.distance(a, b), topo.distance(b, a));
        }
    }
}

TEST(Topology, RouteLengthEqualsDistance)
{
    Topology topo(16, 4, 4);
    for (NodeId a = 0; a < 16; ++a) {
        for (NodeId b = 0; b < 16; ++b) {
            if (a == b) {
                continue;
            }
            const auto path = topo.route(a, b);
            EXPECT_EQ(path.size(), topo.distance(a, b));
            EXPECT_EQ(path.back(), b);
        }
    }
}

TEST(Topology, RouteHopsAreAdjacent)
{
    Topology topo(16, 4, 4);
    const auto path = topo.route(0, 15);
    NodeId at = 0;
    for (NodeId next : path) {
        EXPECT_EQ(topo.distance(at, next), 1u);
        at = next;
    }
}

TEST(Topology, PartialLastRowRoutesStayOnMesh)
{
    // 7 nodes on a 3x3 mesh: node 6 is alone on the last row.
    Topology topo(7, 3, 3);
    for (NodeId a = 0; a < 7; ++a) {
        for (NodeId b = 0; b < 7; ++b) {
            if (a == b) {
                continue;
            }
            const auto path = topo.route(a, b);
            // Every hop must exist and the route must stay minimal.
            EXPECT_EQ(path.size(), topo.distance(a, b));
            NodeId at = a;
            for (NodeId next : path) {
                EXPECT_LT(next, 7u);
                EXPECT_EQ(topo.distance(at, next), 1u);
                at = next;
            }
        }
    }
}

TEST(Topology, ExistsChecksBounds)
{
    Topology topo(7, 3, 3);
    EXPECT_TRUE(topo.exists(Coord{0, 2}));
    EXPECT_FALSE(topo.exists(Coord{1, 2}));
    EXPECT_FALSE(topo.exists(Coord{3, 0}));
}

TEST(Topology, SingleNodeMesh)
{
    Topology topo(1, 1, 1);
    EXPECT_EQ(topo.distance(0, 0), 0u);
}

TEST(Topology, NearestPeersSortByDistanceThenId)
{
    // 3x3 mesh: from the centre the four neighbours come first, then
    // the corners, each group in ascending id order.
    Topology topo(9, 3, 3);
    EXPECT_EQ(topo.nearestPeers(4),
              (std::vector<NodeId>{1, 3, 5, 7, 0, 2, 6, 8}));
    EXPECT_EQ(topo.nearestPeers(0),
              (std::vector<NodeId>{1, 3, 2, 4, 6, 5, 7, 8}));
    EXPECT_TRUE(Topology(1, 1, 1).nearestPeers(0).empty());
}

} // namespace
} // namespace net
} // namespace plus
