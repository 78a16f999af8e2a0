/**
 * @file
 * 2-D mesh topology: node coordinates, distances and dimension-order
 * routing, matching the Caltech mesh router used by the PLUS prototype
 * (five port pairs: processor + four mesh neighbours).
 */

#ifndef PLUS_NET_TOPOLOGY_HPP_
#define PLUS_NET_TOPOLOGY_HPP_

#include <algorithm>
#include <vector>

#include "common/panic.hpp"
#include "common/types.hpp"

namespace plus {
namespace net {

/** Mesh coordinate. */
struct Coord {
    unsigned x = 0;
    unsigned y = 0;
    bool operator==(const Coord&) const = default;
};

/**
 * Rectangular mesh that may be partially filled on the last row (node
 * count need not be a perfect rectangle).
 */
class Topology
{
  public:
    Topology(unsigned nodes, unsigned width, unsigned height)
        : nodes_(nodes), width_(width), height_(height)
    {
        PLUS_ASSERT(width_ > 0 && height_ > 0, "degenerate mesh");
        PLUS_ASSERT(static_cast<std::uint64_t>(width_) * height_ >= nodes_,
                    "mesh smaller than node count");
    }

    unsigned nodes() const { return nodes_; }
    unsigned width() const { return width_; }
    unsigned height() const { return height_; }

    Coord
    coordOf(NodeId node) const
    {
        PLUS_ASSERT(node < nodes_, "node ", node, " out of range");
        return Coord{node % width_, node / width_};
    }

    NodeId
    nodeAt(Coord c) const
    {
        const NodeId id = c.y * width_ + c.x;
        PLUS_ASSERT(c.x < width_ && id < nodes_, "coord off mesh");
        return id;
    }

    /** Manhattan distance in hops. */
    unsigned
    distance(NodeId a, NodeId b) const
    {
        const Coord ca = coordOf(a);
        const Coord cb = coordOf(b);
        const unsigned dx = ca.x > cb.x ? ca.x - cb.x : cb.x - ca.x;
        const unsigned dy = ca.y > cb.y ? ca.y - cb.y : cb.y - ca.y;
        return dx + dy;
    }

    /**
     * Dimension-order (X then Y) next hop from @p at toward @p dst.
     * On a partially filled last row the X-first hop may not exist; the
     * route then detours in Y first (interior rows are always full, and
     * the destination's row always contains the destination's column,
     * so the detour stays minimal).
     * @pre at != dst.
     */
    NodeId
    nextHop(NodeId at, NodeId dst) const
    {
        PLUS_ASSERT(at != dst, "nextHop at destination");
        const Coord c = coordOf(at);
        const Coord d = coordOf(dst);
        if (c.x != d.x) {
            Coord step = c;
            step.x += (d.x > c.x) ? 1 : -1;
            if (exists(step)) {
                return nodeAt(step);
            }
        }
        Coord step = c;
        PLUS_ASSERT(c.y != d.y, "partial-row route with no Y way out");
        step.y += (d.y > c.y) ? 1 : -1;
        return nodeAt(step);
    }

    /** True if a coordinate names an existing node. */
    bool
    exists(Coord c) const
    {
        return c.x < width_ && c.y < height_ &&
               c.y * width_ + c.x < nodes_;
    }

    /** Full dimension-order route, excluding @p src, including @p dst. */
    std::vector<NodeId>
    route(NodeId src, NodeId dst) const
    {
        std::vector<NodeId> path;
        NodeId at = src;
        while (at != dst) {
            at = nextHop(at, dst);
            path.push_back(at);
        }
        return path;
    }

    /**
     * Every node but @p node, nearest first by mesh distance; nodes at
     * equal distance keep ascending id order.
     */
    std::vector<NodeId>
    nearestPeers(NodeId node) const
    {
        std::vector<NodeId> peers;
        for (NodeId other = 0; other < nodes_; ++other) {
            if (other != node) {
                peers.push_back(other);
            }
        }
        std::stable_sort(peers.begin(), peers.end(),
                         [&](NodeId a, NodeId b) {
                             return distance(node, a) < distance(node, b);
                         });
        return peers;
    }

  private:
    unsigned nodes_;
    unsigned width_;
    unsigned height_;
};

} // namespace net
} // namespace plus

#endif // PLUS_NET_TOPOLOGY_HPP_
