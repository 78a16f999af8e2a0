/**
 * @file
 * The copy-list of a virtual page: the ordered list of physical copies,
 * headed by the master copy (Section 2.3). Writes always take effect at
 * the master first and propagate down this list, which gives general
 * coherence (all copies of a location are written in the same order).
 *
 * The operating system orders the list to minimize the network path
 * length through all the nodes holding copies; orderForPathLength()
 * implements that with a greedy nearest-neighbour chain starting at the
 * master.
 */

#ifndef PLUS_MEM_COPY_LIST_HPP_
#define PLUS_MEM_COPY_LIST_HPP_

#include <optional>
#include <vector>

#include "common/types.hpp"
#include "net/topology.hpp"

namespace plus {
namespace mem {

/** Ordered list of the physical copies of one virtual page. */
class CopyList
{
  public:
    CopyList() = default;

    /** Create an unreplicated page: the master is the only copy. */
    explicit CopyList(PhysPage master) { copies_.push_back(master); }

    bool empty() const { return copies_.empty(); }
    std::size_t size() const { return copies_.size(); }

    /** The master copy (first element). @pre not empty. */
    PhysPage master() const;

    const std::vector<PhysPage>& copies() const { return copies_; }

    /** True if some copy lives on @p node. */
    bool hasCopyOn(NodeId node) const;

    /** The copy on @p node, if any. */
    std::optional<PhysPage> copyOn(NodeId node) const;

    /** Successor of @p copy along the list, if any. */
    std::optional<PhysPage> successorOf(PhysPage copy) const;

    /**
     * Insert a new copy after @p after (which must be present). Inserting
     * after the master keeps the master unchanged.
     */
    void insertAfter(PhysPage after, PhysPage copy);

    /** Append a copy at the tail. */
    void append(PhysPage copy);

    /**
     * Remove the copy on @p node.
     * @pre the node holds a copy and it is not the only one, unless the
     *      page itself is being destroyed (removing the last copy is
     *      allowed and leaves the list empty).
     * @note Removing the master promotes its successor to master.
     */
    void removeOn(NodeId node);

    /**
     * Reorder the non-master copies into a greedy nearest-neighbour chain
     * (by mesh distance) starting from the master, approximating the OS's
     * minimal-path-length ordering.
     */
    void orderForPathLength(const net::Topology& topology);

    /**
     * Total path length in hops walking the list in order (the cost a
     * write pays in network traversals).
     */
    unsigned pathLength(const net::Topology& topology) const;

  private:
    std::vector<PhysPage> copies_;
};

} // namespace mem
} // namespace plus

#endif // PLUS_MEM_COPY_LIST_HPP_
