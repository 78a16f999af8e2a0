/**
 * @file
 * One PLUS node: processor + cache + local memory + coherence manager,
 * glued together over the node bus (Figure 2-1 of the paper).
 */

#ifndef PLUS_NODE_NODE_HPP_
#define PLUS_NODE_NODE_HPP_

#include <memory>

#include "common/config.hpp"
#include "common/types.hpp"
#include "mem/coherence_tables.hpp"
#include "mem/local_memory.hpp"
#include "mem/page_table.hpp"
#include "mem/ref_counters.hpp"
#include "node/cache.hpp"
#include "node/processor.hpp"
#include "proto/coherence_manager.hpp"

namespace plus {

namespace sim {
class Engine;
} // namespace sim

namespace net {
class Network;
} // namespace net

namespace node {

/** Assembles and wires one node's components. */
class Node
{
  public:
    /**
     * @param ref_threshold  Remote-reference count at which the
     *                       competitive-replication counters interrupt;
     *                       0 disables the counters.
     */
    Node(NodeId id, const MachineConfig& config, sim::Engine& engine,
         net::Network& network, std::uint64_t ref_threshold);

    NodeId id() const { return id_; }

    mem::LocalMemory& memory() { return memory_; }
    mem::CoherenceTables& tables() { return tables_; }
    mem::PageTable& pageTable() { return pageTable_; }
    mem::RefCounters* refCounters() { return refCounters_.get(); }
    Cache& cache() { return cache_; }
    proto::CoherenceManager& cm() { return *cm_; }
    Processor& processor() { return *processor_; }

    const proto::CoherenceManager& cm() const { return *cm_; }
    const Processor& processor() const { return *processor_; }

  private:
    NodeId id_;
    mem::LocalMemory memory_;
    mem::CoherenceTables tables_;
    mem::PageTable pageTable_;
    std::unique_ptr<mem::RefCounters> refCounters_;
    Cache cache_;
    std::unique_ptr<proto::CoherenceManager> cm_;
    std::unique_ptr<Processor> processor_;
};

} // namespace node
} // namespace plus

#endif // PLUS_NODE_NODE_HPP_
