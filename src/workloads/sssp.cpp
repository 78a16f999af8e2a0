#include "workloads/sssp.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/panic.hpp"
#include "core/context.hpp"
#include "core/sync.hpp"

namespace plus {
namespace workloads {

namespace {

using core::Context;
using core::Machine;
using core::OpHandle;
using core::WorkQueue;

/** Shared-memory image of the partitioned graph. */
struct SsspImage {
    unsigned nodes = 0;
    std::uint32_t perNode = 0; ///< vertices per node (block partition)

    /** Per node: base of the distance array (one word per vertex). */
    std::vector<Addr> distBase;
    /** Per node: parent (backpointer) word per vertex. */
    std::vector<Addr> parentBase;
    /** Per node: base of (offset, degree) pairs per local vertex. */
    std::vector<Addr> rowBase;
    /** Per node: base of (target, weight) pairs. */
    std::vector<Addr> dataBase;

    Addr pending = 0; ///< outstanding-work counter
    /** Per node: private trace buffer the worker appends to (one word
     *  per processed vertex, wrapping; never replicated). */
    std::vector<Addr> traceBase;

    NodeId owner(std::uint32_t v) const { return v / perNode; }
    std::uint32_t localIndex(std::uint32_t v) const
    {
        return v % perNode;
    }
    Addr distAddr(std::uint32_t v) const
    {
        return distBase[owner(v)] + 4 * Addr{localIndex(v)};
    }
    Addr parentAddr(std::uint32_t v) const
    {
        return parentBase[owner(v)] + 4 * Addr{localIndex(v)};
    }
    Addr rowAddr(std::uint32_t v) const
    {
        return rowBase[owner(v)] + 8 * Addr{localIndex(v)};
    }
};

/** Lay the graph out in shared memory and initialize it. */
SsspImage
buildImage(Machine& machine, const Graph& graph, const SsspConfig& cfg)
{
    const unsigned nodes = machine.nodeCount();
    SsspImage img;
    img.nodes = nodes;
    img.perNode = (graph.vertices() + nodes - 1) / nodes;

    img.distBase.resize(nodes);
    img.parentBase.resize(nodes);
    img.rowBase.resize(nodes);
    img.dataBase.resize(nodes);

    for (NodeId n = 0; n < nodes; ++n) {
        const std::uint32_t first = n * img.perNode;
        const std::uint32_t count =
            first >= graph.vertices()
                ? 0
                : std::min(img.perNode, graph.vertices() - first);

        img.distBase[n] =
            machine.alloc(std::max<std::size_t>(1, count) * 4, n);
        img.parentBase[n] =
            machine.alloc(std::max<std::size_t>(1, count) * 4, n);
        img.rowBase[n] =
            machine.alloc(std::max<std::size_t>(1, count) * 8, n);

        std::size_t edge_words = 0;
        for (std::uint32_t i = 0; i < count; ++i) {
            edge_words += 2 * graph.outDegree(first + i);
        }
        img.dataBase[n] =
            machine.alloc(std::max<std::size_t>(4, edge_words * 4), n);

        std::size_t cursor = 0;
        for (std::uint32_t i = 0; i < count; ++i) {
            const std::uint32_t v = first + i;
            machine.poke(img.distBase[n] + 4 * Addr{i},
                         v == cfg.source ? 0 : kInfDist);
            const auto [fst, lst] = graph.outEdges(v);
            const auto degree = static_cast<Word>(lst - fst);
            machine.poke(img.rowBase[n] + 8 * Addr{i},
                         static_cast<Word>(cursor));
            machine.poke(img.rowBase[n] + 8 * Addr{i} + 4, degree);
            for (const Graph::Edge* e = fst; e != lst; ++e) {
                machine.poke(img.dataBase[n] + 4 * cursor, e->to);
                machine.poke(img.dataBase[n] + 4 * (cursor + 1),
                             e->weight);
                cursor += 2;
            }
        }
    }

    img.pending = machine.alloc(4, 0);
    machine.poke(img.pending, 1); // the seeded source vertex

    img.traceBase.resize(nodes);
    for (NodeId n = 0; n < nodes; ++n) {
        img.traceBase[n] = machine.alloc(kPageBytes, n);
    }

    return img;
}

/** Replicate each node's data pages onto its k-1 nearest peers. */
void
replicateImage(Machine& machine, const SsspImage& img, const Graph& graph,
               unsigned replication)
{
    if (replication <= 1) {
        return;
    }
    const net::Topology& topo = machine.network().topology();
    for (NodeId n = 0; n < img.nodes; ++n) {
        const std::vector<NodeId> peers = topo.nearestPeers(n);
        const unsigned extra = std::min<unsigned>(
            replication - 1, static_cast<unsigned>(peers.size()));

        const std::uint32_t first = n * img.perNode;
        const std::uint32_t count =
            first >= graph.vertices()
                ? 0
                : std::min(img.perNode, graph.vertices() - first);
        std::size_t edge_words = 0;
        for (std::uint32_t i = 0; i < count; ++i) {
            edge_words += 2 * graph.outDegree(first + i);
        }

        for (unsigned i = 0; i < extra; ++i) {
            // Replicate the read-mostly vertex data (adjacency); the
            // write-hot distance and parent words stay single-copy
            // (replicating them buys few reads and costs an update per
            // write).
            machine.replicateRange(img.distBase[n],
                                   std::max<std::size_t>(1, count) * 4,
                                   peers[i]);
            machine.replicateRange(img.rowBase[n],
                                   std::max<std::size_t>(1, count) * 8,
                                   peers[i]);
            machine.replicateRange(img.dataBase[n],
                                   std::max<std::size_t>(4,
                                                         edge_words * 4),
                                   peers[i]);
        }
    }
    machine.settle();
}

/** Per-worker relaxation loop. */
void
worker(Context& ctx, const SsspImage& img, WorkQueue& wq,
       const SsspConfig& cfg, NodeId self, std::uint64_t& relaxations)
{
    const bool pipelined = ctx.mode() == ProcessorMode::Delayed;
    Word trace_cursor = 0;

    // Software overflow handling for the fixed-capacity hardware queues
    // (the paper's queue operation reports "full" via the top bit and
    // leaves recovery to software): items that do not fit are kept in
    // the worker's private memory and re-offered or processed locally.
    std::vector<std::uint32_t> overflow;

    if (self == 0) {
        // Seed the source vertex.
        wq.push(ctx, img.owner(cfg.source), cfg.source);
    }

    Cycles backoff = 64;
    unsigned empty_polls = 0;
    Word done_debt = 0;
    while (true) {
        while (!overflow.empty() &&
               wq.tryPush(ctx, self, overflow.back())) {
            overflow.pop_back();
        }
        // Poll the cheap lanes (own lane + lanes with a local queue
        // replica) normally; sweep the whole machine only on every
        // fourth empty poll. Without replication every steal probe is a
        // remote read — exactly the load-imbalance cost Figure 2-1(b)
        // shows replication removing.
        const unsigned scan =
            (empty_polls % 4 == 3) ? ~0u : wq.cheapLanes(self);
        auto item = wq.popAny(ctx, self, scan);
        if (!item && !overflow.empty()) {
            item = overflow.back();
            overflow.pop_back();
        }
        if (!item) {
            // Settle our share of the termination count before testing
            // it, then check the counter only on the (full-sweep) polls
            // so idle cost is dominated by the queue probes replication
            // can localize.
            if (done_debt > 0) {
                ctx.fadd(img.pending, static_cast<Word>(-done_debt));
                done_debt = 0;
            }
            if (empty_polls % 4 == 3 && ctx.read(img.pending) == 0) {
                break;
            }
            ++empty_polls;
            ctx.pause(backoff);
            backoff = std::min<Cycles>(backoff * 2, 2048);
            continue;
        }
        empty_polls = 0;
        backoff = 64;
        const auto v = static_cast<std::uint32_t>(*item);
        ctx.compute(cfg.computePerVertex);

        // Append a record to the worker's private trace (feeds the
        // measurement-driven placement of Section 2.4); always local,
        // unreplicated writes.
        const Addr trace = img.traceBase[self] + 4 * Addr{trace_cursor};
        ctx.write(trace, v);
        trace_cursor = (trace_cursor + 3) % (kPageWords - 2);

        // Plain label-correcting: duplicates in the queue are allowed —
        // every successful improvement re-enqueues its vertex. The
        // vertex's own distance must therefore be read *at the master*
        // (delayed-read): a stale replica value here would waste the
        // improver's re-enqueue and lose the propagation entirely. The
        // improver's min-xchng at the master is ordered before its
        // enqueue, which is ordered before our dequeue, so the master
        // value we read includes the improvement.
        const Word dv = ctx.delayedRead(img.distAddr(v));
        const Addr row = img.rowAddr(v);
        const Word offset = ctx.read(row);
        const Word degree = ctx.read(row + 4);
        const Addr data = img.dataBase[img.owner(v)] + 4 * Addr{offset};

        // Relax all out-edges. In Delayed mode the min-xchng operations
        // are software-pipelined: issue while reading the next edge,
        // verify afterwards.
        std::vector<std::uint32_t> improved;
        struct Inflight {
            OpHandle handle;
            std::uint32_t to;
            Word nd;
        };
        std::deque<Inflight> window;

        auto drainOne = [&] {
            const Inflight f = window.front();
            window.pop_front();
            const Word old = ctx.verify(f.handle);
            if (f.nd < old) {
                improved.push_back(f.to);
            }
        };

        for (Word e = 0; e < degree; ++e) {
            const Word to = ctx.read(data + 8 * Addr{e});
            const Word weight = ctx.read(data + 8 * Addr{e} + 4);
            ctx.compute(cfg.computePerEdge);
            const Word nd =
                std::min<Word>(kInfDist,
                               dv > kInfDist - weight ? kInfDist
                                                      : dv + weight);
            // Cheap pre-check on the (possibly replicated) nearest copy:
            // a stale distance is only ever too large, so a skip here is
            // always safe.
            const Word du = ctx.read(img.distAddr(to));
            if (nd >= du) {
                continue;
            }
            ++relaxations;
            if (pipelined) {
                if (window.size() == 6) { // leave slots for other ops
                    drainOne();
                }
                window.push_back(
                    {ctx.issueMinXchng(img.distAddr(to), nd), to, nd});
            } else {
                const Word old = ctx.minXchng(img.distAddr(to), nd);
                if (nd < old) {
                    improved.push_back(to);
                }
            }
        }
        while (!window.empty()) {
            drainOne();
        }
        // Complete the trace record: distance seen and relaxations won.
        ctx.write(trace + 4, dv);
        ctx.write(trace + 8, static_cast<Word>(improved.size()));

        // Record the parent pointers of the successful relaxations
        // (ordinary writes to the neighbours' vertex records) and queue
        // the improved neighbours for further propagation.
        if (!improved.empty()) {
            ctx.fadd(img.pending,
                     static_cast<Word>(improved.size()));
            for (std::uint32_t u : improved) {
                ctx.write(img.parentAddr(u), v);
                // New work goes into the producer's own queue (a local
                // enqueue); load balance comes from stealing, locality
                // from replication.
                if (!wq.tryPush(ctx, self, u)) {
                    overflow.push_back(u);
                }
            }
        }
        // Batch the termination-counter decrements: one fetch-and-add
        // per several processed items keeps the hot counter off the
        // critical path. done_debt is flushed before any termination
        // test (see the empty-poll path).
        ++done_debt;
        if (done_debt >= 8) {
            ctx.fadd(img.pending, static_cast<Word>(-done_debt));
            done_debt = 0;
        }
    }
}

} // namespace

SsspResult
runSssp(core::Machine& machine, const Graph& graph, const SsspConfig& cfg)
{
    PLUS_ASSERT(cfg.source < graph.vertices(), "source out of range");

    const unsigned nodes = machine.nodeCount();
    SsspImage img = buildImage(machine, graph, cfg);
    replicateImage(machine, img, graph, cfg.replication);

    std::vector<NodeId> lanes(nodes);
    for (NodeId n = 0; n < nodes; ++n) {
        lanes[n] = n;
    }
    WorkQueue wq = WorkQueue::create(machine, lanes, cfg.replication);

    std::uint64_t relaxations = 0;
    for (NodeId n = 0; n < nodes; ++n) {
        machine.spawn(n, [&img, &wq, &cfg, n, &relaxations](Context& ctx) {
            worker(ctx, img, wq, cfg, n, relaxations);
        });
    }
    // Setup (allocation, page replication) is a one-time cost the
    // paper's measurements exclude: report the execution phase only.
    const Cycles start = machine.now();
    const core::MachineReport baseline = machine.report();
    machine.run();

    SsspResult result;
    result.elapsed = machine.now() - start;
    result.relaxations = relaxations;
    result.report = machine.report() - baseline;

    const std::vector<std::uint32_t> expected =
        dijkstra(graph, cfg.source);
    result.correct = true;
    for (std::uint32_t v = 0; v < graph.vertices(); ++v) {
        if (machine.peek(img.distAddr(v)) != expected[v]) {
            result.correct = false;
            break;
        }
    }
    return result;
}

SsspResult
runSssp(core::Machine& machine, const SsspConfig& cfg)
{
    Xoshiro256 rng(cfg.seed);
    if (cfg.kind == SsspGraphKind::Grid) {
        // Near-square grid of at least cfg.vertices vertices.
        const auto side = static_cast<std::uint32_t>(
            std::ceil(std::sqrt(static_cast<double>(cfg.vertices))));
        const Graph graph = makeGridGraph(side, side, cfg.maxWeight,
                                          cfg.shortcutFrac, rng);
        return runSssp(machine, graph, cfg);
    }
    const Graph graph =
        makeRandomGraph(cfg.vertices, cfg.avgDegree, cfg.maxWeight, rng);
    return runSssp(machine, graph, cfg);
}

} // namespace workloads
} // namespace plus
