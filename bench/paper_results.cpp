/**
 * @file
 * Every paper result in one binary: Tables 2-1, 3-1 and 3-2, Figures
 * 2-1(b) and 3-1, ablations A-F and the production-replication
 * extension, each an Experiment of independent points (bench/sweep.hpp)
 * run on one host thread per core.
 *
 *   paper_results [name...] [--protocol=NAME] [--trace-out=<file>]
 *                 [--stats-out=<file>] [--prof-out=<file>]
 *
 * With no name every experiment runs, in the order of paperResults(),
 * and stdout is golden/<name>.txt of each joined in that order, on any
 * number of cores. --trace-out/--stats-out describe the machine of the
 * last point of the last experiment named. Exit status: 1 when a point
 * fails or an experiment's own check of its numbers fails, 2 on a bad
 * command line.
 */

#include <algorithm>
#include <deque>
#include <iostream>
#include <numeric>
#include <optional>
#include <thread>

#include "bench/bench_util.hpp"
#include "bench/sweep.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"
#include "core/placement.hpp"
#include "core/sync.hpp"
#include "mem/copy_list.hpp"
#include "proto/rmw.hpp"
#include "workloads/beam.hpp"
#include "workloads/production.hpp"
#include "workloads/sssp.hpp"

namespace {

using namespace plus;
using namespace plus::bench;
using core::Context;
using core::Machine;
using proto::RmwOp;

/**
 * Table 2-1, "Effect of Replication on Messages": shortest path on 16
 * processors with the vertex data and work queues replicated 1-5 ways.
 * Expected: the local/remote read ratio rises with copies, the write
 * ratio falls (every write to a replicated page visits the network),
 * and total/update falls toward 1 as updates dominate the traffic.
 */
Experiment
table21()
{
    struct Ratios {
        double reads = 0, writes = 0, messages = 0;
    };
    Points<Ratios> points;
    for (unsigned copies = 1; copies <= 5; ++copies) {
        points.push_back({"copies=" + std::to_string(copies),
                          [copies](PointRun& run) {
            workloads::SsspConfig cfg;
            cfg.vertices = 2048;
            cfg.kind = workloads::SsspGraphKind::Grid;
            cfg.shortcutFrac = 0.25;
            cfg.seed = 20260708;
            cfg.replication = copies;
            const workloads::SsspResult r =
                runSssp(run.build(machineBuilder(16)), cfg);
            PLUS_ASSERT(r.correct, "SSSP distances incorrect");
            const auto& rep = r.report;
            // "Update" counts the write-carrying messages (write
            // requests travelling to the master plus copy-list updates).
            return Ratios{
                localRemoteRatio(rep.localReads, rep.remoteReads),
                localRemoteRatio(rep.localWrites + rep.localRmws,
                                 rep.remoteWrites + rep.remoteRmws),
                ratioOf(static_cast<double>(rep.totalMessages),
                        static_cast<double>(rep.writeCarryingMessages))};
        }});
    }
    return experiment<Ratios>(
        "table_2_1", "Table 2-1: Effect of Replication on Messages",
        "SSSP, 16 processors, replication level 1-5", std::move(points),
        [](const std::vector<Ratios>& r, std::ostream& os) {
            const Ratios paper[] = {{1.25, 3.40, 6.18}, {1.70, 1.18, 2.91},
                                    {1.64, 0.70, 2.24}, {2.14, 0.45, 1.89},
                                    {2.32, 0.36, 1.68}};
            TablePrinter table;
            table.setHeader({"Copies", "Reads L/R", "(paper)", "Writes L/R",
                             "(paper)", "Total/Update", "(paper)"});
            for (std::size_t i = 0; i < r.size(); ++i) {
                table.addRow({std::to_string(i + 1),
                              TablePrinter::num(r[i].reads),
                              TablePrinter::num(paper[i].reads),
                              TablePrinter::num(r[i].writes),
                              TablePrinter::num(paper[i].writes),
                              TablePrinter::num(r[i].messages),
                              TablePrinter::num(paper[i].messages)});
            }
            finishTable(table, "", os);
            return true;
        });
}

/**
 * Figure 2-1(b): shortest-path efficiency and utilization with and
 * without replication as the processor count grows, against the
 * one-processor run (point 0).
 */
Experiment
figure21()
{
    struct Sample {
        Cycles elapsed = 0;
        double utilization = 0;
    };
    auto sssp = [](unsigned nodes, unsigned replication) {
        return [nodes, replication](PointRun& run) {
            workloads::SsspConfig cfg;
            cfg.vertices = 8192;
            cfg.kind = workloads::SsspGraphKind::Grid;
            cfg.shortcutFrac = 0.05;
            cfg.seed = 20260708;
            cfg.replication = replication;
            const workloads::SsspResult r =
                runSssp(run.build(machineBuilder(nodes)), cfg);
            PLUS_ASSERT(r.correct, "SSSP distances incorrect");
            return Sample{r.elapsed, r.report.utilization(nodes)};
        };
    };
    static const unsigned kSizes[] = {2, 4, 8, 16, 32, 64};
    Points<Sample> points{{"N=1", sssp(1, 1)}};
    for (unsigned nodes : kSizes) {
        const unsigned k = std::min(nodes, 4u);
        const std::string n = "N=" + std::to_string(nodes);
        points.push_back({n + " k=1", sssp(nodes, 1)});
        points.push_back({n + " k=" + std::to_string(k), sssp(nodes, k)});
    }
    return experiment<Sample>(
        "figure_2_1", "Figure 2-1(b): SSSP efficiency and utilization",
        "efficiency/utilization vs processors, replication off/on",
        std::move(points), [](const std::vector<Sample>& r,
                              std::ostream& os) {
            TablePrinter table;
            table.setHeader({"Procs", "Eff(no-repl)", "Util(no-repl)",
                             "Eff(repl)", "Util(repl)"});
            table.addRow({"1", "1.00", TablePrinter::num(r[0].utilization),
                          "1.00", TablePrinter::num(r[0].utilization)});
            for (std::size_t i = 0; i < std::size(kSizes); ++i) {
                const unsigned n = kSizes[i];
                const Sample& none = r[1 + 2 * i];
                const Sample& repl = r[2 + 2 * i];
                table.addRow(
                    {std::to_string(n),
                     TablePrinter::num(efficiency(r[0].elapsed, n,
                                                  none.elapsed)),
                     TablePrinter::num(none.utilization),
                     TablePrinter::num(efficiency(r[0].elapsed, n,
                                                  repl.elapsed)),
                     TablePrinter::num(repl.utilization)});
            }
            finishTable(table,
                        "Expected shape: the no-replication utilization "
                        "decays past a few processors;\nthe replicated "
                        "curves stay high until ~32 processors, then fall "
                        "as the fixed-size\nproblem runs out of "
                        "parallelism.",
                        os);
            return true;
        });
}

/**
 * Table 3-1: the cycles node 0 spends on one blocking operation on a
 * page @p hops away along the X axis of a 4x4 mesh: interlocked @p op
 * or, without one, a remote read.
 */
Cycles
measure(PointRun& run, std::optional<RmwOp> op, unsigned hops)
{
    Machine& machine = run.build(machineBuilder(16));
    const Addr page = machine.alloc(kPageBytes, hops);
    if (op == RmwOp::Queue || op == RmwOp::Dequeue) {
        const auto base = static_cast<Word>(proto::kQueueBaseOffset);
        machine.poke(page, base);              // QP
        machine.poke(page + kWordBytes, base); // DQP
        if (op == RmwOp::Dequeue) {
            machine.poke(page + 8, 5 | kTopBit); // one queued item
        }
    }
    // Warm the page table (and, for dequeue, address the DQP word).
    const Addr addr = op == RmwOp::Dequeue ? page + kWordBytes : page;
    Cycles measured = 0;
    machine.spawn(0, [&](Context& ctx) {
        ctx.read(addr);
        if (op) {
            ctx.fence();
        }
        const Cycles before = ctx.machine().now();
        if (op) {
            ctx.rmw(*op, addr, 1);
        } else {
            ctx.read(addr);
        }
        measured = ctx.machine().now() - before;
    });
    machine.run();
    return measured;
}

/**
 * Table 3-1, "PLUS's Delayed Operations", with the cost narrative of
 * Section 3.1 (39/52-cycle manager occupancy, ~25-cycle issue, ~10-cycle
 * result read, 24-cycle adjacent round trip plus 4 per extra hop, remote
 * read = 32 + round trip). Every operation is measured end to end on an
 * idle machine; the experiment fails unless each measurement matches
 * latency(h) = 25 + (10 + 2h) + occupancy + (10 + 2h) + 10.
 */
Experiment
table31()
{
    static const RmwOp kOps[] = {RmwOp::Xchng,    RmwOp::CondXchng,
                                 RmwOp::FetchAdd, RmwOp::FetchSet,
                                 RmwOp::Queue,    RmwOp::Dequeue,
                                 RmwOp::MinXchng, RmwOp::DelayedRead};
    constexpr unsigned kHops = 3;
    Points<Cycles> points;
    for (const RmwOp op : kOps) {
        for (unsigned h = 1; h <= kHops; ++h) {
            points.push_back(
                {std::string(toString(op)) + " " + std::to_string(h) + "-hop",
                 [op, h](PointRun& run) { return measure(run, op, h); }});
        }
    }
    for (unsigned h = 1; h <= kHops; ++h) {
        points.push_back({"read " + std::to_string(h) + "-hop",
                          [h](PointRun& run) {
                              return measure(run, std::nullopt, h);
                          }});
    }
    return experiment<Cycles>(
        "table_3_1", "Table 3-1: PLUS's delayed operations",
        "per-op coherence-manager occupancy and end-to-end cost",
        std::move(points), [](const std::vector<Cycles>& m,
                              std::ostream& os) {
            const CostModel cost; // paper defaults
            bool ok = true;
            TablePrinter table;
            table.setHeader({"Operation", "CM cycles", "(paper)", "1-hop",
                             "(model)", "2-hop", "3-hop"});
            std::size_t i = 0;
            for (const RmwOp op : kOps) {
                const bool complex = proto::isComplexOp(op);
                const Cycles occ =
                    complex ? cost.cmRmwComplex : cost.cmRmwSimple;
                const Cycles predicted1 = cost.procIssueOp +
                                          2 * (10 + 2 * 1) + occ +
                                          cost.procReadResult;
                ok = ok && m[i] == predicted1;
                table.addRow({toString(op), TablePrinter::num(occ),
                              TablePrinter::num(Cycles{complex ? 52u : 39u}),
                              TablePrinter::num(m[i]),
                              TablePrinter::num(predicted1),
                              TablePrinter::num(m[i + 1]),
                              TablePrinter::num(m[i + 2])});
                i += kHops;
            }
            table.print(os);

            os << "\nNetwork calibration (paper: 24-cycle adjacent round "
                  "trip, +4 per extra hop;\nremote blocking read = 32 + "
                  "round trip):\n\n";
            TablePrinter net;
            net.setHeader({"Hops", "Read latency", "(model 32+RTT)"});
            for (unsigned h = 1; h <= kHops; ++h, ++i) {
                const Cycles model = 32 + 2 * (10 + 2 * h);
                ok = ok && m[i] == model;
                net.addRow({std::to_string(h), TablePrinter::num(m[i]),
                            TablePrinter::num(model)});
            }
            net.print(os);
            os << (ok ? "\nAll measurements match the paper's arithmetic.\n"
                      : "\nMISMATCH against the paper's arithmetic!\n");
            return ok;
        });
}

/**
 * Figure 3-1, "Efficiency of the Beam Search Application with Different
 * Synchronization Costs": blocking synchronization, delayed operations
 * and context switching at 16/40/140 cycles, against the one-processor
 * blocking run (point 0).
 */
Experiment
figure31()
{
    struct Variant {
        const char* label;
        ProcessorMode mode;
        Cycles ctxCost;
        unsigned threadsPerProc;
    };
    static const Variant kVariants[] = {
        {"blocking", ProcessorMode::Blocking, 0, 1},
        {"delayed", ProcessorMode::Delayed, 0, 1},
        {"ctx-16", ProcessorMode::ContextSwitch, 16, 2},
        {"ctx-40", ProcessorMode::ContextSwitch, 40, 2},
        {"ctx-140", ProcessorMode::ContextSwitch, 140, 2},
    };
    static const unsigned kSizes[] = {1, 2, 4, 8, 16};
    Points<Cycles> points;
    for (unsigned nodes : kSizes) {
        for (const Variant& v : kVariants) {
            points.push_back({"N=" + std::to_string(nodes) + " " + v.label,
                              [nodes, v](PointRun& run) {
                workloads::BeamConfig cfg;
                cfg.layers = 16;
                cfg.width = 256;
                cfg.avgDegree = 3.0;
                cfg.maxWeight = 50;
                cfg.seed = 20260708;
                cfg.threadsPerProcessor = v.threadsPerProc;
                const workloads::BeamResult r = runBeam(
                    run.build(machineBuilder(nodes, v.mode)
                                  .tune([&](MachineConfig& mc) {
                                      mc.cost.ctxSwitchCycles = v.ctxCost;
                                  })),
                    cfg);
                PLUS_ASSERT(r.correct, "beam result incorrect");
                return r.elapsed;
            }});
        }
    }
    return experiment<Cycles>(
        "figure_3_1", "Figure 3-1: beam-search efficiency vs sync cost",
        "blocking vs delayed ops vs context switching 16/40/140",
        std::move(points), [](const std::vector<Cycles>& r,
                              std::ostream& os) {
            TablePrinter table;
            std::vector<std::string> header{"Procs"};
            for (const Variant& v : kVariants) {
                header.emplace_back(v.label);
            }
            table.setHeader(header);
            std::size_t i = 0;
            for (unsigned nodes : kSizes) {
                std::vector<std::string> row{std::to_string(nodes)};
                for (std::size_t v = 0; v < std::size(kVariants); ++v) {
                    row.push_back(
                        TablePrinter::num(efficiency(r[0], nodes, r[i++])));
                }
                table.addRow(row);
            }
            finishTable(table,
                        "Expected ordering at scale: ctx-16 >= delayed > "
                        "ctx-40 > blocking >= ctx-140.",
                        os);
            return true;
        });
}

/**
 * Table 3-2, "Lock with Queue": the queued lock built from fetch-and-add
 * plus queue/dequeue against a test-and-test-and-set spin lock. A
 * contended release hands the queued lock to the oldest sleeper through
 * its node-local mailbox instead of letting every waiter hammer the
 * lock word.
 */
Experiment
table32()
{
    struct LockStats {
        Cycles elapsed = 0;
        std::uint64_t rmwMessages = 0;
    };
    constexpr unsigned kAcquisitions = 25;
    static const unsigned kSizes[] = {2, 4, 8, 16};
    Points<LockStats> points;
    for (unsigned nodes : kSizes) {
        for (const bool queued : {false, true}) {
            points.push_back({"N=" + std::to_string(nodes) +
                                  (queued ? " queued" : " spin"),
                              [nodes, queued](PointRun& run) {
                Machine& machine = run.build(machineBuilder(nodes));
                const Addr counter = machine.alloc(kPageBytes, 0);
                std::optional<core::SpinLock> spin;
                std::optional<core::QueuedLock> queue;
                if (queued) {
                    std::vector<NodeId> homes(nodes);
                    std::iota(homes.begin(), homes.end(), NodeId{0});
                    queue = core::QueuedLock::create(machine, 0, homes);
                } else {
                    spin = core::SpinLock::create(machine, 0);
                }
                for (NodeId n = 0; n < nodes; ++n) {
                    machine.spawn(n, [&, n](Context& ctx) {
                        for (unsigned i = 0; i < kAcquisitions; ++i) {
                            queue ? queue->acquire(ctx, n)
                                  : spin->acquire(ctx);
                            // Short critical section: bump a counter.
                            const Word v = ctx.read(counter);
                            ctx.compute(20);
                            ctx.write(counter, v + 1);
                            queue ? queue->release(ctx) : spin->release(ctx);
                        }
                    });
                }
                machine.run();
                PLUS_ASSERT(machine.peek(counter) == nodes * kAcquisitions,
                            "lock lost updates");
                const auto rep = machine.report();
                return LockStats{machine.now(),
                                 rep.localRmws + rep.remoteRmws};
            }});
        }
    }
    return experiment<LockStats>(
        "table_3_2_lock", "Table 3-2: lock with queue",
        "queued lock (fadd + queue/dequeue) vs test-and-set lock",
        std::move(points), [](const std::vector<LockStats>& r,
                              std::ostream& os) {
            TablePrinter table;
            table.setHeader({"Procs", "spin-lock cycles",
                             "queued-lock cycles", "spin rmw-ops",
                             "queued rmw-ops"});
            for (std::size_t i = 0; i < std::size(kSizes); ++i) {
                const LockStats& spin = r[2 * i];
                const LockStats& queued = r[2 * i + 1];
                table.addRow({std::to_string(kSizes[i]),
                              TablePrinter::num(spin.elapsed),
                              TablePrinter::num(queued.elapsed),
                              TablePrinter::num(spin.rmwMessages),
                              TablePrinter::num(queued.rmwMessages)});
            }
            finishTable(table,
                        "Both locks preserve mutual exclusion; the queued "
                        "lock trades spinning rmw traffic\nfor one "
                        "queue/dequeue pair per contended handoff.",
                        os);
            return true;
        });
}

/**
 * Ablation A: copy-list ordering. "The operating system kernel orders
 * the copy-list to minimize the network path length through all the
 * nodes in the list" (Section 2.3). Point 0 compares the greedy
 * ordering against random placement at the data-structure level, on
 * the host only (one RNG stream across all sizes, so one point); point
 * 1 measures write-fence latency to a page replicated on every node.
 */
Experiment
ablationCopyList()
{
    struct Result {
        std::vector<std::pair<double, double>> hops; ///< unordered, ordered
        Cycles fenceLatency = 0;
        std::uint64_t chainHops = 0;
    };
    static const unsigned kCopies[] = {4, 8, 16, 32, 64};
    Points<Result> points;
    points.push_back({"path length", [](PointRun&) {
        const net::Topology topo(64, 8, 8);
        Xoshiro256 rng(99);
        constexpr int kTrials = 50;
        Result out;
        for (unsigned copies : kCopies) {
            double unordered = 0;
            double ordered = 0;
            for (int t = 0; t < kTrials; ++t) {
                std::vector<NodeId> nodes(topo.nodes());
                std::iota(nodes.begin(), nodes.end(), NodeId{0});
                for (std::size_t i = nodes.size() - 1; i > 0; --i) {
                    std::swap(nodes[i], nodes[rng.below(i + 1)]);
                }
                mem::CopyList cl(PhysPage{nodes[0], 0});
                for (unsigned i = 1; i < copies; ++i) {
                    cl.append(PhysPage{nodes[i], 0});
                }
                unordered += cl.pathLength(topo);
                cl.orderForPathLength(topo);
                ordered += cl.pathLength(topo);
            }
            out.hops.emplace_back(unordered / kTrials, ordered / kTrials);
        }
        return out;
    }});
    points.push_back({"write+fence", [](PointRun& run) {
        Machine& machine = run.build(machineBuilder(16));
        const Addr page = machine.alloc(kPageBytes, 0);
        for (NodeId n = 1; n < 16; ++n) {
            machine.replicate(page, n);
        }
        machine.settle();
        Result out;
        machine.spawn(0, [&](Context& ctx) {
            ctx.read(page); // warm translation
            const Cycles before = ctx.machine().now();
            ctx.write(page, 1);
            ctx.fence();
            out.fenceLatency = ctx.machine().now() - before;
        });
        machine.run();
        out.chainHops = machine.copyListOf(page).pathLength(
            machine.network().topology());
        return out;
    }});
    return experiment<Result>(
        "ablation_copylist", "Ablation A: copy-list ordering",
        "greedy nearest-neighbour chain vs unordered placement",
        std::move(points), [](const std::vector<Result>& r,
                              std::ostream& os) {
            TablePrinter table;
            table.setHeader({"Copies", "unordered hops", "ordered hops",
                             "saving"});
            for (std::size_t i = 0; i < std::size(kCopies); ++i) {
                const auto [unordered, ordered] = r[0].hops[i];
                table.addRow(
                    {std::to_string(kCopies[i]), TablePrinter::num(unordered),
                     TablePrinter::num(ordered),
                     TablePrinter::num(100.0 * (1 - ordered / unordered), 1) +
                         "%"});
            }
            table.print(os);
            os << "\nEnd-to-end: write + fence latency to a page "
                  "replicated on every node of a 4x4 mesh\n(the chain the "
                  "machine builds is the greedy one):\n\n";
            TablePrinter t2;
            t2.setHeader({"Chain copies", "write+fence cycles",
                          "chain path hops"});
            t2.addRow({"16", TablePrinter::num(r[1].fenceLatency),
                       TablePrinter::num(r[1].chainHops)});
            t2.print(os);
            os << "\n";
            return true;
        });
}

/**
 * Ablation B: network contention and update flooding. Section 2.5 warns
 * that "uncontrolled replication can result in the system getting
 * flooded with update requests". Every node writes its own page,
 * replicated on a growing number of nodes, on the contention-modelling
 * mesh and on the ideal (infinite-bandwidth) network.
 */
Experiment
ablationNetwork()
{
    struct Outcome {
        Cycles elapsed = 0;
        double meanQueueing = 0;
        std::uint64_t messages = 0;
    };
    constexpr unsigned kNodes = 16;
    static const unsigned kCopies[] = {1, 2, 4, 8, 16};
    Points<Outcome> points;
    for (unsigned copies : kCopies) {
        for (const bool ideal : {false, true}) {
            points.push_back({"copies=" + std::to_string(copies) +
                                  (ideal ? " ideal" : " mesh"),
                              [copies, ideal](PointRun& run) {
                Machine& machine =
                    run.build(machineBuilder(kNodes).idealNetwork(ideal));
                std::vector<Addr> pages(kNodes);
                for (NodeId n = 0; n < kNodes; ++n) {
                    pages[n] = machine.alloc(kPageBytes, n);
                    for (unsigned c = 1; c < copies; ++c) {
                        machine.replicate(pages[n], (n + c) % kNodes);
                    }
                }
                machine.settle();
                for (NodeId n = 0; n < kNodes; ++n) {
                    machine.spawn(n, [page = pages[n]](Context& ctx) {
                        for (unsigned i = 0; i < 200; ++i) {
                            ctx.write(page + 4 * (i % 64), i);
                            ctx.compute(10);
                        }
                        ctx.fence();
                    });
                }
                machine.run();
                return Outcome{machine.now(),
                               machine.network().queueingHistogram().mean(),
                               machine.network().stats().packets};
            }});
        }
    }
    return experiment<Outcome>(
        "ablation_network", "Ablation B: mesh contention vs ideal network",
        "update flooding as replication grows (Section 2.5)",
        std::move(points), [](const std::vector<Outcome>& r,
                              std::ostream& os) {
            TablePrinter table;
            table.setHeader({"Copies", "mesh cycles", "ideal cycles",
                             "slowdown", "mesh queueing (avg cyc)",
                             "messages"});
            for (std::size_t i = 0; i < std::size(kCopies); ++i) {
                const Outcome& mesh = r[2 * i];
                const Outcome& ideal = r[2 * i + 1];
                table.addRow(
                    {std::to_string(kCopies[i]),
                     TablePrinter::num(mesh.elapsed),
                     TablePrinter::num(ideal.elapsed),
                     TablePrinter::num(
                         ratioOf(static_cast<double>(mesh.elapsed),
                                 static_cast<double>(ideal.elapsed))),
                     TablePrinter::num(mesh.meanQueueing),
                     TablePrinter::num(mesh.messages)});
            }
            finishTable(table,
                        "Expected: with few copies the mesh tracks the "
                        "ideal network; at full replication\nthe update "
                        "fan-out saturates links and the mesh falls "
                        "behind.",
                        os);
            return true;
        });
}

/**
 * Ablation C: architectural capacities. The 1990 implementation lets
 * each node have up to 8 writes and 8 delayed operations in progress;
 * sweep both depths to show where that sits on the latency-hiding
 * curve.
 */
Experiment
ablationDepths()
{
    static const unsigned kWriteDepths[] = {1, 2, 4, 8, 16, 32};
    static const unsigned kOpDepths[] = {1, 2, 4, 8};
    Points<Cycles> points;
    // Issue and drain 64 writes spread over three remote nodes (a single
    // destination would serialize at its coherence manager regardless of
    // window depth).
    for (unsigned d : kWriteDepths) {
        points.push_back({"pending-writes=" + std::to_string(d),
                          [d](PointRun& run) {
            Machine& machine = run.build(
                machineBuilder(16).tune([&](MachineConfig& mc) {
                    mc.cost.pendingWriteEntries = d;
                }));
            const Addr pages[3] = {machine.alloc(kPageBytes, 5),
                                   machine.alloc(kPageBytes, 10),
                                   machine.alloc(kPageBytes, 15)};
            Cycles elapsed = 0;
            machine.spawn(0, [&](Context& ctx) {
                for (Addr page : pages) {
                    ctx.read(page);
                }
                const Cycles before = ctx.machine().now();
                for (Word i = 0; i < 64; ++i) {
                    ctx.write(pages[i % 3] + 4 * (i / 3), i);
                }
                ctx.fence();
                elapsed = ctx.machine().now() - before;
            });
            machine.run();
            return elapsed;
        }});
    }
    // A remote fadd stream with a sliding window of delayed operations.
    for (unsigned d : kOpDepths) {
        points.push_back({"delayed-ops=" + std::to_string(d),
                          [d](PointRun& run) {
            Machine& machine = run.build(
                machineBuilder(4).tune([&](MachineConfig& mc) {
                    mc.cost.delayedOpEntries = d;
                }));
            const Addr page = machine.alloc(kPageBytes, 3);
            Cycles elapsed = 0;
            machine.spawn(0, [&](Context& ctx) {
                ctx.read(page);
                const Cycles before = ctx.machine().now();
                std::deque<core::OpHandle> window;
                for (Word i = 0; i < 64; ++i) {
                    if (window.size() == d) {
                        ctx.verify(window.front());
                        window.pop_front();
                    }
                    window.push_back(ctx.issueFadd(page, 1));
                }
                for (; !window.empty(); window.pop_front()) {
                    ctx.verify(window.front());
                }
                elapsed = ctx.machine().now() - before;
            });
            machine.run();
            return elapsed;
        }});
    }
    return experiment<Cycles>(
        "ablation_depths",
        "Ablation C: pending-write / delayed-op cache depths",
        "the 1990 implementation chose 8 of each", std::move(points),
        [](const std::vector<Cycles>& r, std::ostream& os) {
            std::size_t i = 0;
            TablePrinter writes;
            writes.setHeader(
                {"Pending-write entries", "64-write burst (cycles)"});
            for (unsigned d : kWriteDepths) {
                writes.addRow({std::to_string(d), TablePrinter::num(r[i++])});
            }
            writes.print(os);
            os << "\n";
            TablePrinter ops;
            ops.setHeader({"Delayed-op entries", "64-fadd stream (cycles)"});
            for (unsigned d : kOpDepths) {
                ops.addRow({std::to_string(d), TablePrinter::num(r[i++])});
            }
            ops.print(os);
            os << "\nExpected: throughput saturates once the window covers "
                  "the round-trip latency;\ndepth 8 sits at (or past) the "
                  "knee for adjacent-node traffic.\n\n";
            return true;
        });
}

/**
 * Ablation D: fence policy. PLUS gives the programmer an explicit write
 * fence and does not fence as part of every synchronization operation
 * (unlike DASH, Section 2.3). Beam search runs both ways.
 */
Experiment
ablationFence()
{
    static const unsigned kSizes[] = {2, 4, 8, 16};
    Points<Cycles> points;
    for (unsigned nodes : kSizes) {
        for (const bool implicit : {false, true}) {
            points.push_back({"N=" + std::to_string(nodes) +
                                  (implicit ? " implicit" : " explicit"),
                              [nodes, implicit](PointRun& run) {
                workloads::BeamConfig cfg;
                cfg.layers = 16;
                cfg.width = 96;
                cfg.seed = 77;
                const workloads::BeamResult r = runBeam(
                    run.build(machineBuilder(nodes).tune(
                        [&](MachineConfig& c) {
                            c.cost.implicitFenceOnSync = implicit;
                        })),
                    cfg);
                PLUS_ASSERT(r.correct, "beam result incorrect");
                return r.elapsed;
            }});
        }
    }
    return experiment<Cycles>(
        "ablation_fence",
        "Ablation D: explicit vs implicit (DASH-style) fences",
        "beam search, delayed operations, 2-16 processors",
        std::move(points), [](const std::vector<Cycles>& r,
                              std::ostream& os) {
            TablePrinter table;
            table.setHeader({"Procs", "explicit-fence cycles",
                             "implicit-fence cycles", "overhead"});
            for (std::size_t i = 0; i < std::size(kSizes); ++i) {
                table.addRow({std::to_string(kSizes[i]),
                              TablePrinter::num(r[2 * i]),
                              TablePrinter::num(r[2 * i + 1]),
                              percentDelta(r[2 * i], r[2 * i + 1])});
            }
            finishTable(table,
                        "Expected: forcing strong ordering at every "
                        "synchronization operation costs cycles that\n"
                        "PLUS's selective explicit fence avoids.",
                        os);
            return true;
        });
}

/**
 * Ablation F: node-bus snoop policy. Section 2.2 argues for update-style
 * protocols, and PLUS accordingly snoop-*updates* the processor cache
 * when the coherence manager writes local memory. Compare that with an
 * invalidating snoop while processors re-read words a remote writer
 * keeps updating; the experiment fails unless update is no slower.
 */
Experiment
ablationSnoop()
{
    struct Outcome {
        Cycles elapsed = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
    };
    auto pingPong = [](bool invalidate) {
        return [invalidate](PointRun& run) {
            constexpr NodeId kNodes = 8;
            Machine& machine =
                run.build(machineBuilder(kNodes).tune([&](MachineConfig& mc) {
                    mc.cost.snoopInvalidate = invalidate;
                }));
            // Each node owns a page its processor keeps re-reading while
            // the next node writes fresh values into it.
            std::vector<Addr> pages(kNodes);
            for (NodeId n = 0; n < kNodes; ++n) {
                pages[n] = machine.alloc(kPageBytes, n);
            }
            for (NodeId n = 0; n < kNodes; ++n) {
                const Addr own = pages[n];
                const Addr neighbour = pages[(n + 1) % kNodes];
                machine.spawn(n, [own, neighbour](Context& ctx) {
                    for (int i = 0; i < 300; ++i) {
                        // Re-read a hot local window (cached; snooped on
                        // every remote update)...
                        for (Word w = 0; w < 8; ++w) {
                            ctx.read(own + 4 * w);
                        }
                        ctx.compute(20);
                        // ...and sometimes write the neighbour's window
                        // (sparse enough that reads set the pace).
                        if (i % 4 == 0) {
                            ctx.write(neighbour + 4 * (i % 8), i);
                        }
                    }
                    ctx.fence();
                });
            }
            machine.run();
            Outcome out{machine.now(), 0, 0};
            for (NodeId n = 0; n < kNodes; ++n) {
                out.hits += machine.nodeAt(n).cache().stats().hits;
                out.misses += machine.nodeAt(n).cache().stats().misses;
            }
            return out;
        };
    };
    return experiment<Outcome>(
        "ablation_snoop", "Ablation F: node-bus snoop policy",
        "write-update (PLUS) vs invalidate on re-read-heavy load",
        {{"update", pingPong(false)}, {"invalidate", pingPong(true)}},
        [](const std::vector<Outcome>& r, std::ostream& os) {
            TablePrinter table;
            table.setHeader({"Snoop policy", "cycles", "cache hits",
                             "cache misses"});
            const char* policies[] = {"update (PLUS)", "invalidate"};
            for (std::size_t i = 0; i < 2; ++i) {
                table.addRow({policies[i], TablePrinter::num(r[i].elapsed),
                              TablePrinter::num(r[i].hits),
                              TablePrinter::num(r[i].misses)});
            }
            table.print(os);
            os << "\nExpected: the invalidating snoop evicts the hot lines "
                  "on every remote update,\nturning re-reads into line "
                  "fills (more misses, more cycles) — the ping-pong\n"
                  "Section 2.2 credits DRAGON-style update protocols with "
                  "avoiding.\n\n";
            return r[0].elapsed <= r[1].elapsed;
        });
}

/**
 * Section 2.4's three ways of placing pages, on one skewed workload,
 * against no policy: programmer-directed (the layout is requested up
 * front), measurement-driven (a profiling run's remote-reference counts
 * place the pages of the next run) and competitive (reference counters
 * overflow and the OS replicates hot pages during the run).
 */
Experiment
placementPolicies()
{
    constexpr unsigned kNodes = 16;
    constexpr unsigned kPages = 8;
    struct Outcome {
        Cycles elapsed = 0;
        std::uint64_t planActions = 0;
    };
    // Pages live on node 0; each has one heavy consumer elsewhere on the
    // mesh plus light uniform readers.
    auto allocate = [](Machine& m) {
        std::vector<Addr> pages;
        for (unsigned p = 0; p < kPages; ++p) {
            pages.push_back(m.alloc(kPageBytes, 0));
        }
        return pages;
    };
    auto workload = [](Machine& m, const std::vector<Addr>& pages) {
        for (NodeId n = 1; n < kNodes; ++n) {
            m.spawn(n, [&pages, n](Context& ctx) {
                const Addr hot = pages[n % kPages];
                for (int i = 0; i < 300; ++i) {
                    ctx.read(hot + 4 * (i % 256));
                    ctx.compute(15);
                    if (i % 10 == 0) {
                        ctx.read(pages[(n + i) % kPages]);
                    }
                }
            });
        }
        const Cycles start = m.now();
        m.run();
        return m.now() - start;
    };
    Points<Outcome> points;
    points.push_back({"none", [=](PointRun& run) {
        Machine& m = run.build(machineBuilder(kNodes));
        const auto pages = allocate(m);
        return Outcome{workload(m, pages), 0};
    }});
    points.push_back({"programmer-directed", [=](PointRun& run) {
        Machine& m = run.build(machineBuilder(kNodes));
        const auto pages = allocate(m);
        for (NodeId n = 1; n < kNodes; ++n) {
            m.replicate(pages[n % kPages], n);
        }
        m.settle();
        return Outcome{workload(m, pages), 0};
    }});
    points.push_back({"measurement-driven", [=](PointRun& run) {
        core::PlacementPolicy policy;
        policy.replicateThreshold = 64;
        policy.maxCopies = 4;
        Machine& profiled = run.build(machineBuilder(kNodes));
        workload(profiled, allocate(profiled));
        const core::PlacementPlan plan = core::derivePlan(
            profiled, core::AccessProfile::collect(profiled), policy);
        Machine& m = run.build(machineBuilder(kNodes));
        const auto pages = allocate(m);
        core::applyPlan(m, plan);
        return Outcome{workload(m, pages), plan.actions()};
    }});
    points.push_back({"competitive", [=](PointRun& run) {
        Machine& m = run.build(machineBuilder(kNodes));
        const auto pages = allocate(m);
        m.enableCompetitiveReplication(/*threshold=*/48, /*max_copies=*/4);
        return Outcome{workload(m, pages), 0};
    }});
    return experiment<Outcome>(
        "placement_policies", "Placement policies (Section 2.4)",
        "programmer-directed vs measurement-driven vs competitive",
        std::move(points), [](const std::vector<Outcome>& r,
                              std::ostream& os) {
            const char* policies[] = {
                "none (all pages on node 0)", "programmer-directed",
                "measurement-driven", "competitive (online)"};
            TablePrinter table;
            table.setHeader({"Policy", "cycles", "speedup", "plan actions"});
            for (std::size_t i = 0; i < r.size(); ++i) {
                table.addRow(
                    {policies[i], TablePrinter::num(r[i].elapsed),
                     i == 0 ? "1.00"
                            : TablePrinter::num(
                                  static_cast<double>(r[0].elapsed) /
                                  static_cast<double>(r[i].elapsed)),
                     i == 2 ? TablePrinter::num(r[i].planActions) : "-"});
            }
            table.print(os);
            os << "\nExpected: directed ~= measured > competitive > none "
                  "(the online policy pays its\ncopies during the run; "
                  "the offline ones pay nothing).\n\n";
            return true;
        });
}

/**
 * The production-system workload, the read-dominated member of the
 * paper's application suite, under growing replication of its
 * read-mostly match index: remote match probes become local reads while
 * the interlocked assertion traffic stays constant. Speedups are
 * against the 1-copy point.
 */
Experiment
productionReplication()
{
    struct Outcome {
        Cycles elapsed = 0;
        double reads = 0;
        std::uint64_t updates = 0;
    };
    Points<Outcome> points;
    for (unsigned copies = 1; copies <= 5; ++copies) {
        points.push_back({"copies=" + std::to_string(copies),
                          [copies](PointRun& run) {
            workloads::ProductionConfig cfg;
            cfg.facts = 2048;
            cfg.rules = 6144;
            cfg.initialFacts = 16;
            cfg.seed = 20260708;
            cfg.replication = copies;
            const workloads::ProductionResult r =
                runProduction(run.build(machineBuilder(16)), cfg);
            PLUS_ASSERT(r.correct, "production closure incorrect");
            return Outcome{r.elapsed,
                           localRemoteRatio(r.report.localReads,
                                            r.report.remoteReads),
                           r.report.updateMessages};
        }});
    }
    return experiment<Outcome>(
        "production_replication", "Production system vs replication",
        "forward chaining, 16 processors, match index replicated",
        std::move(points), [](const std::vector<Outcome>& r,
                              std::ostream& os) {
            TablePrinter table;
            table.setHeader({"Copies", "cycles", "speedup", "Reads L/R",
                             "updates"});
            for (std::size_t i = 0; i < r.size(); ++i) {
                table.addRow(
                    {std::to_string(i + 1), TablePrinter::num(r[i].elapsed),
                     TablePrinter::num(
                         ratioOf(static_cast<double>(r[0].elapsed),
                                 static_cast<double>(r[i].elapsed))),
                     TablePrinter::num(r[i].reads),
                     TablePrinter::num(r[i].updates)});
            }
            finishTable(table,
                        "Expected: the local/remote read ratio climbs with "
                        "copies and the run gets faster,\nwhile update "
                        "traffic stays modest (the replicated pages are "
                        "read-mostly).",
                        os);
            return true;
        });
}

/** Every experiment, in the order a bare `paper_results` prints them. */
std::vector<Experiment>
paperResults()
{
    return {table21(),         figure21(),          table31(),
            figure31(),        table32(),           ablationCopyList(),
            ablationNetwork(), ablationDepths(),    ablationFence(),
            ablationSnoop(),   placementPolicies(), productionReplication()};
}

[[noreturn]] void
usage(const std::string& why)
{
    std::cerr << "paper_results: " << why
              << "\nusage: paper_results [name...] "
                 "[--protocol=update|invalidate] [--trace-out=<file>] "
                 "[--stats-out=<file>] [--prof-out=<file>]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char** argv)
{
    const HarnessArgs& args = parseHarnessArgs(argc, argv);
    if (args.nodes != 0) {
        usage("--nodes= is not an option: each experiment fixes its sizes");
    }
    std::vector<Experiment> all = paperResults();
    std::vector<Experiment> chosen;
    auto named = [](const std::string& name) {
        return [&name](const Experiment& e) { return e.name == name; };
    };
    for (const std::string& arg : args.rest) {
        const auto it = std::find_if(all.begin(), all.end(), named(arg));
        if (arg.rfind('-', 0) == 0) {
            usage("unknown option '" + arg + "'");
        } else if (it == all.end()) {
            usage("unknown experiment '" + arg + "'");
        } else if (std::any_of(chosen.begin(), chosen.end(), named(arg))) {
            usage("experiment '" + arg + "' named twice");
        }
        chosen.push_back(*it);
    }
    if (chosen.empty()) {
        chosen = std::move(all);
    }

    SweepOutcome out = runSweep(chosen, std::thread::hardware_concurrency());
    int status = 0;
    for (const PointFailure& f : out.failures) {
        std::cerr << "paper_results: " << f.experiment << " [" << f.point
                  << "]: " << f.what << "\n";
        status = 1;
    }
    for (const Experiment& e : chosen) {
        if (std::any_of(out.failures.begin(), out.failures.end(),
                        [&](const PointFailure& f) {
                            return f.experiment == e.name;
                        })) {
            continue; // its results are incomplete
        }
        printHeader(e.title, e.reproduces);
        if (!e.print(std::cout)) {
            std::cerr << "paper_results: " << e.name
                      << ": the results fail the experiment's check\n";
            status = 1;
        }
    }
    const bool exported =
        out.exported ? exportTelemetry(*out.exported) : exportProf();
    return exported ? status : 1;
}
