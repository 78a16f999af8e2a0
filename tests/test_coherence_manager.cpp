/**
 * @file
 * Direct tests of the coherence manager with hand-wired nodes and
 * scripted requests (no Machine, no processor): master redirection of
 * writes addressed to a non-master copy, interlocked execution at the
 * master, chain acknowledgement bookkeeping, reads served by the
 * addressed copy, nacks for dead frames, page-copy batching, message
 * statistics, and the ops the manager parks: reads behind a pending
 * write to their word, writes and interlocked issues behind a full
 * cache, fences behind a non-empty one, and verifies behind a result.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mem/coherence_tables.hpp"
#include "mem/local_memory.hpp"
#include "net/network.hpp"
#include "proto/coherence_manager.hpp"
#include "sim/engine.hpp"

namespace plus {
namespace proto {
namespace {

/** Three hand-wired nodes on a 3x1 mesh. */
class CmHarness : public ::testing::Test
{
  protected:
    static constexpr unsigned kNodes = 3;

    void
    SetUp() override
    {
        topology_ = std::make_unique<net::Topology>(kNodes, kNodes, 1);
        NetworkConfig netcfg;
        network_ = std::make_unique<net::MeshNetwork>(engine_, *topology_,
                                                      netcfg);
        for (NodeId n = 0; n < kNodes; ++n) {
            memory_.push_back(std::make_unique<mem::LocalMemory>(8));
            tables_.push_back(std::make_unique<mem::CoherenceTables>());
        }
        for (NodeId n = 0; n < kNodes; ++n) {
            CoherenceManager::Deps deps;
            deps.engine = &engine_;
            deps.network = network_.get();
            deps.memory = memory_[n].get();
            deps.tables = tables_[n].get();
            cm_.push_back(std::make_unique<CoherenceManager>(n, cost_,
                                                             deps));
            network_->setDeliveryHandler(n, [this, n](net::Packet p) {
                cm_[n]->onPacket(std::move(p));
            });
            cm_[n]->setCompletionHook([this, n](unsigned thread, Word value) {
                done_.push_back({n, thread, value, engine_.now(),
                                 cm_[n]->pendingWrites().inFlight()});
            });
        }
    }

    /** A parked op the completion hook reported. */
    struct Completion {
        NodeId node;
        unsigned thread;
        Word value;
        Cycles at;
        /** The node's in-flight writes when the hook ran. */
        unsigned inFlight;
    };

    /**
     * Build a page with copies on the given nodes (first is master);
     * returns the per-node frames (kInvalidFrame where absent).
     */
    std::vector<FrameId>
    makePage(const std::vector<NodeId>& holders)
    {
        std::vector<FrameId> frames(kNodes, kInvalidFrame);
        std::vector<PhysPage> copies;
        for (NodeId n : holders) {
            frames[n] = memory_[n]->allocFrame();
            copies.push_back(PhysPage{n, frames[n]});
        }
        for (std::size_t i = 0; i < copies.size(); ++i) {
            tables_[copies[i].node]->setMaster(copies[i].frame,
                                               copies.front());
            tables_[copies[i].node]->setNextCopy(
                copies[i].frame,
                i + 1 < copies.size()
                    ? std::optional<PhysPage>(copies[i + 1])
                    : std::nullopt);
        }
        return frames;
    }

    sim::Engine engine_;
    CostModel cost_;
    std::unique_ptr<net::Topology> topology_;
    std::unique_ptr<net::MeshNetwork> network_;
    std::vector<std::unique_ptr<mem::LocalMemory>> memory_;
    std::vector<std::unique_ptr<mem::CoherenceTables>> tables_;
    std::vector<std::unique_ptr<CoherenceManager>> cm_;
    std::vector<Completion> done_;
};

TEST_F(CmHarness, LocalReadReturnsMemoryValue)
{
    auto frames = makePage({0});
    memory_[0]->write(frames[0], 5, 42);
    // Nothing is pending on the word: the value comes back in the call.
    EXPECT_EQ(cm_[0]->procRead(0, 1, 5, PhysAddr{{0, frames[0]}, 5}), 42u);
    engine_.run();
    EXPECT_TRUE(done_.empty());
    EXPECT_EQ(cm_[0]->stats().localReads, 1u);
}

TEST_F(CmHarness, RemoteReadServedByAddressedCopy)
{
    auto frames = makePage({2, 1}); // master on 2, copy on 1
    memory_[1]->write(frames[1], 7, 77); // stale-able replica value
    // Node 0 reads via node 1's copy — served there, not at the master.
    EXPECT_FALSE(cm_[0]->procRead(3, 1, 7, PhysAddr{{1, frames[1]}, 7}));
    engine_.run();
    ASSERT_EQ(done_.size(), 1u);
    EXPECT_EQ(done_[0].thread, 3u);
    EXPECT_EQ(done_[0].value, 77u);
    EXPECT_EQ(cm_[0]->stats().remoteReads, 1u);
    EXPECT_EQ(cm_[1]->stats().sentOf(MsgType::ReadResp), 1u);
    EXPECT_EQ(cm_[2]->stats().totalSent(), 0u);
}

TEST_F(CmHarness, WriteAddressedToNonMasterRedirects)
{
    auto frames = makePage({2, 1}); // master on 2, replica on 1
    // Node 0 writes via its mapping to node 1's copy; the write must be
    // performed at the master (node 2) first, then update node 1.
    EXPECT_TRUE(cm_[0]->procWrite(0, 1, 3, PhysAddr{{1, frames[1]}, 3}, 99));
    engine_.run();
    EXPECT_EQ(memory_[2]->read(frames[2], 3), 99u);
    EXPECT_EQ(memory_[1]->read(frames[1], 3), 99u);
    // node1 forwarded the WriteReq to the master.
    EXPECT_EQ(cm_[1]->stats().sentOf(MsgType::WriteReq), 1u);
    EXPECT_EQ(cm_[2]->stats().sentOf(MsgType::UpdateReq), 1u);
    // The tail (node 1) acknowledged the originator (node 0).
    EXPECT_EQ(cm_[1]->stats().sentOf(MsgType::WriteAck), 1u);
    EXPECT_TRUE(cm_[0]->pendingWrites().empty());
}

TEST_F(CmHarness, UnreplicatedLocalWriteSendsNothing)
{
    auto frames = makePage({0});
    EXPECT_TRUE(cm_[0]->procWrite(0, 1, 0, PhysAddr{{0, frames[0]}, 0}, 7));
    engine_.run();
    EXPECT_EQ(memory_[0]->read(frames[0], 0), 7u);
    EXPECT_EQ(cm_[0]->stats().totalSent(), 0u);
    EXPECT_EQ(cm_[0]->stats().localWrites, 1u);
}

TEST_F(CmHarness, RmwExecutesAtMasterAndReturnsOldValue)
{
    auto frames = makePage({2, 0}); // master remote, replica local
    memory_[2]->write(frames[2], 1, 10);
    const auto handle = cm_[0]->procIssueRmw(0, RmwOp::FetchAdd, 1, 1,
                                             PhysAddr{{0, frames[0]}, 1}, 5);
    ASSERT_TRUE(handle);
    engine_.run();
    ASSERT_TRUE(cm_[0]->rmwReady(*handle));
    EXPECT_EQ(cm_[0]->procVerify(0, *handle), 10u);
    EXPECT_EQ(memory_[2]->read(frames[2], 1), 15u);
    EXPECT_EQ(memory_[0]->read(frames[0], 1), 15u); // update flowed back
}

TEST_F(CmHarness, ReadOfDeadFrameIsNackedAndRetried)
{
    auto frames = makePage({0});
    memory_[0]->write(frames[0], 2, 123);
    // Node 1's translator re-points at node 0's live frame.
    cm_[1]->setTranslator([&](Vpn) { return PhysPage{0, frames[0]}; });
    // Stale request: node 1 reads a frame on node 2 that was never
    // allocated (stands for a deleted copy).
    EXPECT_FALSE(cm_[1]->procRead(0, 1, 2, PhysAddr{{2, 4}, 2}));
    engine_.run();
    ASSERT_EQ(done_.size(), 1u);
    EXPECT_EQ(done_[0].value, 123u);
    EXPECT_EQ(cm_[1]->stats().retries, 1u);
    EXPECT_EQ(cm_[2]->stats().sentOf(MsgType::Nack), 1u);
}

TEST_F(CmHarness, WriteToDeadFrameIsNackedAndRetried)
{
    auto frames = makePage({0});
    cm_[1]->setTranslator([&](Vpn) { return PhysPage{0, frames[0]}; });
    EXPECT_TRUE(cm_[1]->procWrite(0, 1, 6, PhysAddr{{2, 4}, 6}, 55));
    engine_.run();
    EXPECT_EQ(memory_[0]->read(frames[0], 6), 55u);
    EXPECT_TRUE(cm_[1]->pendingWrites().empty());
}

TEST_F(CmHarness, RmwToDeadFrameIsNackedAndRetried)
{
    auto frames = makePage({0});
    memory_[0]->write(frames[0], 0, 4);
    cm_[1]->setTranslator([&](Vpn) { return PhysPage{0, frames[0]}; });
    const auto handle =
        cm_[1]->procIssueRmw(0, RmwOp::Xchng, 1, 0, PhysAddr{{2, 4}, 0}, 9);
    ASSERT_TRUE(handle);
    engine_.run();
    EXPECT_EQ(cm_[1]->procVerify(0, *handle), 4u);
    EXPECT_EQ(memory_[0]->read(frames[0], 0), 9u);
}

TEST_F(CmHarness, PageCopyTransfersWholePage)
{
    auto frames = makePage({0});
    for (Addr w = 0; w < kPageWords; ++w) {
        memory_[0]->write(frames[0], w, static_cast<Word>(w * 3 + 1));
    }
    const FrameId dst = memory_[2]->allocFrame();
    // Insert node 2 as successor so the copy engine has a live chain.
    tables_[0]->setNextCopy(frames[0], PhysPage{2, dst});
    tables_[2]->setMaster(dst, PhysPage{0, frames[0]});

    bool done = false;
    cm_[0]->setPageCopyDoneHandler([&](std::uint32_t id) {
        EXPECT_EQ(id, 9u);
        done = true;
    });
    cm_[0]->startPageCopy(frames[0], PhysPage{2, dst}, 9);
    engine_.run();
    EXPECT_TRUE(done);
    for (Addr w = 0; w < kPageWords; ++w) {
        ASSERT_EQ(memory_[2]->read(dst, w), w * 3 + 1);
    }
    EXPECT_EQ(cm_[0]->stats().sentOf(MsgType::PageCopyData),
              kPageWords / 32);
}

TEST_F(CmHarness, FrameFlushFreesAndForgets)
{
    auto frames = makePage({0, 2});
    // Splice first (as the Machine would), then flush node 2's copy.
    tables_[0]->setNextCopy(frames[0], std::nullopt);
    cm_[0]->osFlushRemoteFrame(PhysPage{2, frames[2]});
    engine_.run();
    EXPECT_FALSE(memory_[2]->allocated(frames[2]));
    EXPECT_FALSE(tables_[2]->knows(frames[2]));
}

TEST_F(CmHarness, ManagerOccupancySerializesRequests)
{
    // Two interlocked ops arriving back-to-back at one master are
    // serviced one after the other: the second result is delayed by at
    // least the first's occupancy.
    auto frames = makePage({1});
    const auto h0 = cm_[0]->procIssueRmw(0, RmwOp::FetchAdd, 1, 0,
                                         PhysAddr{{1, frames[1]}, 0}, 1);
    const auto h1 = cm_[2]->procIssueRmw(0, RmwOp::FetchAdd, 1, 0,
                                         PhysAddr{{1, frames[1]}, 0}, 1);
    ASSERT_TRUE(h0 && h1);
    EXPECT_FALSE(cm_[0]->procVerify(0, *h0));
    EXPECT_FALSE(cm_[2]->procVerify(0, *h1));
    engine_.run();
    EXPECT_EQ(memory_[1]->read(frames[1], 0), 2u);
    ASSERT_EQ(done_.size(), 2u);
    const Cycles t0 = done_[0].at;
    const Cycles t1 = done_[1].at;
    const Cycles gap = t0 > t1 ? t0 - t1 : t1 - t0;
    EXPECT_GE(gap, cost_.cmRmwSimple);
    EXPECT_GE(cm_[1]->stats().busyCycles, 2 * cost_.cmRmwSimple);
}

TEST_F(CmHarness, StatsCountMessageMix)
{
    auto frames = makePage({1, 2});
    EXPECT_TRUE(cm_[0]->procWrite(0, 1, 0, PhysAddr{{1, frames[1]}, 0}, 1));
    // The read of the word being written waits for the write's ack.
    EXPECT_FALSE(cm_[0]->procRead(0, 1, 0, PhysAddr{{2, frames[2]}, 0}));
    engine_.run();
    EXPECT_EQ(cm_[0]->stats().sentOf(MsgType::WriteReq), 1u);
    EXPECT_EQ(cm_[0]->stats().sentOf(MsgType::ReadReq), 1u);
    EXPECT_EQ(cm_[1]->stats().sentOf(MsgType::UpdateReq), 1u);
    EXPECT_EQ(cm_[2]->stats().sentOf(MsgType::WriteAck), 1u);
    EXPECT_EQ(cm_[2]->stats().sentOf(MsgType::ReadResp), 1u);
}

// --- parked ops --------------------------------------------------------------
//
// The waits on the pending-writes and delayed-op caches are the
// manager's parked ops; their cases keep the caches' suite names, with
// capacities small enough to fill.

class PendingWrites : public CmHarness
{
  protected:
    PendingWrites() { cost_.pendingWriteEntries = 2; }

    /** Run until node 0 has @p n writes in flight (or nothing is left). */
    void
    runUntilInFlight(unsigned n)
    {
        while (cm_[0]->pendingWrites().inFlight() > n && engine_.step()) {
        }
    }
};

class DelayedOps : public CmHarness
{
  protected:
    DelayedOps() { cost_.delayedOpEntries = 1; }
};

TEST_F(PendingWrites, WhenEmptyFiresOnDrain)
{
    auto frames = makePage({1});
    ASSERT_TRUE(cm_[0]->procWrite(0, 1, 0, PhysAddr{{1, frames[1]}, 0}, 1));
    ASSERT_TRUE(cm_[0]->procWrite(0, 1, 1, PhysAddr{{1, frames[1]}, 1}, 2));
    EXPECT_FALSE(cm_[0]->procFence(1));
    runUntilInFlight(1);
    EXPECT_TRUE(done_.empty());
    engine_.run();
    ASSERT_EQ(done_.size(), 1u);
    EXPECT_EQ(done_[0].thread, 1u);
    EXPECT_EQ(done_[0].inFlight, 0u);
}

TEST_F(PendingWrites, WhenEmptyImmediateIfEmpty)
{
    EXPECT_TRUE(cm_[0]->procFence(0));
    engine_.run();
    EXPECT_TRUE(done_.empty());
}

TEST_F(PendingWrites, WhenSlotFreeQueuesBehindCapacity)
{
    auto frames = makePage({1});
    const PhysAddr phys{{1, frames[1]}, 0};
    ASSERT_TRUE(cm_[0]->procWrite(0, 1, 0, phys, 1));
    ASSERT_TRUE(cm_[0]->procWrite(0, 1, 1, PhysAddr{{1, frames[1]}, 1}, 2));
    EXPECT_FALSE(cm_[0]->procWrite(1, 1, 2, PhysAddr{{1, frames[1]}, 2}, 3));
    EXPECT_FALSE(cm_[0]->procWrite(2, 1, 3, PhysAddr{{1, frames[1]}, 3}, 4));
    engine_.run();
    // Both slot waiters ran, in the order they parked.
    ASSERT_EQ(done_.size(), 2u);
    EXPECT_EQ(done_[0].thread, 1u);
    EXPECT_EQ(done_[1].thread, 2u);
    for (Addr w = 0; w < 4; ++w) {
        EXPECT_EQ(memory_[1]->read(frames[1], w), w + 1);
    }
    EXPECT_TRUE(cm_[0]->pendingWrites().empty());
}

TEST_F(PendingWrites, SlotWaiterThatRefillsBlocksTheNext)
{
    auto frames = makePage({1});
    ASSERT_TRUE(cm_[0]->procWrite(0, 1, 0, PhysAddr{{1, frames[1]}, 0}, 1));
    ASSERT_TRUE(cm_[0]->procWrite(0, 1, 1, PhysAddr{{1, frames[1]}, 1}, 2));
    EXPECT_FALSE(cm_[0]->procWrite(1, 1, 2, PhysAddr{{1, frames[1]}, 2}, 3));
    EXPECT_FALSE(cm_[0]->procWrite(2, 1, 3, PhysAddr{{1, frames[1]}, 3}, 4));
    while (done_.empty() && engine_.step()) {
    }
    // The first waiter took the freed slot before it was woken, so the
    // cache is full again and the second waiter is still parked.
    ASSERT_EQ(done_.size(), 1u);
    EXPECT_EQ(done_[0].thread, 1u);
    EXPECT_EQ(done_[0].inFlight, 2u);
    engine_.run();
    ASSERT_EQ(done_.size(), 2u);
    EXPECT_EQ(done_[1].thread, 2u);
    EXPECT_GT(done_[1].at, done_[0].at);
}

TEST_F(PendingWrites, WhenAddrClearWaitsForThatAddressOnly)
{
    // Page 2's master is one hop away; page 1's write, issued later,
    // goes through its master two hops away, so it retires last.
    auto far = makePage({2, 0});
    auto near = makePage({1});
    ASSERT_TRUE(cm_[0]->procWrite(0, 2, 0, PhysAddr{{1, near[1]}, 0}, 6));
    ASSERT_TRUE(cm_[0]->procWrite(0, 1, 0, PhysAddr{{0, far[0]}, 0}, 5));
    // Another word of page 1 is not blocked.
    EXPECT_EQ(cm_[0]->procRead(1, 1, 1, PhysAddr{{0, far[0]}, 1}), 0u);
    EXPECT_FALSE(cm_[0]->procRead(1, 1, 0, PhysAddr{{0, far[0]}, 0}));
    runUntilInFlight(1);
    ASSERT_TRUE(cm_[0]->pendingWrites().pendingOn(1, 0));
    EXPECT_TRUE(done_.empty());
    engine_.run();
    ASSERT_EQ(done_.size(), 1u);
    EXPECT_EQ(done_[0].value, 5u);
    EXPECT_EQ(done_[0].inFlight, 0u);
}

TEST_F(PendingWrites, DuplicateAddressesBothBlockReads)
{
    auto frames = makePage({1, 0});
    const PhysAddr copy{{0, frames[0]}, 0};
    ASSERT_TRUE(cm_[0]->procWrite(0, 1, 0, copy, 1));
    ASSERT_TRUE(cm_[0]->procWrite(0, 1, 0, copy, 2));
    EXPECT_FALSE(cm_[0]->procRead(1, 1, 0, copy));
    runUntilInFlight(1);
    EXPECT_TRUE(done_.empty());
    engine_.run();
    ASSERT_EQ(done_.size(), 1u);
    EXPECT_EQ(done_[0].value, 2u);
}

TEST_F(DelayedOps, WhenReadyFiresOnCompletion)
{
    auto frames = makePage({1});
    memory_[1]->write(frames[1], 0, 7);
    const auto handle = cm_[0]->procIssueRmw(0, RmwOp::Xchng, 1, 0,
                                             PhysAddr{{1, frames[1]}, 0}, 1);
    ASSERT_TRUE(handle);
    EXPECT_FALSE(cm_[0]->procVerify(0, *handle));
    engine_.run();
    ASSERT_EQ(done_.size(), 1u);
    EXPECT_EQ(done_[0].value, 7u);
    // The verify consumed the result and freed the slot.
    EXPECT_EQ(cm_[0]->delayedOps().inFlight(), 0u);
}

TEST_F(DelayedOps, WhenReadyImmediateIfReady)
{
    auto frames = makePage({1});
    memory_[1]->write(frames[1], 0, 9);
    const auto handle = cm_[0]->procIssueRmw(0, RmwOp::Xchng, 1, 0,
                                             PhysAddr{{1, frames[1]}, 0}, 1);
    ASSERT_TRUE(handle);
    engine_.run();
    EXPECT_EQ(cm_[0]->procVerify(0, *handle), 9u);
    EXPECT_TRUE(done_.empty());
}

TEST_F(DelayedOps, SlotWaitersRunAfterTake)
{
    auto frames = makePage({1});
    const PhysAddr phys{{1, frames[1]}, 0};
    const auto first = cm_[0]->procIssueRmw(0, RmwOp::FetchAdd, 1, 0, phys, 1);
    ASSERT_TRUE(first);
    EXPECT_FALSE(cm_[0]->procIssueRmw(1, RmwOp::FetchAdd, 1, 0, phys, 1));
    engine_.run();
    ASSERT_TRUE(cm_[0]->rmwReady(*first));
    EXPECT_TRUE(done_.empty()); // still occupied until the result is read
    EXPECT_EQ(cm_[0]->procVerify(0, *first), 0u);
    // Freeing the slot issued the parked op inside the verify.
    ASSERT_EQ(done_.size(), 1u);
    EXPECT_EQ(done_[0].thread, 1u);
    EXPECT_EQ(done_[0].value, *first);
    engine_.run();
    EXPECT_EQ(memory_[1]->read(frames[1], 0), 2u);
}

TEST_F(DelayedOps, ParkedVerifyFreesTheSlotBeforeItsThreadWakes)
{
    auto frames = makePage({1});
    const PhysAddr phys{{1, frames[1]}, 0};
    const auto first = cm_[0]->procIssueRmw(0, RmwOp::FetchAdd, 1, 0, phys, 1);
    ASSERT_TRUE(first);
    EXPECT_FALSE(cm_[0]->procVerify(0, *first));
    EXPECT_FALSE(cm_[0]->procIssueRmw(1, RmwOp::FetchAdd, 1, 0, phys, 1));
    engine_.run();
    // The result took the slot from the verify, which issued the RMW
    // parked on it: the RMW's thread is reported first, in the same
    // cycle.
    ASSERT_EQ(done_.size(), 2u);
    EXPECT_EQ(done_[0].thread, 1u);
    EXPECT_EQ(done_[0].value, *first);
    EXPECT_EQ(done_[1].thread, 0u);
    EXPECT_EQ(done_[1].value, 0u);
    EXPECT_EQ(done_[0].at, done_[1].at);
}

} // namespace
} // namespace proto
} // namespace plus
