#include "check/checker.hpp"

namespace plus {
namespace check {

Checker::Checker(const CheckConfig& config) : history_(kHistoryDepth)
{
    if (config.invariants) {
        invariants_ = std::make_unique<InvariantChecker>(&history_);
    }
    if (config.races) {
        races_ =
            std::make_unique<RaceDetector>(&history_, config.panicOnRace);
    }
}

void
Checker::setCopyListResolver(InvariantChecker::CopyListResolver resolver)
{
    if (invariants_) {
        invariants_->setCopyListResolver(std::move(resolver));
    }
}

void
Checker::consume(const Event& e)
{
    switch (e.kind) {
      case EventKind::MessageProcessed:
        // Not recorded: one entry per delivered message would flush the
        // bounded history of the events violations actually need.
        if (invariants_) {
            invariants_->messageProcessed(e.peer, e.node, e.cls);
        }
        return;
      case EventKind::PendingWrite:
      case EventKind::OwnershipTransfer:
      case EventKind::MessageSent:
      case EventKind::PacketDelivered:
      case EventKind::LinkBusy:
      case EventKind::PacketDropped:
      case EventKind::Retransmit:
      case EventKind::ProcStall:
        return; // tracer-only kinds
      default:
        break;
    }

    // Recorded before dispatch so a violation's panic shows its cause.
    history_.push(e);
    const auto tag = static_cast<std::uint32_t>(e.a);
    const auto tid = static_cast<ThreadId>(e.a);
    if (invariants_) {
        InvariantChecker& inv = *invariants_;
        switch (e.kind) {
          case EventKind::WriteIssued:
            inv.writeIssued(e.node, tag, e.vpn, e.word, e.cls != 0);
            break;
          case EventKind::PendingInsert:
            inv.pendingInsert(e.node, tag, e.vpn, e.word);
            break;
          case EventKind::PendingComplete:
            inv.pendingComplete(e.node, tag);
            break;
          case EventKind::PendingAborted:
            inv.pendingAborted(e.node, tag, e.cls != 0);
            break;
          case EventKind::ChainApplied:
            inv.chainApplied(
                e.a, PhysPage{e.node, static_cast<FrameId>(e.b >> 32)},
                e.vpn, e.word, e.bytes, e.peer,
                static_cast<std::uint32_t>(e.b),
                (e.cls & kChainTracked) != 0, (e.cls & kChainAtMaster) != 0);
            break;
          case EventKind::FenceComplete:
            inv.fenceComplete(e.node, e.cls != 0);
            break;
          case EventKind::ReadServed:
            inv.readServed(e.node, e.vpn, e.word);
            break;
          case EventKind::LocalValueServed:
            inv.localValueServed(e.node, e.vpn, e.word);
            break;
          case EventKind::WordInvalidated:
            inv.wordInvalidated(e.node, e.vpn, e.word);
            break;
          case EventKind::WordRevalidated:
            inv.wordRevalidated(e.node, e.vpn, e.word);
            break;
          case EventKind::CopyListChanged:
            inv.copyListChanged(e.vpn);
            break;
          case EventKind::NodeCrashed:
            inv.nodeCrashed(e.node);
            break;
          case EventKind::EpochSealed:
            inv.epochSealed(e.node, e.a);
            break;
          default:
            break;
        }
    }
    if (races_) {
        RaceDetector& races = *races_;
        switch (e.kind) {
          case EventKind::ProcRead: races.read(tid, e.b); break;
          case EventKind::ProcWrite: races.write(tid, e.b); break;
          case EventKind::ProcRmwIssue: races.rmwIssue(tid, e.b); break;
          case EventKind::ProcVerify: races.verifyDone(tid, e.b); break;
          case EventKind::ProcFence: races.fence(tid); break;
          case EventKind::ProcWriteFence: races.writeFence(tid); break;
          default: break;
        }
    }
}

} // namespace check
} // namespace plus
