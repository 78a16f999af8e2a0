#include "check/event.hpp"

#include <algorithm>
#include <sstream>

#include "common/panic.hpp"

namespace plus {
namespace check {

const char*
toString(EventKind kind)
{
    switch (kind) {
      case EventKind::WriteIssued: return "write-issued";
      case EventKind::PendingInsert: return "pending-insert";
      case EventKind::PendingComplete: return "pending-complete";
      case EventKind::PendingAborted: return "pending-aborted";
      case EventKind::PendingWrite: return "pending-write";
      case EventKind::ChainApplied: return "chain-applied";
      case EventKind::FenceComplete: return "fence-complete";
      case EventKind::ReadServed: return "read-served";
      case EventKind::LocalValueServed: return "local-value-served";
      case EventKind::WordInvalidated: return "word-invalidated";
      case EventKind::WordRevalidated: return "word-revalidated";
      case EventKind::OwnershipTransfer: return "ownership-transfer";
      case EventKind::MessageSent: return "message-sent";
      case EventKind::MessageProcessed: return "message-processed";
      case EventKind::PacketDelivered: return "packet-delivered";
      case EventKind::LinkBusy: return "link-busy";
      case EventKind::PacketDropped: return "packet-dropped";
      case EventKind::Retransmit: return "retransmit";
      case EventKind::ProcRead: return "proc-read";
      case EventKind::ProcWrite: return "proc-write";
      case EventKind::ProcRmwIssue: return "proc-rmw-issue";
      case EventKind::ProcVerify: return "proc-verify";
      case EventKind::ProcFence: return "proc-fence";
      case EventKind::ProcWriteFence: return "proc-write-fence";
      case EventKind::ProcPageLost: return "proc-page-lost";
      case EventKind::ProcStall: return "proc-stall";
      case EventKind::CopyListChanged: return "copy-list-changed";
      case EventKind::NodeCrashed: return "node-crashed";
      case EventKind::EpochSealed: return "epoch-sealed";
    }
    return "?";
}

void
EventStream::addSink(EventSink* sink)
{
    PLUS_ASSERT(sink && count_ < kMaxSinks, "event stream sink slots full");
    sinks_[count_++] = sink;
}

EventRing::EventRing(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity))
{
    events_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void
EventRing::push(const Event& event)
{
    if (events_.size() < capacity_) {
        events_.push_back(event);
    } else {
        events_[next_] = event;
        ++dropped_;
    }
    next_ = next_ + 1 == capacity_ ? 0 : next_ + 1;
    ++recorded_;
}

std::string
EventRing::render(std::size_t newest) const
{
    const std::size_t kept = std::min(events_.size(), newest);
    std::ostringstream os;
    os << "last " << kept << " of " << recorded_ << " events:\n";
    std::size_t skip = events_.size() - kept;
    forEach([&](const Event& e) {
        if (skip > 0) {
            --skip;
            return;
        }
        os << "  [" << e.cycle << "] " << toString(e.kind) << " n";
        if (e.node == kInvalidNode) {
            os << "-";
        } else {
            os << e.node;
        }
        if (e.peer != kInvalidNode) {
            os << " peer=" << e.peer;
        }
        if (e.cls != 0) {
            os << " cls=" << static_cast<unsigned>(e.cls);
        }
        os << " vpn=" << e.vpn << " off=" << e.word;
        if (e.bytes != 0) {
            os << " bytes=" << e.bytes;
        }
        os << " a=" << e.a << " b=" << e.b << "\n";
    });
    return os.str();
}

void
violation(const EventRing& history, const std::string& message)
{
    PLUS_PANIC(kViolationPrefix, message, "\n",
               history.render());
}

} // namespace check
} // namespace plus
