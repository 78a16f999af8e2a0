#include "telemetry/export.hpp"

#include <map>
#include <ostream>
#include <unordered_map>

#include "common/table.hpp"
#include "net/network.hpp"
#include "node/processor.hpp"
#include "proto/rmw.hpp"
#include "telemetry/json.hpp"

namespace plus {
namespace telemetry {

namespace {

using check::EventKind;

/** Separate pid range for the per-link tracks. */
constexpr unsigned kLinkPidBase = 1000;

const char*
msgClassName(std::uint8_t cls)
{
    if (cls < static_cast<std::uint8_t>(proto::MsgType::NumTypes)) {
        return proto::toString(static_cast<proto::MsgType>(cls));
    }
    if (cls == net::kLinkAckClass) {
        return "link-ack";
    }
    return "unclassified";
}

const char*
stallName(std::uint8_t kind)
{
    if (kind < static_cast<std::uint8_t>(node::StallKind::NumKinds)) {
        return node::toString(static_cast<node::StallKind>(kind));
    }
    return "?";
}

const char*
rmwName(std::uint8_t op)
{
    return proto::toString(static_cast<proto::RmwOp>(op));
}

/** Emitter for one trace-event object; keeps the comma state. */
class EventWriter
{
  public:
    explicit EventWriter(std::ostream& os) : os_(os) {}

    /** Begin one event object; pairs with fields() calls then close(). */
    std::ostream&
    open()
    {
        os_ << (first_ ? "\n  {" : ",\n  {");
        first_ = false;
        return os_;
    }

    void close() { os_ << "}"; }

  private:
    std::ostream& os_;
    bool first_ = true;
};

void
writeProcessName(EventWriter& w, unsigned pid, const std::string& name,
                 int sort_index)
{
    w.open() << "\"ph\":\"M\",\"pid\":" << pid
             << ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":"
             << jsonQuoted(name) << "}";
    w.close();
    w.open() << "\"ph\":\"M\",\"pid\":" << pid
             << ",\"tid\":0,\"name\":\"process_sort_index\","
                "\"args\":{\"sort_index\":"
             << sort_index << "}";
    w.close();
}

void
writeThreadName(EventWriter& w, unsigned pid, unsigned tid,
                const std::string& name)
{
    w.open() << "\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
             << ",\"name\":\"thread_name\",\"args\":{\"name\":"
             << jsonQuoted(name) << "}";
    w.close();
}

} // namespace

void
writePerfettoTrace(std::ostream& os, const Telemetry& telemetry,
                   unsigned nodes)
{
    // The viewer needs every referenced track named, and flow events need
    // the per-chain occurrence counts, so scan the retained ring once
    // before emitting anything.
    std::map<std::uint64_t, unsigned> linkPid; // (from<<32|to) -> pid
    std::unordered_map<std::uint64_t, unsigned> chainApplies;
    telemetry.events().forEach([&](const check::Event& e) {
        if (e.kind == EventKind::LinkBusy) {
            const std::uint64_t key =
                (static_cast<std::uint64_t>(e.node) << 32) | e.peer;
            linkPid.emplace(key, 0);
        } else if (e.kind == EventKind::ChainApplied) {
            chainApplies[e.a] += 1;
        }
    });
    unsigned next_pid = kLinkPidBase;
    for (auto& [key, pid] : linkPid) {
        (void)key;
        pid = next_pid++;
    }

    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    EventWriter w(os);

    for (unsigned n = 0; n < nodes; ++n) {
        writeProcessName(w, n, "node " + std::to_string(n),
                         static_cast<int>(n));
        writeThreadName(w, n, 0, "processor");
        writeThreadName(w, n, 1, "coherence manager");
    }
    for (const auto& [key, pid] : linkPid) {
        const NodeId from = static_cast<NodeId>(key >> 32);
        const NodeId to = static_cast<NodeId>(key & 0xffffffffu);
        writeProcessName(w, pid,
                         "link n" + std::to_string(from) + "->n" +
                             std::to_string(to),
                         static_cast<int>(pid));
        writeThreadName(w, pid, 0, "occupancy");
    }

    std::unordered_map<std::uint64_t, unsigned> chainSeen;
    std::uint64_t asyncId = 0;
    telemetry.events().forEach([&](const check::Event& e) {
        const Cycles dur = e.b > 0 ? e.b : 1; // LinkBusy, ProcStall
        switch (e.kind) {
          case EventKind::MessageSent:
            w.open() << "\"ph\":\"i\",\"s\":\"t\",\"pid\":" << e.node
                     << ",\"tid\":1,\"ts\":" << e.cycle
                     << ",\"name\":\"send " << msgClassName(e.cls)
                     << "\",\"cat\":\"msg\",\"args\":{\"dst\":" << e.peer
                     << ",\"bytes\":" << e.bytes << ",\"vpn\":" << e.vpn
                     << "}";
            w.close();
            break;
          case EventKind::PacketDelivered:
            w.open() << "\"ph\":\"i\",\"s\":\"t\",\"pid\":" << e.node
                     << ",\"tid\":1,\"ts\":" << e.cycle
                     << ",\"name\":\"recv " << msgClassName(e.cls)
                     << "\",\"cat\":\"msg\",\"args\":{\"src\":" << e.peer
                     << ",\"latency\":" << e.a
                     << ",\"queueing\":" << e.b << "}";
            w.close();
            break;
          case EventKind::LinkBusy: {
            const std::uint64_t key =
                (static_cast<std::uint64_t>(e.node) << 32) | e.peer;
            w.open() << "\"ph\":\"X\",\"pid\":" << linkPid[key]
                     << ",\"tid\":0,\"ts\":" << e.a
                     << ",\"dur\":" << dur << ",\"name\":\""
                     << msgClassName(e.cls)
                     << "\",\"cat\":\"link\",\"args\":{\"bytes\":"
                     << e.bytes << "}";
            w.close();
            break;
          }
          case EventKind::PendingWrite: {
            const std::string id = std::to_string(asyncId++);
            w.open() << "\"ph\":\"b\",\"pid\":" << e.node
                     << ",\"tid\":1,\"ts\":" << e.b
                     << ",\"id\":\"" << id
                     << "\",\"name\":\"pending write\",\"cat\":"
                        "\"pending\",\"args\":{\"tag\":"
                     << e.a << ",\"vpn\":" << e.vpn
                     << ",\"word\":" << e.word << "}";
            w.close();
            w.open() << "\"ph\":\"e\",\"pid\":" << e.node
                     << ",\"tid\":1,\"ts\":" << e.cycle << ",\"id\":\""
                     << id
                     << "\",\"name\":\"pending write\",\"cat\":"
                        "\"pending\"";
            w.close();
            break;
          }
          case EventKind::ChainApplied: {
            w.open() << "\"ph\":\"X\",\"pid\":" << e.node
                     << ",\"tid\":1,\"ts\":" << e.cycle
                     << ",\"dur\":1,\"name\":\"chain apply"
                     << ((e.cls & check::kChainAtMaster) ? " (master)" : "")
                     << "\",\"cat\":\"chain\",\"args\":{\"chain\":"
                     << e.a << ",\"vpn\":" << e.vpn << ",\"word\":"
                     << e.word << ",\"words\":" << e.bytes
                     << ",\"originator\":" << e.peer << "}";
            w.close();
            // Flow arrows only make sense between >= 2 applies.
            if (chainApplies[e.a] >= 2) {
                const unsigned seen = chainSeen[e.a]++;
                const char* ph =
                    seen == 0 ? "s"
                              : (seen + 1 == chainApplies[e.a] ? "f"
                                                               : "t");
                w.open() << "\"ph\":\"" << ph << "\",\"pid\":" << e.node
                         << ",\"tid\":1,\"ts\":" << e.cycle
                         << ",\"id\":" << e.a
                         << ",\"name\":\"update chain\",\"cat\":"
                            "\"chain\"";
                if (ph[0] == 'f') {
                    os << ",\"bp\":\"e\"";
                }
                w.close();
            }
            break;
          }
          case EventKind::WriteIssued:
            w.open() << "\"ph\":\"i\",\"s\":\"t\",\"pid\":" << e.node
                     << ",\"tid\":1,\"ts\":" << e.cycle
                     << ",\"name\":\"write issued"
                     << (e.cls ? " (rmw)" : "")
                     << "\",\"cat\":\"write\",\"args\":{\"tag\":" << e.a
                     << ",\"vpn\":" << e.vpn << ",\"word\":" << e.word
                     << "}";
            w.close();
            break;
          case EventKind::FenceComplete:
            w.open() << "\"ph\":\"i\",\"s\":\"t\",\"pid\":" << e.node
                     << ",\"tid\":0,\"ts\":" << e.cycle
                     << ",\"name\":\"fence complete\",\"cat\":\"sync\"";
            w.close();
            break;
          case EventKind::ProcStall:
            w.open() << "\"ph\":\"X\",\"pid\":" << e.node
                     << ",\"tid\":0,\"ts\":" << e.a
                     << ",\"dur\":" << dur << ",\"name\":\"stall: "
                     << stallName(e.cls) << "\",\"cat\":\"stall\"";
            w.close();
            break;
          case EventKind::ProcRmwIssue:
            w.open() << "\"ph\":\"i\",\"s\":\"t\",\"pid\":" << e.node
                     << ",\"tid\":0,\"ts\":" << e.cycle
                     << ",\"name\":\"issue " << rmwName(e.cls)
                     << "\",\"cat\":\"sync\",\"args\":{\"vpn\":" << e.vpn
                     << ",\"word\":" << e.word << "}";
            w.close();
            break;
          case EventKind::ProcVerify:
            w.open() << "\"ph\":\"i\",\"s\":\"t\",\"pid\":" << e.node
                     << ",\"tid\":0,\"ts\":" << e.cycle
                     << ",\"name\":\"verify\",\"cat\":\"sync\"";
            w.close();
            break;
          case EventKind::PacketDropped: {
            // Injected faults render on the dropping link's track when
            // that link ever serialized traffic; node-level faults (and
            // drops on an otherwise idle link) land on the source node.
            const std::uint64_t key =
                (static_cast<std::uint64_t>(e.node) << 32) | e.peer;
            const auto link = linkPid.find(key);
            const unsigned pid =
                link != linkPid.end() ? link->second : e.node;
            const unsigned tid = link != linkPid.end() ? 0 : 1;
            w.open() << "\"ph\":\"i\",\"s\":\"t\",\"pid\":" << pid
                     << ",\"tid\":" << tid << ",\"ts\":" << e.cycle
                     << ",\"name\":\"drop ("
                     << check::toString(
                            static_cast<check::DropReason>(e.a))
                     << ")\",\"cat\":\"fault\",\"args\":{\"class\":\""
                     << msgClassName(e.cls) << "\",\"to\":" << e.peer
                     << ",\"bytes\":" << e.bytes << "}";
            w.close();
            break;
          }
          case EventKind::Retransmit:
            w.open() << "\"ph\":\"i\",\"s\":\"t\",\"pid\":" << e.node
                     << ",\"tid\":1,\"ts\":" << e.cycle
                     << ",\"name\":\"retransmit\",\"cat\":\"fault\","
                        "\"args\":{\"to\":"
                     << e.peer << ",\"seq\":" << e.a
                     << ",\"attempt\":" << e.b << "}";
            w.close();
            break;
          case EventKind::WordInvalidated:
            w.open() << "\"ph\":\"i\",\"s\":\"t\",\"pid\":" << e.node
                     << ",\"tid\":1,\"ts\":" << e.cycle
                     << ",\"name\":\"invalidate\",\"cat\":\"proto\","
                        "\"args\":{\"vpn\":"
                     << e.vpn << ",\"word\":" << e.word << "}";
            w.close();
            break;
          case EventKind::WordRevalidated:
            w.open() << "\"ph\":\"i\",\"s\":\"t\",\"pid\":" << e.node
                     << ",\"tid\":1,\"ts\":" << e.cycle
                     << ",\"name\":\"revalidate\",\"cat\":\"proto\","
                        "\"args\":{\"vpn\":"
                     << e.vpn << ",\"word\":" << e.word << "}";
            w.close();
            break;
          case EventKind::OwnershipTransfer:
            w.open() << "\"ph\":\"i\",\"s\":\"t\",\"pid\":" << e.node
                     << ",\"tid\":1,\"ts\":" << e.cycle
                     << ",\"name\":\"ownership handoff\",\"cat\":"
                        "\"proto\",\"args\":{\"vpn\":"
                     << e.vpn << ",\"from\":" << e.a << ",\"to\":"
                     << e.peer << "}";
            w.close();
            break;
          default:
            break; // never pushed into the tracer's ring
        }
    });

    os << "\n]}\n";
}

void
writeStatsJson(std::ostream& os,
               const MetricsRegistry::Snapshot& snapshot,
               const Telemetry* telemetry)
{
    os << "{\"metrics\":";
    MetricsRegistry::writeJson(os, snapshot);
    os << ",\"traffic\":{\"perPage\":[";
    bool first = true;
    if (telemetry) {
        for (const auto& [vpn, t] : telemetry->pageTraffic()) {
            os << (first ? "" : ",") << "{\"vpn\":" << vpn
               << ",\"messages\":" << t.messages << ",\"bytes\":"
               << t.bytes << ",\"updates\":" << t.updates << "}";
            first = false;
        }
    }
    os << "],\"perLink\":[";
    first = true;
    if (telemetry) {
        for (const auto& [key, t] : telemetry->linkTraffic()) {
            os << (first ? "" : ",") << "{\"from\":" << (key >> 32)
               << ",\"to\":" << (key & 0xffffffffu) << ",\"messages\":"
               << t.messages << ",\"bytes\":" << t.bytes
               << ",\"busyCycles\":" << t.busyCycles << "}";
            first = false;
        }
    }
    os << "]}}\n";
}

std::string
renderTrafficTables(const Telemetry& telemetry)
{
    std::string out;
    {
        TablePrinter table("traffic by page");
        table.setHeader({"vpn", "messages", "bytes", "updates"});
        for (const auto& [vpn, t] : telemetry.pageTraffic()) {
            table.addRow({vpn == 0 ? "(none)" : std::to_string(vpn),
                          TablePrinter::num(t.messages),
                          TablePrinter::num(t.bytes),
                          TablePrinter::num(t.updates)});
        }
        out += table.toString();
    }
    {
        TablePrinter table("traffic by link");
        table.setHeader({"link", "messages", "bytes", "busy cycles"});
        for (const auto& [key, t] : telemetry.linkTraffic()) {
            table.addRow({"n" + std::to_string(key >> 32) + "->n" +
                              std::to_string(key & 0xffffffffu),
                          TablePrinter::num(t.messages),
                          TablePrinter::num(t.bytes),
                          TablePrinter::num(t.busyCycles)});
        }
        out += table.toString();
    }
    return out;
}

} // namespace telemetry
} // namespace plus
