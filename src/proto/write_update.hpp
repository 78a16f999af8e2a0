/**
 * @file
 * PLUS's non-demand write-update protocol (PAPER.md Sections 2.3, 3.1)
 * as a Protocol strategy. This is the pre-refactor coherence manager's
 * behaviour moved verbatim: every write applies at the master first and
 * flows down the ordered copy-list as an UpdateReq carrying the value;
 * the tail acknowledges the originator; reads are always served from
 * the local copy when one exists (copies are never stale). Simulations
 * are byte-identical to the monolithic manager across every engine
 * backend — the determinism goldens predate this refactor.
 */

#ifndef PLUS_PROTO_WRITE_UPDATE_HPP_
#define PLUS_PROTO_WRITE_UPDATE_HPP_

#include "proto/protocol.hpp"

namespace plus {
namespace proto {

/** The paper's write-update protocol; see file comment. */
class WriteUpdateProtocol final : public Protocol
{
  public:
    using Protocol::Protocol;

    CoherenceProtocol
    kind() const override
    {
        return CoherenceProtocol::WriteUpdate;
    }

    void writeAtMaster(Vpn vpn, FrameId frame, Addr word_offset, Word value,
                       NodeId originator, WriteTag tag) override;
    void propagateRmwEffects(Vpn vpn, FrameId frame,
                             const WordWrites& writes,
                             NodeId originator,
                             WriteTag write_tag) override;
    void chainStop(const UpdateReq& msg) override;
    std::optional<Word> serveLocalRead(ReadWaiter& read,
                                       FrameId frame) override;
    void serveReadReq(const ReadReq& msg) override;
    void applyCopyBatch(const PageCopyData& msg) override;
};

} // namespace proto
} // namespace plus

#endif // PLUS_PROTO_WRITE_UPDATE_HPP_
