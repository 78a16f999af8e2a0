/**
 * @file
 * The per-node hardware tables the coherence manager consults on every
 * write (Section 2.3): for each locally replicated physical page, the
 * master table identifies the global physical address of the master copy,
 * and the next-copy table identifies the successor, if any, of the local
 * copy along the copy-list. Both are maintained by the operating system.
 */

#ifndef PLUS_MEM_COHERENCE_TABLES_HPP_
#define PLUS_MEM_COHERENCE_TABLES_HPP_

#include <optional>
#include <vector>

#include "common/determinism.hpp"
#include "common/panic.hpp"
#include "common/types.hpp"

namespace plus {
namespace mem {

/**
 * master + next-copy tables of one node, indexed by local frame (frames
 * are allocated low-first, so the tables are dense). An invalid
 * PhysPage marks an empty entry.
 */
class CoherenceTables
{
  public:
    /** Set the master-copy address for a local frame. */
    void
    setMaster(FrameId frame, PhysPage master)
    {
        denseSlot(rows_, frame).master = master;
    }

    /** Set (or clear, with nullopt) the successor of a local frame. */
    void
    setNextCopy(FrameId frame, std::optional<PhysPage> next)
    {
        denseSlot(rows_, frame).next = next.value_or(PhysPage{});
    }

    /**
     * Drop both entries when the local copy is deleted: the frame is
     * reused by the next allocation.
     */
    void
    erase(FrameId frame)
    {
        if (frame < rows_.size()) {
            rows_[frame] = Row{};
        }
    }

    /** Master copy of the page held in @p frame. @pre entry exists. */
    PhysPage
    master(FrameId frame) const
    {
        PLUS_ASSERT(knows(frame), "no master-table entry for frame ", frame);
        return rows_[frame].master;
    }

    bool
    knows(FrameId frame) const
    {
        return frame < rows_.size() && rows_[frame].master.valid();
    }

    /** Successor of the local copy in @p frame, if any. */
    std::optional<PhysPage>
    nextCopy(FrameId frame) const
    {
        if (frame >= rows_.size() || !rows_[frame].next.valid()) {
            return std::nullopt;
        }
        return rows_[frame].next;
    }

  private:
    struct Row {
        PhysPage master;
        PhysPage next;
    };

    std::vector<Row> rows_;
};

} // namespace mem
} // namespace plus

#endif // PLUS_MEM_COHERENCE_TABLES_HPP_
