/**
 * @file
 * Timing model of the processor's primary cache (32 Kbyte, 4-word lines
 * in the 1990 implementation).
 *
 * Only *local* physical memory is cached; remote references always go
 * through the coherence manager. Because replicated pages must use a
 * write-through policy (all writes must be visible to the coherence
 * manager, Section 2.3), the cache stores no dirty data: the model tracks
 * line presence for timing, while word values always live in LocalMemory.
 * A snooping protocol on the node bus keeps the cache coherent whenever
 * the coherence manager writes local memory; the paper's write-update
 * snoop keeps the line valid, and an invalidating snoop is provided for
 * ablation.
 */

#ifndef PLUS_NODE_CACHE_HPP_
#define PLUS_NODE_CACHE_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/panic.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace plus {
namespace node {

/** How the node-bus snoop treats a line written by the coherence manager. */
enum class SnoopPolicy {
    Update,     ///< keep the line valid (the paper's design)
    Invalidate, ///< evict the line (forces a re-fetch; ablation)
};

/** Set-associative, LRU, presence-only cache model. */
class Cache
{
  public:
    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t snoopUpdates = 0;
        std::uint64_t snoopInvalidates = 0;
    };

    /** Stats exported as sums over the nodes that model a cache. */
    static constexpr StatRow<Stats> kStatRows[] = {
        {"cache.hits", &Stats::hits},
        {"cache.misses", &Stats::misses},
        {"cache.evictions", &Stats::evictions},
        {"cache.snoopUpdates", &Stats::snoopUpdates},
        {"cache.snoopInvalidates", &Stats::snoopInvalidates},
    };

    Cache(const CostModel& cost, SnoopPolicy policy = SnoopPolicy::Update);

    /**
     * Look up the line containing (frame, word offset) for a read,
     * filling it on a miss. @return true on a hit.
     */
    bool accessRead(FrameId frame, Addr word_offset);

    /**
     * Write-through store: updates the line if present (no write
     * allocation on a miss). @return true if the line was present.
     */
    bool accessWrite(FrameId frame, Addr word_offset);

    /** Node-bus snoop for a word written by the coherence manager. */
    void snoop(FrameId frame, Addr word_offset);

    /** Drop all lines (e.g. after a page is remapped). */
    void flush();

    const Stats& stats() const { return stats_; }

    unsigned sets() const { return sets_; }
    unsigned ways() const { return ways_; }

    /** Lines of @p frame currently resident. */
    unsigned
    residentLines(FrameId frame) const
    {
        return frame < residents_.size() ? residents_[frame] : 0;
    }

  private:
    /** Tag of an empty way. */
    static constexpr std::uint32_t kNoLine = 0xffffffffu;
    /** find()'s result when the line is not resident. */
    static constexpr std::size_t kMiss = ~std::size_t{0};

    /** Global line number of (frame, word offset); also the tag. */
    std::uint32_t
    lineNumber(FrameId frame, Addr word_offset) const
    {
        const std::uint64_t line =
            static_cast<std::uint64_t>(frame) * linesPerPage_ +
            word_offset / lineWords_;
        PLUS_ASSERT(line < kNoLine, "frame ", frame, " beyond the cache tags");
        return static_cast<std::uint32_t>(line);
    }

    /** Way index of @p line in tags_/stamps_, or kMiss. */
    std::size_t find(std::uint32_t line) const;
    void insert(FrameId frame, std::uint32_t line);

    unsigned lineWords_;
    unsigned linesPerPage_;
    unsigned sets_;
    unsigned ways_;
    SnoopPolicy policy_;
    // One entry per way, sets_ * ways_, set-major: 12 bytes per line.
    std::vector<std::uint32_t> tags_;  ///< line number, or kNoLine
    std::vector<std::uint64_t> stamps_; ///< LRU stamp of the last touch
    /** Resident lines per frame, so a snoop of an uncached frame is free. */
    std::vector<std::uint32_t> residents_;
    std::uint64_t clock_ = 0;
    Stats stats_;
};

} // namespace node
} // namespace plus

#endif // PLUS_NODE_CACHE_HPP_
