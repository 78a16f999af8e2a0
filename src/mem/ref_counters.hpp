/**
 * @file
 * Hardware reference counters supporting competitive replication
 * (Section 2.4): the coherence manager counts the node's references to
 * each remote page and interrupts the node processor when a counter
 * overflows, letting software decide whether the cumulative cost of
 * remote references justifies creating a local copy.
 */

#ifndef PLUS_MEM_REF_COUNTERS_HPP_
#define PLUS_MEM_REF_COUNTERS_HPP_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/determinism.hpp"
#include "common/panic.hpp"
#include "common/types.hpp"

namespace plus {
namespace mem {

/** Per-node remote-reference counters with overflow interrupt. */
class RefCounters
{
  public:
    /** Handler invoked when a page's counter reaches the threshold. */
    using OverflowHandler = std::function<void(Vpn, std::uint64_t count)>;

    explicit RefCounters(std::uint64_t threshold) : threshold_(threshold)
    {
        PLUS_ASSERT(threshold_ > 0, "overflow threshold must be positive");
    }

    void setOverflowHandler(OverflowHandler h) { handler_ = std::move(h); }

    /**
     * Record one remote reference to @p vpn. Fires the overflow handler
     * exactly when the count reaches the threshold, then resets the
     * counter (re-arming it, as a hardware saturating counter would be
     * cleared by the interrupt handler).
     */
    void
    recordRemoteRef(Vpn vpn)
    {
        std::uint64_t& count = denseSlot(counts_, vpn);
        ++count;
        ++total_;
        if (count >= threshold_) {
            count = 0;
            if (handler_) {
                handler_(vpn, threshold_);
            }
        }
    }

    std::uint64_t
    count(Vpn vpn) const
    {
        return vpn < counts_.size() ? counts_[vpn] : 0;
    }

    /** Re-arm the counters with a new threshold (OS policy change). */
    void
    setThreshold(std::uint64_t threshold)
    {
        PLUS_ASSERT(threshold > 0, "overflow threshold must be positive");
        threshold_ = threshold;
    }

    std::uint64_t totalRemoteRefs() const { return total_; }
    std::uint64_t threshold() const { return threshold_; }

    /**
     * Every page's count, indexed by VPN (for measurement-driven
     * placement); pages past the end were never referenced.
     */
    const std::vector<std::uint64_t>& counts() const { return counts_; }

  private:
    std::uint64_t threshold_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    OverflowHandler handler_;
};

} // namespace mem
} // namespace plus

#endif // PLUS_MEM_REF_COUNTERS_HPP_
