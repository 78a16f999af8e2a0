/**
 * @file
 * Virtual-memory mapping structures (Section 2.4).
 *
 * All nodes share one virtual address space, but each node maintains its
 * own page table mapping a virtual page to the most convenient physical
 * copy (usually the closest). Local tables are filled lazily: on a miss
 * the exception handler consults the centralized PageDirectory, which
 * records the copy-list of every legal virtual page.
 */

#ifndef PLUS_MEM_PAGE_TABLE_HPP_
#define PLUS_MEM_PAGE_TABLE_HPP_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/determinism.hpp"
#include "common/panic.hpp"
#include "common/types.hpp"
#include "mem/copy_list.hpp"

namespace plus {
namespace mem {

/**
 * Per-node virtual-to-physical map with lazy fill, indexed by VPN (VPNs
 * come from one bump counter, so the table is dense).
 */
class PageTable
{
  public:
    /** Translate; nullopt means a local page-table miss. */
    std::optional<PhysPage>
    lookup(Vpn vpn) const
    {
        if (!contains(vpn)) {
            return std::nullopt;
        }
        return map_[vpn];
    }

    /** Install or update a mapping (exception handler / OS action). */
    void
    install(Vpn vpn, PhysPage page)
    {
        PLUS_ASSERT(page.valid(), "install of an invalid page for vpn ", vpn);
        denseSlot(map_, vpn) = page;
        ++fills_;
    }

    /** Remove a mapping, e.g. when its copy is deleted ("TLB flush"). */
    void
    invalidate(Vpn vpn)
    {
        if (contains(vpn)) {
            map_[vpn] = PhysPage{};
            ++invalidations_;
        }
    }

    bool
    contains(Vpn vpn) const
    {
        return vpn < map_.size() && map_[vpn].valid();
    }

    std::uint64_t fills() const { return fills_; }
    std::uint64_t invalidations() const { return invalidations_; }

  private:
    /** An invalid PhysPage marks a miss. */
    std::vector<PhysPage> map_;
    std::uint64_t fills_ = 0;
    std::uint64_t invalidations_ = 0;
};

/**
 * Centralized table of legal mappings: one CopyList per virtual page,
 * indexed by VPN. Maintained by the operating system (the Machine in
 * this simulator).
 */
class PageDirectory
{
  public:
    /** Register a new virtual page with its master copy. */
    void
    create(Vpn vpn, PhysPage master)
    {
        PLUS_ASSERT(!contains(vpn), "vpn ", vpn, " already exists");
        denseSlot(map_, vpn).emplace(master);
    }

    /** Destroy a virtual page entirely. */
    void
    destroy(Vpn vpn)
    {
        PLUS_ASSERT(contains(vpn), "destroy of unknown vpn ", vpn);
        map_[vpn].reset();
    }

    bool
    contains(Vpn vpn) const
    {
        return vpn < map_.size() && map_[vpn].has_value();
    }

    const CopyList&
    copyList(Vpn vpn) const
    {
        PLUS_ASSERT(contains(vpn), "unknown vpn ", vpn);
        return *map_[vpn];
    }

    CopyList&
    copyList(Vpn vpn)
    {
        PLUS_ASSERT(contains(vpn), "unknown vpn ", vpn);
        return *map_[vpn];
    }

    /**
     * One past the highest VPN ever created: every legal page lies in
     * [0, vpnLimit()), and a walk in that range is in ascending order.
     */
    Vpn vpnLimit() const { return map_.size(); }

  private:
    std::vector<std::optional<CopyList>> map_;
};

} // namespace mem
} // namespace plus

#endif // PLUS_MEM_PAGE_TABLE_HPP_
