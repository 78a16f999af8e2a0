/**
 * @file
 * Fundamental types and constants shared by every PLUS subsystem.
 *
 * PLUS (Bisiani & Ravishankar, ISCA 1990) is a distributed shared-memory
 * multiprocessor. Throughout the code base we follow the paper's units:
 * the unit of memory access and coherence is one 32-bit word, the unit of
 * replication is a 4 Kbyte page, and time is measured in processor cycles
 * (40 ns in the 1990 implementation; the simulator only counts cycles).
 */

#ifndef PLUS_COMMON_TYPES_HPP_
#define PLUS_COMMON_TYPES_HPP_

#include <cstdint>
#include <limits>
#include <string>

namespace plus {

/** Simulated time in processor cycles. */
using Cycles = std::uint64_t;

/** A 32-bit memory word, the unit of access and coherence. */
using Word = std::uint32_t;

/** Byte address in the single shared virtual address space. */
using Addr = std::uint64_t;

/** Identifier of a node (processor + memory + coherence manager). */
using NodeId = std::uint32_t;

/** Identifier of a physical page frame within one node's local memory. */
using FrameId = std::uint32_t;

/** Virtual page number (virtual address divided by the page size). */
using Vpn = std::uint64_t;

/** Identifier of a simulated application thread. */
using ThreadId = std::uint32_t;

/** Sentinel for "no node". */
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/** Sentinel for "no frame". */
inline constexpr FrameId kInvalidFrame = std::numeric_limits<FrameId>::max();

/** Sentinel for "no address". */
inline constexpr Addr kInvalidAddr = std::numeric_limits<Addr>::max();

/** Page size in bytes (dictated by the off-the-shelf CPU's MMU: 4 Kbytes). */
inline constexpr Addr kPageBytes = 4096;

/** log2(kPageBytes), for shifting. */
inline constexpr unsigned kPageShift = 12;

/** Bytes per 32-bit word. */
inline constexpr Addr kWordBytes = 4;

/** Words per page (1024 in the 1990 implementation). */
inline constexpr Addr kPageWords = kPageBytes / kWordBytes;

/**
 * Top-bit flag used by the interlocked operations (Table 3-1): queue slots
 * are "full" when the top bit is set, `fetch-and-set` sets it, and
 * `cond-xchng` tests it. Payload values are therefore at most 31 bits.
 */
inline constexpr Word kTopBit = 0x80000000u;

/** Mask selecting the 31-bit payload of a flagged word. */
inline constexpr Word kPayloadMask = 0x7fffffffu;

/**
 * Value returned by degraded-mode accesses to a *lost* page — one whose
 * every physical copy died with a fail-stop node crash (see
 * core::RecoveryManager). Reads and interlocked results complete with
 * this sentinel instead of retrying forever; writes are dropped.
 */
inline constexpr Word kPageLostValue = 0xDEADDEADu;

/**
 * Global physical page address: a <node-id, page-id> pair, generated
 * directly by the memory-mapping mechanism of the processor (Section 2.3).
 */
struct PhysPage {
    NodeId node = kInvalidNode;
    FrameId frame = kInvalidFrame;

    bool valid() const { return node != kInvalidNode; }
    bool operator==(const PhysPage&) const = default;
};

/** A physical word location: a page plus a word offset within it. */
struct PhysAddr {
    PhysPage page;
    /** Word offset within the page, in [0, kPageWords). */
    Addr wordOffset = 0;

    bool valid() const { return page.valid(); }
    bool operator==(const PhysAddr&) const = default;
};

/** Extract the virtual page number of a byte address. */
inline constexpr Vpn
pageOf(Addr addr)
{
    return addr >> kPageShift;
}

/** Extract the word offset within the page of a byte address. */
inline constexpr Addr
wordOffsetOf(Addr addr)
{
    return (addr & (kPageBytes - 1)) / kWordBytes;
}

/** First byte address of a virtual page. */
inline constexpr Addr
pageBase(Vpn vpn)
{
    return static_cast<Addr>(vpn) << kPageShift;
}

/** True if the byte address is 32-bit-word aligned. */
inline constexpr bool
wordAligned(Addr addr)
{
    return (addr & (kWordBytes - 1)) == 0;
}

/** Render a physical page as "n3.f17" for diagnostics. */
std::string toString(const PhysPage& page);

/** Render a physical address as "n3.f17+o5" for diagnostics. */
std::string toString(const PhysAddr& addr);

} // namespace plus

#endif // PLUS_COMMON_TYPES_HPP_
