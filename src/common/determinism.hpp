/**
 * @file
 * The determinism contract, as code.
 *
 * Two runs of the same configuration and seed must produce
 * byte-identical observable output — events, packets, telemetry,
 * checker traces, bench text. `scripts/pluslint.py` enforces the contract
 * statically (rules R1–R5, see docs/STATIC_ANALYSIS.md); this header
 * provides the two annotation macros the linter keys on and denseSlot(),
 * the accessor for tables keyed by a dense id.
 */

#ifndef PLUS_COMMON_DETERMINISM_HPP_
#define PLUS_COMMON_DETERMINISM_HPP_

#include <cstddef>

/**
 * Marks a translation unit as part of the deterministic simulation core.
 * Purely declarative — pluslint treats the annotation as documentation
 * that the file opted into strict checking (which is the default for all
 * of src/ anyway). Place at namespace scope near the top of the file.
 */
#define PLUS_DETERMINISTIC                                                   \
    static_assert(true, "deterministic simulation core")

/**
 * Marks a translation unit as host-facing: it may read wall-clock time or
 * host entropy (rule R2 is waived for the whole file). Use for bench
 * timing, logging front-ends, and other code whose output never feeds the
 * simulation. The reason string is mandatory and shows up in the lint
 * report when the waiver is exercised.
 */
#define PLUS_HOST_ONLY(reason)                                               \
    static_assert(true, "host-only file: " reason)

namespace plus {

/**
 * Entry @p id of @p table, growing the table with default entries on
 * demand. A dense id (node, VPN, frame) indexes a vector, which iterates
 * in key order, so no hash-map walk has to be sorted (rule R1).
 */
template <typename Table>
typename Table::reference
denseSlot(Table& table, std::size_t id)
{
    if (id >= table.size()) {
        table.resize(id + 1);
    }
    return table[id];
}

} // namespace plus

#endif // PLUS_COMMON_DETERMINISM_HPP_
