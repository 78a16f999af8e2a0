#include "workloads/production.hpp"

#include <algorithm>
#include <array>

#include "common/panic.hpp"
#include "core/context.hpp"
#include "core/workq.hpp"

namespace plus {
namespace workloads {

namespace {

using core::Context;
using core::Machine;
using core::WorkQueue;

/** Shared-memory image of the rule base. */
struct ProductionImage {
    unsigned nodes = 0;
    std::uint32_t perNodeFacts = 0;
    std::uint32_t perNodeRules = 0;

    /** Per node: fact flag words (top bit = asserted). */
    std::vector<Addr> flagBase;
    /** Per node: rule fired words (top bit = fired). */
    std::vector<Addr> firedBase;
    /** Per node: (offset, count) per local fact into the match index. */
    std::vector<Addr> idxRowBase;
    /** Per node: match entries (other antecedent, consequent, rule id). */
    std::vector<Addr> idxDataBase;
    /** Per node: byte size of the match-entry region. */
    std::vector<std::size_t> idxDataBytes;

    Addr pending = 0;

    NodeId factOwner(std::uint32_t f) const { return f / perNodeFacts; }
    std::uint32_t factIndex(std::uint32_t f) const
    {
        return f % perNodeFacts;
    }
    NodeId ruleOwner(std::uint32_t r) const { return r / perNodeRules; }
    std::uint32_t ruleIndex(std::uint32_t r) const
    {
        return r % perNodeRules;
    }
    Addr flagAddr(std::uint32_t f) const
    {
        return flagBase[factOwner(f)] + 4 * Addr{factIndex(f)};
    }
    Addr firedAddr(std::uint32_t r) const
    {
        return firedBase[ruleOwner(r)] + 4 * Addr{ruleIndex(r)};
    }
    Addr idxRowAddr(std::uint32_t f) const
    {
        return idxRowBase[factOwner(f)] + 8 * Addr{factIndex(f)};
    }
};

ProductionImage
buildImage(Machine& machine, const RuleBase& base)
{
    const unsigned nodes = machine.nodeCount();
    ProductionImage img;
    img.nodes = nodes;
    img.perNodeFacts = (base.facts + nodes - 1) / nodes;
    img.perNodeRules =
        (static_cast<std::uint32_t>(base.rules.size()) + nodes - 1) /
        nodes;

    img.flagBase.resize(nodes);
    img.firedBase.resize(nodes);
    img.idxRowBase.resize(nodes);
    img.idxDataBase.resize(nodes);
    img.idxDataBytes.resize(nodes);

    // Match index: every rule appears under both of its antecedents.
    std::vector<std::vector<std::array<Word, 3>>> entries(base.facts);
    for (std::uint32_t r = 0; r < base.rules.size(); ++r) {
        const Rule& rule = base.rules[r];
        entries[rule.a].push_back({rule.b, rule.c, r});
        if (rule.b != rule.a) {
            entries[rule.b].push_back({rule.a, rule.c, r});
        }
    }

    for (NodeId n = 0; n < nodes; ++n) {
        const std::uint32_t first_fact = n * img.perNodeFacts;
        const std::uint32_t fact_count =
            first_fact >= base.facts
                ? 0
                : std::min(img.perNodeFacts, base.facts - first_fact);

        img.flagBase[n] = machine.alloc(
            std::max<std::size_t>(1, fact_count) * 4, n);
        img.firedBase[n] =
            machine.alloc(std::size_t{img.perNodeRules} * 4, n);
        img.idxRowBase[n] = machine.alloc(
            std::max<std::size_t>(1, fact_count) * 8, n);

        std::size_t words = 0;
        for (std::uint32_t i = 0; i < fact_count; ++i) {
            words += 3 * entries[first_fact + i].size();
        }
        img.idxDataBytes[n] = std::max<std::size_t>(4, words * 4);
        img.idxDataBase[n] = machine.alloc(img.idxDataBytes[n], n);

        std::size_t cursor = 0;
        for (std::uint32_t i = 0; i < fact_count; ++i) {
            const std::uint32_t f = first_fact + i;
            machine.poke(img.idxRowBase[n] + 8 * Addr{i},
                         static_cast<Word>(cursor / 3));
            machine.poke(img.idxRowBase[n] + 8 * Addr{i} + 4,
                         static_cast<Word>(entries[f].size()));
            for (const auto& e : entries[f]) {
                machine.poke(img.idxDataBase[n] + 4 * cursor, e[0]);
                machine.poke(img.idxDataBase[n] + 4 * (cursor + 1), e[1]);
                machine.poke(img.idxDataBase[n] + 4 * (cursor + 2), e[2]);
                cursor += 3;
            }
        }
    }

    img.pending = machine.alloc(4, 0);
    for (std::uint32_t f : base.initialFacts) {
        machine.poke(img.flagAddr(f), kTopBit);
    }
    machine.poke(img.pending,
                 static_cast<Word>(base.initialFacts.size()));
    return img;
}

void
replicateImage(Machine& machine, const ProductionImage& img,
               unsigned replication)
{
    if (replication <= 1) {
        return;
    }
    const net::Topology& topo = machine.network().topology();
    for (NodeId n = 0; n < img.nodes; ++n) {
        const std::vector<NodeId> peers = topo.nearestPeers(n);
        const unsigned extra = std::min<unsigned>(
            replication - 1, static_cast<unsigned>(peers.size()));
        for (unsigned i = 0; i < extra; ++i) {
            // The match index is read-mostly: the natural target.
            machine.replicateRange(img.idxRowBase[n],
                                   std::size_t{img.perNodeFacts} * 8,
                                   peers[i]);
            machine.replicateRange(img.idxDataBase[n],
                                   img.idxDataBytes[n], peers[i]);
        }
    }
    machine.settle();
}

void
productionWorker(Context& ctx, const ProductionImage& img, WorkQueue& wq,
                 const ProductionConfig& cfg, NodeId self,
                 const RuleBase& base, std::uint64_t& matches,
                 std::uint64_t& firings)
{
    std::vector<std::uint32_t> overflow;
    if (self == 0) {
        for (std::uint32_t f : base.initialFacts) {
            wq.push(ctx, img.factOwner(f) % wq.lanes(), f);
        }
    }

    Cycles backoff = 64;
    unsigned empty_polls = 0;
    Word done_debt = 0;
    while (true) {
        while (!overflow.empty() &&
               wq.tryPush(ctx, self, overflow.back())) {
            overflow.pop_back();
        }
        const unsigned scan =
            (empty_polls % 4 == 3) ? ~0u : wq.cheapLanes(self);
        auto item = wq.popAny(ctx, self, scan);
        if (!item && !overflow.empty()) {
            item = overflow.back();
            overflow.pop_back();
        }
        if (!item) {
            if (done_debt > 0) {
                ctx.fadd(img.pending, static_cast<Word>(-done_debt));
                done_debt = 0;
            }
            if (empty_polls % 4 == 3 && ctx.read(img.pending) == 0) {
                break;
            }
            ++empty_polls;
            ctx.pause(backoff);
            backoff = std::min<Cycles>(backoff * 2, 2048);
            continue;
        }
        empty_polls = 0;
        backoff = 64;

        const auto f = static_cast<std::uint32_t>(*item);
        const Addr row = img.idxRowAddr(f);
        const Word offset = ctx.read(row);
        const Word count = ctx.read(row + 4);
        const Addr data =
            img.idxDataBase[img.factOwner(f)] + 12 * Addr{offset};

        Word pushes = 0;
        std::vector<std::uint32_t> to_push;
        for (Word e = 0; e < count; ++e) {
            const Word other = ctx.read(data + 12 * Addr{e});
            const Word consequent = ctx.read(data + 12 * Addr{e} + 4);
            const Word rule = ctx.read(data + 12 * Addr{e} + 8);
            ctx.compute(cfg.computePerMatch);
            ++matches;

            // Both antecedents present? (Flag pages are single-copy, so
            // this read is served by the master and cannot be stale.)
            if (!(ctx.read(img.flagAddr(other)) & kTopBit)) {
                continue;
            }
            // Fire the rule exactly once.
            if (ctx.fetchSet(img.firedAddr(rule)) & kTopBit) {
                continue;
            }
            ++firings;
            // Assert the consequent; propagate only on first assertion.
            if (!(ctx.fetchSet(img.flagAddr(consequent)) & kTopBit)) {
                ++pushes;
                to_push.push_back(consequent);
            }
        }

        if (pushes > 0) {
            ctx.fadd(img.pending, pushes);
            for (std::uint32_t c : to_push) {
                if (!wq.tryPush(ctx, self, c)) {
                    overflow.push_back(c);
                }
            }
        }
        ++done_debt;
        if (done_debt >= 8) {
            ctx.fadd(img.pending, static_cast<Word>(-done_debt));
            done_debt = 0;
        }
    }
}

} // namespace

RuleBase
makeRuleBase(std::uint32_t facts, std::uint32_t rules,
             std::uint32_t initial, Xoshiro256& rng)
{
    PLUS_ASSERT(facts >= 8 && initial >= 2 && initial < facts,
                "degenerate rule base");
    RuleBase base;
    base.facts = facts;
    for (std::uint32_t i = 0; i < initial; ++i) {
        base.initialFacts.push_back(
            static_cast<std::uint32_t>(rng.below(facts)));
    }
    std::sort(base.initialFacts.begin(), base.initialFacts.end());
    base.initialFacts.erase(std::unique(base.initialFacts.begin(),
                                        base.initialFacts.end()),
                            base.initialFacts.end());

    std::uint32_t last_consequent = base.initialFacts.front();
    for (std::uint32_t r = 0; r < rules; ++r) {
        Rule rule;
        if (r % 5 < 2) {
            // Chain rule: keep the cascade alive.
            rule.a = last_consequent;
            rule.b = base.initialFacts[r % base.initialFacts.size()];
            rule.c = static_cast<std::uint32_t>(rng.below(facts));
            last_consequent = rule.c;
        } else {
            rule.a = static_cast<std::uint32_t>(rng.below(facts));
            rule.b = static_cast<std::uint32_t>(rng.below(facts));
            rule.c = static_cast<std::uint32_t>(rng.below(facts));
        }
        base.rules.push_back(rule);
    }
    return base;
}

std::vector<bool>
closure(const RuleBase& base)
{
    std::vector<bool> present(base.facts, false);
    std::vector<bool> fired(base.rules.size(), false);
    for (std::uint32_t f : base.initialFacts) {
        present[f] = true;
    }
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t r = 0; r < base.rules.size(); ++r) {
            if (!fired[r] && present[base.rules[r].a] &&
                present[base.rules[r].b]) {
                fired[r] = true;
                if (!present[base.rules[r].c]) {
                    present[base.rules[r].c] = true;
                }
                changed = true;
            }
        }
    }
    return present;
}

ProductionResult
runProduction(core::Machine& machine, const RuleBase& base,
              const ProductionConfig& cfg)
{
    const unsigned nodes = machine.nodeCount();
    ProductionImage img = buildImage(machine, base);
    replicateImage(machine, img, cfg.replication);

    std::vector<NodeId> lanes(nodes);
    for (NodeId n = 0; n < nodes; ++n) {
        lanes[n] = n;
    }
    WorkQueue wq = WorkQueue::create(machine, lanes, cfg.replication);

    std::uint64_t matches = 0;
    std::uint64_t firings = 0;
    for (NodeId n = 0; n < nodes; ++n) {
        machine.spawn(n, [&, n](Context& ctx) {
            productionWorker(ctx, img, wq, cfg, n, base, matches,
                             firings);
        });
    }
    const Cycles start = machine.now();
    const core::MachineReport baseline = machine.report();
    machine.run();

    ProductionResult result;
    result.elapsed = machine.now() - start;
    result.matches = matches;
    result.firings = firings;
    result.report = machine.report() - baseline;

    const std::vector<bool> expected = closure(base);
    result.correct = true;
    for (std::uint32_t f = 0; f < base.facts; ++f) {
        const bool got =
            (machine.peek(img.flagAddr(f)) & kTopBit) != 0;
        if (got != expected[f]) {
            result.correct = false;
            break;
        }
    }
    return result;
}

ProductionResult
runProduction(core::Machine& machine, const ProductionConfig& cfg)
{
    Xoshiro256 rng(cfg.seed);
    const RuleBase base =
        makeRuleBase(cfg.facts, cfg.rules, cfg.initialFacts, rng);
    return runProduction(machine, base, cfg);
}

} // namespace workloads
} // namespace plus
