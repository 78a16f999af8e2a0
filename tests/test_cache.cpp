/**
 * @file
 * Unit tests for the processor cache timing model: hits/misses,
 * associativity, LRU replacement, write-through behaviour, and node-bus
 * snooping in both update and invalidate policies.
 */

#include <gtest/gtest.h>

#include "node/cache.hpp"

namespace plus {
namespace node {
namespace {

CostModel
smallCache()
{
    CostModel cost;
    cost.cacheBytes = 256; // 16 lines of 4 words
    cost.cacheLineWords = 4;
    cost.cacheWays = 2; // 8 sets
    return cost;
}

TEST(Cache, ColdMissThenHit)
{
    Cache cache(smallCache());
    EXPECT_FALSE(cache.accessRead(0, 0));
    EXPECT_TRUE(cache.accessRead(0, 0));
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(Cache, WholeLineHitsAfterOneFill)
{
    Cache cache(smallCache());
    cache.accessRead(0, 4);
    EXPECT_TRUE(cache.accessRead(0, 5));
    EXPECT_TRUE(cache.accessRead(0, 6));
    EXPECT_TRUE(cache.accessRead(0, 7));
    EXPECT_FALSE(cache.accessRead(0, 8)); // next line
}

TEST(Cache, DifferentFramesDoNotAlias)
{
    Cache cache(smallCache());
    cache.accessRead(0, 0);
    // Frame 1's line 0 maps to a different global line number.
    EXPECT_FALSE(cache.accessRead(1, 0));
}

TEST(Cache, TwoWaysHoldConflictingLines)
{
    Cache cache(smallCache());
    // Lines 0 and 8 map to the same set (8 sets): both fit (2 ways).
    cache.accessRead(0, 0);
    cache.accessRead(0, 32); // line 8 -> set 0
    EXPECT_TRUE(cache.accessRead(0, 0));
    EXPECT_TRUE(cache.accessRead(0, 32));
}

TEST(Cache, LruEvictsOldest)
{
    Cache cache(smallCache());
    cache.accessRead(0, 0);  // line 0 -> set 0
    cache.accessRead(0, 32); // line 8 -> set 0
    cache.accessRead(0, 0);  // touch line 0 (now MRU)
    cache.accessRead(0, 64); // line 16 -> set 0: evicts line 8
    EXPECT_TRUE(cache.accessRead(0, 0));
    EXPECT_FALSE(cache.accessRead(0, 32));
    EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(Cache, WriteThroughDoesNotAllocate)
{
    Cache cache(smallCache());
    EXPECT_FALSE(cache.accessWrite(0, 0));
    EXPECT_FALSE(cache.accessRead(0, 0)); // still a miss
}

TEST(Cache, WriteUpdatesPresentLine)
{
    Cache cache(smallCache());
    cache.accessRead(0, 0);
    EXPECT_TRUE(cache.accessWrite(0, 1));
}

TEST(Cache, SnoopUpdateKeepsLineValid)
{
    Cache cache(smallCache(), SnoopPolicy::Update);
    cache.accessRead(0, 0);
    cache.snoop(0, 2); // coherence manager wrote word 2 of the line
    EXPECT_TRUE(cache.accessRead(0, 0));
    EXPECT_EQ(cache.stats().snoopUpdates, 1u);
}

TEST(Cache, SnoopInvalidateEvictsLine)
{
    Cache cache(smallCache(), SnoopPolicy::Invalidate);
    cache.accessRead(0, 0);
    cache.snoop(0, 2);
    EXPECT_FALSE(cache.accessRead(0, 0));
    EXPECT_EQ(cache.stats().snoopInvalidates, 1u);
}

TEST(Cache, SnoopOfAbsentLineIsIgnored)
{
    Cache cache(smallCache());
    cache.snoop(3, 100);
    EXPECT_EQ(cache.stats().snoopUpdates, 0u);
}

TEST(Cache, FlushDropsEverything)
{
    Cache cache(smallCache());
    cache.accessRead(0, 0);
    cache.accessRead(1, 0);
    cache.flush();
    EXPECT_FALSE(cache.accessRead(0, 0));
    EXPECT_FALSE(cache.accessRead(1, 0));
}

TEST(Cache, ResidentCountFollowsFillsAndEvictions)
{
    Cache cache(smallCache(), SnoopPolicy::Invalidate);
    cache.accessRead(0, 0); // frame 0, line 0 -> set 0
    EXPECT_EQ(cache.residentLines(0), 1u);
    // Frame 1's lines 0 and 8 also map to set 0 (a page is a multiple
    // of 8 lines) and push frame 0's only line out of both ways.
    cache.accessRead(1, 0);
    cache.accessRead(1, 32);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.residentLines(0), 0u);
    EXPECT_EQ(cache.residentLines(1), 2u);
    cache.snoop(0, 0); // no line of frame 0 left: a no-op
    EXPECT_EQ(cache.stats().snoopInvalidates, 0u);
    EXPECT_TRUE(cache.accessRead(1, 0));
}

TEST(Cache, InvalidatingSnoopDecrementsResidentCount)
{
    Cache cache(smallCache(), SnoopPolicy::Invalidate);
    cache.accessRead(0, 0);
    cache.accessRead(0, 4);
    EXPECT_EQ(cache.residentLines(0), 2u);
    cache.snoop(0, 1);
    EXPECT_EQ(cache.residentLines(0), 1u);
    cache.snoop(0, 1); // already gone
    EXPECT_EQ(cache.residentLines(0), 1u);
    EXPECT_EQ(cache.stats().snoopInvalidates, 1u);
    EXPECT_TRUE(cache.accessRead(0, 4));
}

TEST(Cache, FlushZeroesResidentCounts)
{
    Cache cache(smallCache());
    cache.accessRead(0, 0);
    cache.accessRead(2, 0);
    cache.flush();
    EXPECT_EQ(cache.residentLines(0), 0u);
    EXPECT_EQ(cache.residentLines(2), 0u);
    cache.snoop(0, 0);
    EXPECT_EQ(cache.stats().snoopUpdates, 0u);
    EXPECT_FALSE(cache.accessRead(2, 0));
    EXPECT_EQ(cache.residentLines(2), 1u);
}

TEST(Cache, PaperGeometry)
{
    // 32 Kbyte, 4-word lines, 2 ways: 2048 lines, 1024 sets.
    CostModel cost;
    Cache cache(cost);
    EXPECT_EQ(cache.ways(), 2u);
    EXPECT_EQ(cache.sets(), 1024u);
}

} // namespace
} // namespace node
} // namespace plus
