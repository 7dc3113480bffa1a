/** @file Unit tests for support/align.hh. */

#include <gtest/gtest.h>

#include <vector>

#include "support/align.hh"

namespace
{

using namespace lsched;

TEST(Align, IsPowerOfTwo)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(1ull << 40));
    EXPECT_FALSE(isPowerOfTwo((1ull << 40) + 1));
    EXPECT_TRUE(isPowerOfTwo(1ull << 63));
}

TEST(Align, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(4), 2u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(floorLog2(1ull << 63), 63u);
}

TEST(Align, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(4), 2u);
    EXPECT_EQ(ceilLog2(5), 3u);
}

TEST(Align, RoundUpPowerOfTwo)
{
    EXPECT_EQ(roundUpPowerOfTwo(0), 1u);
    EXPECT_EQ(roundUpPowerOfTwo(1), 1u);
    EXPECT_EQ(roundUpPowerOfTwo(3), 4u);
    EXPECT_EQ(roundUpPowerOfTwo(4), 4u);
    EXPECT_EQ(roundUpPowerOfTwo(1000), 1024u);
}

TEST(Align, RoundDownPowerOfTwo)
{
    EXPECT_EQ(roundDownPowerOfTwo(1), 1u);
    EXPECT_EQ(roundDownPowerOfTwo(3), 2u);
    EXPECT_EQ(roundDownPowerOfTwo(1023), 512u);
    EXPECT_EQ(roundDownPowerOfTwo(1024), 1024u);
}

TEST(Align, AlignUpDown)
{
    EXPECT_EQ(alignUp(0, 64), 0u);
    EXPECT_EQ(alignUp(1, 64), 64u);
    EXPECT_EQ(alignUp(64, 64), 64u);
    EXPECT_EQ(alignUp(65, 64), 128u);
    EXPECT_EQ(alignDown(63, 64), 0u);
    EXPECT_EQ(alignDown(64, 64), 64u);
    EXPECT_EQ(alignDown(127, 64), 64u);
}

TEST(Align, PrefetchLinesLeavesMemoryUntouched)
{
    // A hint only: unaligned ranges, ranges ending mid-line and empty
    // ranges, for reading and for writing, change no byte.
    std::vector<unsigned char> buf(3 * kCacheLineBytes + 7, 0xab);
    prefetchLines(buf.data() + 5, buf.size() - 5, /*forWrite=*/true);
    prefetchLines(buf.data() + 1, 2 * kCacheLineBytes, false);
    prefetchLines(buf.data(), 0, true);
    for (const unsigned char b : buf)
        EXPECT_EQ(b, 0xab);
}

} // namespace
