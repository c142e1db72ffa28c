/**
 * @file
 * Unit tests for the cache tag array, MSHRs, and the write buffer.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache_array.hh"
#include "cache/mshr.hh"
#include "cpu/write_buffer.hh"
#include "sim/logging.hh"

namespace persim
{

using cache::CacheArray;
using cache::CacheGeometry;
using cache::CacheLine;
using cache::CoherenceState;

TEST(CacheArray, GeometryMath)
{
    CacheArray arr("a", CacheGeometry{32 * 1024, 4});
    EXPECT_EQ(arr.sets(), 128u);
    EXPECT_EQ(arr.ways(), 4u);
}

TEST(CacheArray, RejectsNonPowerOfTwoSets)
{
    EXPECT_THROW(CacheArray("bad", CacheGeometry{3 * 1024, 4}), SimPanic);
}

TEST(CacheArray, FillAndFind)
{
    CacheArray arr("a", CacheGeometry{4 * 1024, 4});
    EXPECT_EQ(arr.find(0x1000), nullptr);
    CacheLine *victim = arr.victimFor(0x1000, false);
    ASSERT_NE(victim, nullptr);
    EXPECT_FALSE(victim->valid());
    CacheLine &line = arr.fill(*victim, 0x1000, CoherenceState::Shared);
    EXPECT_EQ(arr.find(0x1000), &line);
    EXPECT_EQ(arr.find(0x1020), &line); // same line, different offset
    EXPECT_EQ(line.state(), CoherenceState::Shared);
}

TEST(CacheArray, AddrOfReturnsFilledAddress)
{
    // LLC-shaped: 64 sets x 16 ways, bank-select bits stripped by a
    // set shift of 2. Every address below maps to set 5 of bank 1.
    CacheArray arr("llc", CacheGeometry{64 * 1024, 16}, 2);
    auto addrFor = [](Addr k) {
        const Addr lineNum = (k << (2 + 6)) | (Addr{5} << 2) | 1;
        return (Addr{1} << 40) + lineNum * kLineBytes;
    };
    std::vector<CacheLine *> lines;
    for (Addr k = 0; k < arr.ways(); ++k) {
        const Addr a = addrFor(k);
        ASSERT_EQ(arr.setIndex(a), 5u);
        CacheLine *v = arr.victimFor(a, false);
        ASSERT_NE(v, nullptr);
        ASSERT_FALSE(v->valid());
        lines.push_back(&arr.fill(*v, a, CoherenceState::Shared));
    }
    for (Addr k = 0; k < arr.ways(); ++k) {
        EXPECT_EQ(arr.addrOf(*lines[k]), addrFor(k));
        EXPECT_EQ(arr.find(addrFor(k) + 8), lines[k]);
    }

    // Invalidate one way and refill it with a new address.
    arr.invalidate(*lines[7]);
    EXPECT_EQ(arr.find(addrFor(7)), nullptr);
    const Addr fresh = addrFor(arr.ways() + 3);
    CacheLine *v = arr.victimFor(fresh, false);
    ASSERT_EQ(v, lines[7]);
    arr.fill(*v, fresh, CoherenceState::Exclusive);
    EXPECT_EQ(arr.addrOf(*lines[7]), fresh);
    EXPECT_EQ(arr.find(fresh), lines[7]);
    for (Addr k = 0; k < arr.ways(); ++k) {
        if (k != 7) {
            EXPECT_EQ(arr.addrOf(*lines[k]), addrFor(k));
        }
    }

    // forEachValid hands each line its address.
    unsigned seen = 0;
    arr.forEachValid([&](const CacheLine &line, Addr addr) {
        EXPECT_EQ(addr, arr.addrOf(line));
        EXPECT_EQ(arr.find(addr), &line);
        ++seen;
    });
    EXPECT_EQ(seen, arr.ways());
}

TEST(CacheArray, LruVictimSelection)
{
    // 16 sets, 2 ways: addresses 64*16 apart collide.
    CacheArray arr("a", CacheGeometry{2 * 1024, 2});
    const Addr a = 0x0, b = a + 16 * 64, c = b + 16 * 64;
    arr.fill(*arr.victimFor(a, false), a, CoherenceState::Shared);
    arr.fill(*arr.victimFor(b, false), b, CoherenceState::Shared);
    // Touch a so b becomes LRU.
    arr.touch(*arr.find(a));
    CacheLine *v = arr.victimFor(c, false);
    ASSERT_TRUE(v->valid());
    EXPECT_EQ(arr.addrOf(*v), b);
}

TEST(CacheArray, VictimAvoidsTaggedLines)
{
    CacheArray arr("a", CacheGeometry{2 * 1024, 2});
    const Addr a = 0x0, b = a + 16 * 64, c = b + 16 * 64;
    CacheLine &la = arr.fill(*arr.victimFor(a, false), a,
                             CoherenceState::Shared);
    arr.fill(*arr.victimFor(b, false), b, CoherenceState::Shared);
    la.setTag(0, 5); // LRU but tagged
    CacheLine *v = arr.victimFor(c, true);
    EXPECT_EQ(arr.addrOf(*v), b);
    // Without avoidance, plain LRU picks the tagged line.
    EXPECT_EQ(arr.addrOf(*arr.victimFor(c, false)), a);
}

TEST(CacheArray, VictimPrefersLinesWithoutL1Copies)
{
    CacheArray arr("a", CacheGeometry{2 * 1024, 2});
    const Addr a = 0x0, b = a + 16 * 64, c = b + 16 * 64;
    CacheLine &la = arr.fill(*arr.victimFor(a, false), a,
                             CoherenceState::Shared);
    arr.fill(*arr.victimFor(b, false), b, CoherenceState::Shared);
    la.setOwner(3); // LRU but held by an L1
    EXPECT_EQ(arr.addrOf(*arr.victimFor(c, true)), b);
}

TEST(CacheArray, PinnedLinesAreNeverVictims)
{
    CacheArray arr("a", CacheGeometry{2 * 1024, 2});
    const Addr a = 0x0, b = a + 16 * 64, c = b + 16 * 64;
    CacheLine &la = arr.fill(*arr.victimFor(a, false), a,
                             CoherenceState::Shared);
    CacheLine &lb = arr.fill(*arr.victimFor(b, false), b,
                             CoherenceState::Shared);
    la.setPinned(true);
    EXPECT_EQ(arr.victimFor(c, false), &lb);
    lb.setPinned(true);
    EXPECT_EQ(arr.victimFor(c, false), nullptr);
}

TEST(CacheArray, RandomPolicyPicksValidCandidates)
{
    CacheGeometry geom{2 * 1024, 2};
    geom.policy = cache::ReplacementPolicy::Random;
    CacheArray arr("a", geom);
    const Addr a = 0x0, b = a + 16 * 64, c = b + 16 * 64;
    arr.fill(*arr.victimFor(a, false), a, CoherenceState::Shared);
    arr.fill(*arr.victimFor(b, false), b, CoherenceState::Shared);
    // Over many draws both ways must be picked, never anything else.
    bool sawA = false, sawB = false;
    for (int i = 0; i < 64; ++i) {
        CacheLine *v = arr.victimFor(c, false);
        ASSERT_NE(v, nullptr);
        ASSERT_TRUE(arr.addrOf(*v) == a || arr.addrOf(*v) == b);
        sawA |= arr.addrOf(*v) == a;
        sawB |= arr.addrOf(*v) == b;
    }
    EXPECT_TRUE(sawA);
    EXPECT_TRUE(sawB);
}

TEST(CacheArray, RandomPolicyStillAvoidsTaggedLines)
{
    CacheGeometry geom{2 * 1024, 2};
    geom.policy = cache::ReplacementPolicy::Random;
    CacheArray arr("a", geom);
    const Addr a = 0x0, b = a + 16 * 64, c = b + 16 * 64;
    CacheLine &la = arr.fill(*arr.victimFor(a, false), a,
                             CoherenceState::Shared);
    arr.fill(*arr.victimFor(b, false), b, CoherenceState::Shared);
    la.setTag(0, 3);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(arr.addrOf(*arr.victimFor(c, true)), b);
}

TEST(CacheArray, InvalidateClearsEverything)
{
    CacheLine l;
    l.setState(CoherenceState::Modified);
    l.setDirty(true);
    l.setTag(2, 9);
    l.setOwner(2);
    l.setSharers(0xFF);
    l.setPinned(true);
    l.invalidate();
    EXPECT_FALSE(l.valid());
    EXPECT_FALSE(l.dirty());
    EXPECT_FALSE(l.tagged());
    EXPECT_EQ(l.owner(), kNoCore);
    EXPECT_EQ(l.sharers(), 0u);
    EXPECT_FALSE(l.pinned());
}

TEST(CacheArray, SetShiftStripsBankBits)
{
    // Two banks of a 32-set cache: with setShift=1, addresses that
    // differ only in the bank-select bit map to the same set.
    CacheArray arr("bank", CacheGeometry{4 * 1024, 4}, 1);
    const Addr a = 0x0;
    const Addr sameSet = a + 2 * 64; // line+2 with shift 1 -> set +1
    EXPECT_EQ(arr.setIndex(a), 0u);
    EXPECT_EQ(arr.setIndex(a + 128), 1u);
    (void)sameSet;
}

TEST(Mshr, AllocateMergeRelease)
{
    cache::MshrFile mshrs(2);
    EXPECT_FALSE(mshrs.has(0x100));
    int completions = 0;
    mshrs.allocate(0x100, false,
                   cache::PendingAccess{false, 0, [&] { ++completions; }});
    EXPECT_TRUE(mshrs.has(0x100));
    EXPECT_TRUE(mshrs.has(0x13F)); // same line
    EXPECT_FALSE(mshrs.forWrite(0x100));
    mshrs.merge(0x100,
                cache::PendingAccess{true, 0, [&] { ++completions; }});
    auto q = mshrs.release(0x100);
    EXPECT_FALSE(mshrs.has(0x100));
    ASSERT_EQ(q.size(), 2u);
    EXPECT_FALSE(q[0].isWrite);
    EXPECT_TRUE(q[1].isWrite);
}

TEST(Mshr, CapacityEnforced)
{
    cache::MshrFile mshrs(1);
    mshrs.allocate(0x100, false, cache::PendingAccess{});
    EXPECT_TRUE(mshrs.full());
    EXPECT_THROW(mshrs.allocate(0x200, false, cache::PendingAccess{}),
                 SimPanic);
}

TEST(Mshr, DoubleAllocatePanics)
{
    cache::MshrFile mshrs(4);
    mshrs.allocate(0x100, false, cache::PendingAccess{});
    EXPECT_THROW(mshrs.allocate(0x100, true, cache::PendingAccess{}),
                 SimPanic);
}

TEST(WriteBuffer, FifoOrderAndCapacity)
{
    cpu::WriteBuffer wb(3);
    EXPECT_TRUE(wb.empty());
    wb.push(0x100);
    wb.push(0x200);
    wb.push(0x300);
    EXPECT_TRUE(wb.full());
    EXPECT_EQ(wb.front().addr, 0x100u);
    wb.pop();
    EXPECT_EQ(wb.front().addr, 0x200u);
    EXPECT_FALSE(wb.full());
}

TEST(WriteBuffer, LineContainment)
{
    cpu::WriteBuffer wb(8);
    wb.push(0x100);
    wb.push(0x100); // two stores, same line
    EXPECT_TRUE(wb.containsLine(0x100));
    EXPECT_TRUE(wb.containsLine(0x13C));
    EXPECT_FALSE(wb.containsLine(0x140));
    wb.pop();
    EXPECT_TRUE(wb.containsLine(0x100));
    wb.pop();
    EXPECT_FALSE(wb.containsLine(0x100));
}

TEST(WriteBuffer, OverflowAndUnderflowPanic)
{
    cpu::WriteBuffer wb(1);
    wb.push(0x40);
    EXPECT_THROW(wb.push(0x80), SimPanic);
    wb.pop();
    EXPECT_THROW(wb.pop(), SimPanic);
}

} // namespace persim
