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

/**
 * Victims picked in one set of an LLC-shaped array (64 sets x 16 ways)
 * over 72 fills, with touches, persist tags, L1 owners and sharers,
 * pinned lines, a way claimed (pinned while invalid) across a victim
 * scan, and invalidations that leave holes among the ways. Each entry
 * is the key of the evicted line, or -1 when the victim was an invalid
 * way. The expected sequences were recorded with every way of the set
 * in one dense array; the home + overflow layout must reproduce them,
 * RNG draws included.
 */
std::vector<int>
victimTrace(cache::ReplacementPolicy policy, bool avoidTagged)
{
    CacheGeometry geom{64 * 1024, 16};
    geom.policy = policy;
    CacheArray arr("llc", geom);
    // Line k of set 5.
    auto addrFor = [](int k) {
        return (static_cast<Addr>(k) * 64 + 5) * kLineBytes;
    };
    auto keyOf = [&](const CacheLine &l) {
        return static_cast<int>((arr.addrOf(l) / kLineBytes - 5) / 64);
    };
    std::vector<int> trace;
    std::vector<int> resident; // keys in fill order
    CacheLine *claimed = nullptr;
    int claimedKey = -1;
    std::vector<int> pinnedKeys;
    for (int k = 0; k < 72; ++k) {
        CacheLine *v = arr.victimFor(addrFor(k), avoidTagged);
        if (claimed) {
            // A way claimed last step stayed pinned and invalid across
            // this step's victim scan; fill it now.
            claimed->setPinned(false);
            arr.fill(*claimed, addrFor(claimedKey), CoherenceState::Shared);
            resident.push_back(claimedKey);
            claimed = nullptr;
        }
        if (!v) {
            trace.push_back(-2);
            continue;
        }
        if (v->valid()) {
            const int key = keyOf(*v);
            trace.push_back(key);
            std::erase(resident, key);
            arr.invalidate(*v);
        } else {
            trace.push_back(-1);
        }
        if (k % 11 == 3) {
            v->setPinned(true);
            claimed = v;
            claimedKey = k;
            continue;
        }
        arr.fill(*v, addrFor(k), CoherenceState::Shared);
        resident.push_back(k);
        const std::size_t n = resident.size();
        CacheLine &mine = *arr.find(addrFor(k));
        if (k % 3 == 0 && n > 2)
            arr.touch(*arr.find(addrFor(resident[n / 3])));
        if (k % 5 == 1)
            mine.setTag(static_cast<CoreId>(k % 4), static_cast<EpochId>(k));
        if (k % 5 == 3 && n > 4)
            arr.find(addrFor(resident[n / 2]))->clearTag();
        if (k % 7 == 2)
            mine.setOwner(static_cast<CoreId>(k % 4));
        if (k % 4 == 0 && n > 1)
            arr.find(addrFor(resident[n - 2]))->setSharers(0x5);
        if (k % 13 == 12 && n > 3)
            arr.find(addrFor(resident[1]))->setOwner(kNoCore);
        if (k % 6 == 5 && n > 3) {
            const int key = resident[n / 4];
            arr.find(addrFor(key))->setPinned(true);
            pinnedKeys.push_back(key);
        }
        if (k % 6 == 2 && !pinnedKeys.empty()) {
            if (CacheLine *p = arr.find(addrFor(pinnedKeys.front())))
                p->setPinned(false);
            pinnedKeys.erase(pinnedKeys.begin());
        }
        if (k % 9 == 8 && n > 6) {
            const int key = resident[(k * 7) % n];
            CacheLine *hole = arr.find(addrFor(key));
            if (!hole->pinned()) {
                arr.invalidate(*hole);
                std::erase(resident, key);
            }
        }
    }
    return trace;
}

TEST(CacheArray, LruVictimSequenceAvoidingTaggedLines)
{
    const std::vector<int> expected = {
        -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
        0, -1, 8, 4, 10, 12, 5, 13, 17, 18, -1, 20, 21, 22, 24, 25, 28, 29,
        32, -1, 33, 34, 26, 35, 36, 38, 40, 42, -1, 45, 3, 7, 48, 49, 50,
        23, 52, -1, 53, 54, 30, 57, 39, 58, 60, 16, -1, 62, 64, 44, 47, 67,
        68, 55, 69};
    EXPECT_EQ(victimTrace(cache::ReplacementPolicy::Lru, true), expected);
}

TEST(CacheArray, LruVictimSequence)
{
    const std::vector<int> expected = {
        -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
        0, -1, 1, 8, 3, 4, 10, 5, 13, 15, -1, 6, 18, 7, 19, 21, 12, 11, 22,
        -1, 14, 26, 27, 16, 28, 20, 31, 33, -1, 24, 23, 34, 36, 37, 30, 39,
        29, -1, 40, 43, 42, 45, 35, 46, 38, 49, -1, 51, 52, 44, 55, 57, 54,
        47, 58};
    EXPECT_EQ(victimTrace(cache::ReplacementPolicy::Lru, false), expected);
}

TEST(CacheArray, RandomVictimSequence)
{
    const std::vector<int> avoiding = {
        -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
        8, -1, 10, 18, 20, 0, 17, 12, 22, 4, -1, 5, 25, 29, 24, 28, 14, 21,
        33, -1, 34, 35, 32, 38, 40, 26, 36, 42, -1, 45, 3, 7, 48, 49, 50,
        44, 52, -1, 54, 53, 30, 57, 39, 58, 60, 55, -1, 62, 46, 64, 27, 67,
        68, 63, 69};
    const std::vector<int> plain = {
        -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
        9, -1, 14, 19, 11, 15, 4, 17, 12, 7, -1, 5, 24, 1, 29, 28, 32, 33,
        0, -1, 31, 36, 30, 23, 39, 41, 6, 38, -1, 45, 37, 46, 18, 3, 40, 25,
        10, -1, 54, 49, 47, 22, 52, 59, 58, 53, -1, 55, 48, 50, 62, 67, 61,
        63, 35};
    EXPECT_EQ(victimTrace(cache::ReplacementPolicy::Random, true), avoiding);
    EXPECT_EQ(victimTrace(cache::ReplacementPolicy::Random, false), plain);
}

namespace
{
/** Fill the victim way for @p addr (which must be invalid). */
CacheLine &
fillFresh(CacheArray &arr, Addr addr)
{
    CacheLine *v = arr.victimFor(addr, false);
    EXPECT_NE(v, nullptr);
    EXPECT_FALSE(v->valid());
    return arr.fill(*v, addr, CoherenceState::Shared);
}

/** Address of line @p k of set @p set in a 16-way array of @p sets
 * sets. */
Addr
lineIn(unsigned sets, unsigned set, unsigned k)
{
    return (static_cast<Addr>(k) * sets + set) * kLineBytes;
}
} // namespace

TEST(CacheArray, OverflowBlockOnFifthLine)
{
    CacheArray arr("llc", CacheGeometry{64 * 1024, 16});
    EXPECT_EQ(arr.overflowSets(), 0u);
    // Four lines in each of two sets, and churn within those four ways,
    // allocate nothing.
    for (unsigned set : {3u, 9u}) {
        for (unsigned k = 0; k < CacheArray::kHomeWays; ++k)
            fillFresh(arr, lineIn(64, set, k));
    }
    arr.invalidate(*arr.find(lineIn(64, 3, 2)));
    fillFresh(arr, lineIn(64, 3, 7));
    EXPECT_EQ(arr.overflowSets(), 0u);

    // The fifth line allocates exactly one block; more lines in the
    // same set reuse it.
    CacheLine &fifth = fillFresh(arr, lineIn(64, 3, 8));
    EXPECT_EQ(arr.overflowSets(), 1u);
    EXPECT_EQ(arr.find(lineIn(64, 3, 8)), &fifth);
    EXPECT_EQ(arr.addrOf(fifth), lineIn(64, 3, 8));
    for (unsigned k = 9; k < 16; ++k)
        fillFresh(arr, lineIn(64, 3, k));
    EXPECT_EQ(arr.overflowSets(), 1u);

    // An overflow line invalidates and refills in place.
    arr.invalidate(fifth);
    EXPECT_EQ(arr.find(lineIn(64, 3, 8)), nullptr);
    EXPECT_EQ(&fillFresh(arr, lineIn(64, 3, 20)), &fifth);
    EXPECT_EQ(arr.overflowSets(), 1u);

    // The L1 shape (4 ways) keeps every way at home.
    CacheArray l1("l1", CacheGeometry{32 * 1024, 4});
    for (unsigned k = 0; k < 12; ++k) {
        CacheLine *v = l1.victimFor(lineIn(128, 1, k), false);
        if (v->valid())
            l1.invalidate(*v);
        l1.fill(*v, lineIn(128, 1, k), CoherenceState::Shared);
    }
    EXPECT_EQ(l1.overflowSets(), 0u);
}

TEST(CacheArray, FillIntoTheWrongSetPanics)
{
    CacheArray arr("llc", CacheGeometry{64 * 1024, 16});
    // A home way of set 5 filled with a set-6 address.
    CacheLine *home = arr.victimFor(lineIn(64, 5, 0), false);
    ASSERT_NE(home, nullptr);
    EXPECT_THROW(arr.fill(*home, lineIn(64, 6, 0), CoherenceState::Shared),
                 SimPanic);

    // An overflow way of set 5 filled with a set-6 address, also when
    // set 6 has an overflow block of its own.
    for (unsigned set : {5u, 6u}) {
        for (unsigned k = 0; k < CacheArray::kHomeWays; ++k)
            fillFresh(arr, lineIn(64, set, k));
    }
    fillFresh(arr, lineIn(64, 6, 4));
    CacheLine *over = arr.victimFor(lineIn(64, 5, 4), false);
    ASSERT_NE(over, nullptr);
    EXPECT_EQ(arr.overflowSets(), 2u);
    EXPECT_THROW(arr.fill(*over, lineIn(64, 6, 5), CoherenceState::Shared),
                 SimPanic);
    EXPECT_EQ(arr.find(lineIn(64, 6, 5)), nullptr);
    // The right set still fills it.
    EXPECT_EQ(&arr.fill(*over, lineIn(64, 5, 4), CoherenceState::Shared),
              over);
}

TEST(CacheArray, LinePointersSurviveOverflowGrowth)
{
    // 2048 sets x 16 ways, the shape of a 2 MiB bank.
    constexpr unsigned kSets = 2048;
    CacheArray arr("llc", CacheGeometry{kSets * 16 * kLineBytes, 16});
    std::vector<CacheLine *> held;
    for (unsigned k = 0; k < 6; ++k)
        held.push_back(&fillFresh(arr, lineIn(kSets, 0, k)));
    held.front()->setPinned(true);
    held.back()->setTag(1, 7);

    // 2000 other sets grow blocks, over 60 more pages of them.
    for (unsigned set = 1; set <= 2000; ++set) {
        for (unsigned k = 0; k <= CacheArray::kHomeWays; ++k)
            fillFresh(arr, lineIn(kSets, set, k));
    }
    EXPECT_EQ(arr.overflowSets(), 2001u);

    for (unsigned k = 0; k < held.size(); ++k) {
        EXPECT_EQ(arr.find(lineIn(kSets, 0, k)), held[k]);
        EXPECT_EQ(arr.addrOf(*held[k]), lineIn(kSets, 0, k));
    }
    EXPECT_TRUE(held.front()->pinned());
    EXPECT_TRUE(held.back()->tagged());
    for (unsigned set = 1; set <= 2000; set += 97) {
        const CacheLine *l = arr.find(lineIn(kSets, set, 4));
        ASSERT_NE(l, nullptr);
        EXPECT_EQ(arr.addrOf(*l), lineIn(kSets, set, 4));
    }
}

TEST(CacheArray, ForEachValidVisitsSetsInWayOrder)
{
    CacheArray arr("llc", CacheGeometry{64 * 1024, 16});
    // Set 9 gets 7 lines (ways 0-6), set 2 gets 3, set 40 gets 5; then
    // set 9's way 1 is refilled with a new line.
    for (unsigned k = 0; k < 7; ++k)
        fillFresh(arr, lineIn(64, 9, k));
    for (unsigned k = 0; k < 3; ++k)
        fillFresh(arr, lineIn(64, 2, k));
    for (unsigned k = 0; k < 5; ++k)
        fillFresh(arr, lineIn(64, 40, k));
    arr.invalidate(*arr.find(lineIn(64, 9, 1)));
    fillFresh(arr, lineIn(64, 9, 30));

    const std::vector<Addr> expected = {
        lineIn(64, 2, 0),  lineIn(64, 2, 1),  lineIn(64, 2, 2),
        lineIn(64, 9, 0),  lineIn(64, 9, 30), lineIn(64, 9, 2),
        lineIn(64, 9, 3),  lineIn(64, 9, 4),  lineIn(64, 9, 5),
        lineIn(64, 9, 6),  lineIn(64, 40, 0), lineIn(64, 40, 1),
        lineIn(64, 40, 2), lineIn(64, 40, 3), lineIn(64, 40, 4)};
    std::vector<Addr> seen;
    arr.forEachValid([&](const CacheLine &line, Addr addr) {
        EXPECT_EQ(arr.find(addr), &line);
        seen.push_back(addr);
    });
    EXPECT_EQ(seen, expected);
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
