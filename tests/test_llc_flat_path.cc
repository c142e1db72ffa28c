/**
 * @file
 * Tests for the flattened LLC request path: the open-addressed
 * FlatAddrMap and NodePool containers, the packed CacheLine encoding,
 * the checked transaction lookup, the pin-waiter lists, and the
 * epoch-flush edge cases that ride on them.
 */

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/flat_table.hh"
#include "exp/stats_export.hh"
#include "model/system.hh"
#include "persist/persist_controller.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

#include "script_workload.hh"

namespace persim
{

using exp::sumStat;
using cache::CacheArray;
using cache::CacheGeometry;
using cache::CacheLine;
using cache::CoherenceState;
using cache::FlatAddrMap;
using cache::ListRef;
using cache::NodePool;
using model::PersistencyModel;
using model::SimResult;
using model::System;
using model::SystemConfig;
using persist::BarrierKind;
using test::Script;

namespace
{

constexpr Addr kBase = Addr{1} << 32;

} // namespace

// ---------------------------------------------------------------------
// FlatAddrMap
// ---------------------------------------------------------------------

TEST(FlatAddrMap, InsertFindErase)
{
    FlatAddrMap<int> map;
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(0x40), nullptr);
    map.insertOrFind(0x40) = 7;
    EXPECT_EQ(map.size(), 1u);
    ASSERT_NE(map.find(0x40), nullptr);
    EXPECT_EQ(*map.find(0x40), 7);
    // insertOrFind on a present key returns the existing value.
    EXPECT_EQ(map.insertOrFind(0x40), 7);
    EXPECT_EQ(map.size(), 1u);
    EXPECT_TRUE(map.erase(0x40));
    EXPECT_FALSE(map.erase(0x40));
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(0x40), nullptr);
}

TEST(FlatAddrMap, GrowthPreservesEntries)
{
    FlatAddrMap<std::uint64_t> map(16);
    const std::size_t initialCap = map.capacity();
    for (Addr i = 0; i < 200; ++i)
        map.insertOrFind(i * kLineBytes) = i;
    EXPECT_GT(map.capacity(), initialCap);
    EXPECT_EQ(map.size(), 200u);
    for (Addr i = 0; i < 200; ++i) {
        const std::uint64_t *v = map.find(i * kLineBytes);
        ASSERT_NE(v, nullptr) << "lost key " << i;
        EXPECT_EQ(*v, i);
    }
}

TEST(FlatAddrMap, ChurnMatchesReferenceMap)
{
    // Random insert/erase churn in a deliberately crowded table: every
    // surviving key must stay findable (backward-shift deletion must
    // repair probe chains), every erased key must stay gone.
    FlatAddrMap<std::uint64_t> map(16);
    std::unordered_map<Addr, std::uint64_t> ref;
    std::mt19937_64 rng(42);
    for (int step = 0; step < 20000; ++step) {
        const Addr key = (rng() % 512) * kLineBytes;
        if (rng() % 3 == 0) {
            EXPECT_EQ(map.erase(key), ref.erase(key) > 0);
        } else {
            const std::uint64_t val = rng();
            map.insertOrFind(key) = val;
            ref[key] = val;
        }
    }
    EXPECT_EQ(map.size(), ref.size());
    for (const auto &[key, val] : ref) {
        const std::uint64_t *got = map.find(key);
        ASSERT_NE(got, nullptr) << "lost key 0x" << std::hex << key;
        EXPECT_EQ(*got, val);
    }
    std::size_t seen = 0;
    map.forEach([&](Addr key, const std::uint64_t &val) {
        ++seen;
        auto it = ref.find(key);
        ASSERT_NE(it, ref.end());
        EXPECT_EQ(val, it->second);
    });
    EXPECT_EQ(seen, ref.size());
}

// ---------------------------------------------------------------------
// NodePool + ListRef
// ---------------------------------------------------------------------

TEST(NodePool, FifoListAndReuse)
{
    NodePool<int> pool;
    ListRef list;
    EXPECT_TRUE(list.empty());
    for (int i = 1; i <= 4; ++i)
        list.pushBack(pool, pool.alloc(int{i}));
    EXPECT_EQ(pool.live(), 4u);
    std::vector<int> drained;
    while (!list.empty()) {
        const std::uint32_t n = list.popFront(pool);
        drained.push_back(pool.at(n));
        pool.release(n);
    }
    EXPECT_EQ(drained, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(pool.live(), 0u);
    const std::size_t footprint = pool.allocated();
    // Freed nodes are recycled: further traffic grows nothing.
    for (int round = 0; round < 8; ++round) {
        ListRef l2;
        for (int i = 0; i < 4; ++i)
            l2.pushBack(pool, pool.alloc(int{i}));
        while (!l2.empty())
            pool.release(l2.popFront(pool));
    }
    EXPECT_EQ(pool.allocated(), footprint);
}

// ---------------------------------------------------------------------
// Packed CacheLine
// ---------------------------------------------------------------------

TEST(CacheLinePacked, FitsInHalfAHostLine)
{
    EXPECT_LE(sizeof(CacheLine), 32u);
}

TEST(CacheLinePacked, FlagBitsAreIndependent)
{
    CacheLine l;
    l.setState(CoherenceState::Modified);
    l.setDirty(true);
    l.setPinned(true);
    EXPECT_EQ(l.state(), CoherenceState::Modified);
    EXPECT_TRUE(l.dirty());
    EXPECT_TRUE(l.pinned());
    l.setDirty(false);
    EXPECT_EQ(l.state(), CoherenceState::Modified);
    EXPECT_FALSE(l.dirty());
    EXPECT_TRUE(l.pinned());
    l.setState(CoherenceState::Shared);
    EXPECT_TRUE(l.pinned());
    EXPECT_FALSE(l.dirty());
    l.setPinned(false);
    EXPECT_EQ(l.state(), CoherenceState::Shared);
}

TEST(CacheLinePacked, CoreIdSentinelsRoundTrip)
{
    CacheLine l;
    EXPECT_EQ(l.owner(), kNoCore);
    l.setOwner(static_cast<CoreId>(kMaxCores - 1));
    EXPECT_EQ(l.owner(), kMaxCores - 1);
    l.setOwner(kNoCore);
    EXPECT_EQ(l.owner(), kNoCore);

    EXPECT_FALSE(l.tagged());
    l.setTag(static_cast<CoreId>(kMaxCores - 1), 7);
    EXPECT_TRUE(l.tagged());
    EXPECT_EQ(l.epochCore(), kMaxCores - 1);
    EXPECT_EQ(l.epochId(), 7u);
    l.clearTag();
    EXPECT_FALSE(l.tagged());
    EXPECT_EQ(l.epochCore(), kNoCore);
    EXPECT_EQ(l.epochId(), kNoEpoch);
}

TEST(CacheLinePacked, LruVictimSurvivesStampWrap)
{
    // 16 sets, 2 ways. Stamp a just below the 32-bit wrap and b just
    // above it: b is more recent despite the smaller raw value, so the
    // wrap-aware comparison must evict a. A plain < would evict b.
    CacheArray arr("a", CacheGeometry{2 * 1024, 2});
    const Addr a = 0x0, b = a + 16 * 64, c = b + 16 * 64;
    CacheLine &la = arr.fill(*arr.victimFor(a, false), a,
                             CoherenceState::Shared);
    CacheLine &lb = arr.fill(*arr.victimFor(b, false), b,
                             CoherenceState::Shared);
    la.setLruStamp(0xFFFFFFF8u);
    lb.setLruStamp(5u); // wrapped, newer
    CacheLine *v = arr.victimFor(c, false);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v, &la);
}

// ---------------------------------------------------------------------
// Checked transaction lookup and construction-time core ceiling
// ---------------------------------------------------------------------

TEST(LlcBankFlat, ActiveTxnLookupPanicsWithBankAndAddress)
{
    System sys(SystemConfig::smallTest(2));
    try {
        sys.bank(0).activeTxnFor(kBase);
        FAIL() << "expected SimPanic";
    } catch (const SimPanic &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("llc[0]"), std::string::npos) << what;
        EXPECT_NE(what.find("no active transaction"), std::string::npos)
            << what;
        EXPECT_NE(what.find("100000000"), std::string::npos) << what;
    }
}

TEST(PersistControllerGuard, RejectsMoreCoresThanTheSharerMask)
{
    EventQueue eq;
    persist::BarrierConfig bc;
    EXPECT_THROW(persist::PersistController("pc", eq, bc, kMaxCores + 1),
                 SimPanic);
    EXPECT_NO_THROW(
        persist::PersistController("pc", eq, bc, kMaxCores));
}

// ---------------------------------------------------------------------
// Pin-waiter lists
// ---------------------------------------------------------------------

TEST(LlcBankFlat, PinWaitersWakeInFifoOrder)
{
    System sys(SystemConfig::smallTest(2));
    auto &bank = sys.bank(0);
    std::vector<int> order;
    bank.testAddPinWaiter(kBase, [&] { order.push_back(1); });
    bank.testAddPinWaiter(kBase, [&] { order.push_back(2); });
    bank.testAddPinWaiter(kBase, [&] { order.push_back(3); });
    EXPECT_EQ(bank.testPinWaiters(kBase), 3u);
    // Waiter-only entries must not count as busy lines.
    EXPECT_EQ(bank.busyLines(), 0u);
    bank.testUnpin(kBase);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(bank.testPinWaiters(kBase), 0u);
}

TEST(LlcBankFlat, WaiterQueuedDuringDrainRunsOnNextUnpin)
{
    // A woken waiter that immediately re-blocks (the lookupStage retry
    // pattern) must land in a fresh list, not the one being drained.
    System sys(SystemConfig::smallTest(2));
    auto &bank = sys.bank(0);
    std::vector<int> order;
    bank.testAddPinWaiter(kBase, [&] {
        order.push_back(1);
        bank.testAddPinWaiter(kBase, [&] { order.push_back(3); });
    });
    bank.testAddPinWaiter(kBase, [&] { order.push_back(2); });
    bank.testUnpin(kBase);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(bank.testPinWaiters(kBase), 1u);
    bank.testUnpin(kBase);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(bank.testPinWaiters(kBase), 0u);
}

TEST(LlcBankFlat, WaitersOnDistinctLinesAreIndependent)
{
    System sys(SystemConfig::smallTest(2));
    auto &bank = sys.bank(0);
    int aRan = 0, bRan = 0;
    // Different lines, likely colliding table neighborhoods under churn.
    for (int i = 0; i < 32; ++i) {
        bank.testAddPinWaiter(kBase + i * kLineBytes,
                              i % 2 ? InlineCallback([&] { ++bRan; })
                                    : InlineCallback([&] { ++aRan; }));
    }
    bank.testUnpin(kBase); // wakes only line 0's waiter
    EXPECT_EQ(aRan, 1);
    EXPECT_EQ(bRan, 0);
    for (int i = 1; i < 32; ++i)
        bank.testUnpin(kBase + i * kLineBytes);
    EXPECT_EQ(aRan, 16);
    EXPECT_EQ(bRan, 16);
}

// ---------------------------------------------------------------------
// Epoch-flush edge cases
// ---------------------------------------------------------------------

TEST(FlushProtocol, EmptyFlushEpochStillAcks)
{
    // One store on one core: the FlushEpoch broadcast reaches every
    // bank, and the banks holding no line of the epoch must ack an
    // empty job rather than stall or panic.
    SystemConfig cfg = SystemConfig::smallTest(2);
    applyPersistencyModel(cfg, PersistencyModel::BufferedEpoch,
                          BarrierKind::LB);
    System sys(cfg);
    std::vector<cpu::MemOp> ops;
    ops.push_back(cpu::MemOp::store(kBase));
    ops.push_back(cpu::MemOp::barrier());
    sys.setWorkload(0, std::make_unique<Script>(ops));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed) << "deadlocked=" << res.deadlocked;
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    double lasersEmpty = 0;
    for (unsigned b = 0; b < 2; ++b) {
        const std::string bank = "llc[" + std::to_string(b) + "]";
        // Every FlushEpoch a bank sees is acked exactly once.
        EXPECT_EQ(sumStat(stats, {bank, "flushEpochMsgs"}),
                  sumStat(stats, {bank, "bankAcksSent"}));
        lasersEmpty += sumStat(stats, {bank, "linesFlushed"}) == 0.0;
    }
    EXPECT_GT(sumStat(stats, {"llc[*]", "flushEpochMsgs"}), 0.0);
    // The single dirty line lives in exactly one bank; the other bank's
    // job really was empty.
    EXPECT_GE(lasersEmpty, 1.0);
}

TEST(FlushProtocol, InvalidatingFlushSkipsPinnedLines)
{
    // Two cores hammer a small shared working set in a tiny LLC with
    // clflush semantics: flush acks race in-flight transactions and
    // evictions, and the ack path must leave pinned lines cached (the
    // flushSkipsPinned stat) instead of invalidating under their feet.
    SystemConfig cfg = SystemConfig::smallTest(2);
    applyPersistencyModel(cfg, PersistencyModel::BufferedEpoch,
                          BarrierKind::LB);
    cfg.llcBank.geometry = CacheGeometry{4 * 1024, 2};
    cfg.barrier.avoidTaggedVictims = false;
    cfg.barrier.invalidatingFlush = true;
    System sys(cfg);
    // 192 shared lines vs 128 lines of total LLC capacity: every pass
    // evicts, and the other core's requests race the in-flight
    // evictions (pinWaits) while barriers race the flush acks
    // (flushSkipsPinned).
    constexpr int kLines = 192;
    for (unsigned c = 0; c < 2; ++c) {
        std::vector<cpu::MemOp> ops;
        for (int e = 0; e < 6; ++e) {
            for (int i = 0; i < kLines; ++i) {
                const int idx = c == 0 ? i : kLines - 1 - i;
                ops.push_back(
                    cpu::MemOp::store(kBase + idx * kLineBytes));
            }
            ops.push_back(cpu::MemOp::barrier());
        }
        sys.setWorkload(static_cast<CoreId>(c),
                        std::make_unique<Script>(ops));
    }
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed) << "deadlocked=" << res.deadlocked;
    EXPECT_TRUE(res.violations.empty())
        << "first: " << res.violations.front();
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    EXPECT_GT(sumStat(stats, {"llc[*]", "flushSkipsPinned"}), 0.0);
}

TEST(FlushProtocol, RequestsBlockOnInFlightEviction)
{
    // Both cores hammer one LLC set of one bank with more lines than it
    // has ways, in opposite phase: each core keeps requesting lines the
    // other is busy evicting, so some lookups must find the line pinned
    // by an in-flight eviction, block on its waiter list, and replay
    // when the eviction drains (the pinWaits counter).
    SystemConfig cfg = SystemConfig::smallTest(2);
    applyPersistencyModel(cfg, PersistencyModel::BufferedEpoch,
                          BarrierKind::LB);
    cfg.llcBank.geometry = CacheGeometry{4 * 1024, 2};
    cfg.barrier.avoidTaggedVictims = false;
    System sys(cfg);
    // Same bank + same set: stride over numBanks * sets lines.
    const Addr setStride = 2 * 32 * kLineBytes;
    constexpr int kSetLines = 6;
    for (unsigned c = 0; c < 2; ++c) {
        std::vector<cpu::MemOp> ops;
        for (int r = 0; r < 200; ++r) {
            const int idx =
                c == 0 ? r % kSetLines
                       : kSetLines - 1 - (r % kSetLines);
            ops.push_back(cpu::MemOp::store(kBase + idx * setStride));
        }
        sys.setWorkload(static_cast<CoreId>(c),
                        std::make_unique<Script>(ops));
    }
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed) << "deadlocked=" << res.deadlocked;
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    EXPECT_GT(sumStat(stats, {"llc[*]", "evictions"}), 0.0);
    EXPECT_GT(sumStat(stats, {"llc[*]", "pinWaits"}), 0.0);
}

} // namespace persim
