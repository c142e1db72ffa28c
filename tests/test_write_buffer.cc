/**
 * @file
 * Write-buffer tests: the ring/filter structure in isolation, plus the
 * core-level drain protocol driven through small scripted systems —
 * full-buffer stall/resume, same-line stores straddling an epoch
 * boundary, and stores draining while an epoch flush is in flight.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cpu/write_buffer.hh"
#include "exp/stats_export.hh"
#include "model/system.hh"
#include "sim/logging.hh"

#include "script_workload.hh"

namespace persim
{

using exp::sumStat;
using model::PersistencyModel;
using model::SimResult;
using model::System;
using model::SystemConfig;
using test::Script;

namespace
{

constexpr Addr kBase = Addr{1} << 32;

SystemConfig
scriptedConfig(PersistencyModel pm, persist::BarrierKind barrier,
               unsigned wbEntries)
{
    SystemConfig cfg = SystemConfig::smallTest(4);
    applyPersistencyModel(cfg, pm, barrier);
    cfg.writeBufferEntries = wbEntries;
    cfg.autoBarrierEvery = 0; // barriers come from the script only
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// Structure-level: the ring and its line filter.
// ---------------------------------------------------------------------

TEST(WriteBuffer, RingWrapAroundKeepsFifo)
{
    // Capacity 5 rounds up to an 8-slot ring; cycling many more than 8
    // entries through it forces the head/tail indices to wrap repeatedly
    // while order and containment must hold throughout.
    cpu::WriteBuffer wb(5);
    Addr next = 0x1000;
    Addr expectFront = next;
    for (int i = 0; i < 5; ++i)
        wb.push(next += 0x40);
    expectFront = 0x1040;
    for (int cycle = 0; cycle < 100; ++cycle) {
        EXPECT_EQ(wb.front().addr, expectFront);
        EXPECT_TRUE(wb.containsLine(expectFront));
        wb.pop();
        EXPECT_FALSE(wb.containsLine(expectFront));
        expectFront += 0x40;
        wb.push(next += 0x40);
        EXPECT_EQ(wb.size(), 5u);
    }
}

TEST(WriteBuffer, FilterCollisionsStayExact)
{
    // The 64-slot line filter hashes many lines onto few slots; probing
    // hundreds of absent lines guarantees some share a slot with the one
    // buffered line. Containment must still come back false for every
    // one of them (the filter only short-circuits negatives; positives
    // re-check the ring exactly).
    cpu::WriteBuffer wb(8);
    const Addr resident = 0x4000;
    wb.push(resident);
    for (Addr line = 0x8000; line < 0x8000 + 512 * 0x40; line += 0x40)
        EXPECT_FALSE(wb.containsLine(line)) << std::hex << line;
    EXPECT_TRUE(wb.containsLine(resident));
    EXPECT_TRUE(wb.containsLine(resident + 0x3F)); // same line
}

TEST(WriteBuffer, SameLineEntriesCountedIndividually)
{
    // Three stores to one line (different byte offsets) occupy three
    // slots; the line stays visible to forwarding until the last one
    // drains.
    cpu::WriteBuffer wb(8);
    wb.push(0x100);
    wb.push(0x108);
    wb.push(0x13C);
    EXPECT_EQ(wb.size(), 3u);
    wb.pop();
    EXPECT_TRUE(wb.containsLine(0x100));
    wb.pop();
    EXPECT_TRUE(wb.containsLine(0x100));
    wb.pop();
    EXPECT_FALSE(wb.containsLine(0x100));
    EXPECT_TRUE(wb.empty());
}

// ---------------------------------------------------------------------
// Core-level: the drain protocol through a scripted system.
// ---------------------------------------------------------------------

TEST(WriteBuffer, FullBufferStallsAndResumesInOrder)
{
    // A 2-entry buffer with a burst of 8 stores must stall the core at
    // least once, then resume and commit every store (drains are serial,
    // so a burst this size cannot fit without stalling).
    SystemConfig cfg = scriptedConfig(PersistencyModel::NoPersistency,
                                      persist::BarrierKind::None, 2);
    System sys(cfg);
    std::vector<cpu::MemOp> ops;
    for (Addr i = 0; i < 8; ++i)
        ops.push_back(cpu::MemOp::store(kBase + i * 0x40));
    // The last-issued store's line must still forward after the burst.
    ops.push_back(cpu::MemOp::load(kBase + 7 * 0x40));
    sys.setWorkload(0, std::make_unique<Script>(ops));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    EXPECT_EQ(sumStat(stats, {"core[0]", "stores"}), 8.0);
    EXPECT_GE(sumStat(stats, {"core[0]", "wbStalls"}), 1.0);
}

TEST(WriteBuffer, SameLineStoresAcrossEpochBoundary)
{
    // Two stores to the same line separated by a persist barrier land in
    // different epochs. Under BEP the barrier is asynchronous, so the
    // second store can enter the buffer while the first epoch is still
    // flushing; both epochs must eventually persist and the trailing
    // load still sees the line.
    SystemConfig cfg = scriptedConfig(PersistencyModel::BufferedEpoch,
                                      persist::BarrierKind::LB, 4);
    System sys(cfg);
    sys.setWorkload(0, std::make_unique<Script>(std::vector<cpu::MemOp>{
                           cpu::MemOp::store(kBase),
                           cpu::MemOp::barrier(),
                           cpu::MemOp::store(kBase),
                           cpu::MemOp::load(kBase),
                       }));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    EXPECT_EQ(sumStat(stats, {"core[0]", "stores"}), 2.0);
    EXPECT_EQ(sumStat(stats, {"core[0]", "barriers"}), 1.0);
    EXPECT_GE(sumStat(stats, {"persist.arbiter[0]", "epochsPersisted"}), 1.0);
}

TEST(WriteBuffer, DrainsWhileEpochFlushInFlight)
{
    // Under EP the barrier blocks until the closing epoch's lines are
    // durable. With a tiny buffer, the post-barrier burst both stalls
    // and drains while the flush engine is persisting the previous
    // epoch's lines — the interleaving the drain/flush handshake must
    // survive. Everything must commit and both epochs persist.
    SystemConfig cfg = scriptedConfig(PersistencyModel::Epoch,
                                      persist::BarrierKind::LB, 2);
    System sys(cfg);
    std::vector<cpu::MemOp> ops;
    for (Addr i = 0; i < 4; ++i)
        ops.push_back(cpu::MemOp::store(kBase + i * 0x40));
    ops.push_back(cpu::MemOp::barrier());
    for (Addr i = 0; i < 4; ++i)
        ops.push_back(cpu::MemOp::store(kBase + (i + 8) * 0x40));
    ops.push_back(cpu::MemOp::barrier());
    sys.setWorkload(0, std::make_unique<Script>(ops));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    EXPECT_EQ(sumStat(stats, {"core[0]", "stores"}), 8.0);
    EXPECT_EQ(sumStat(stats, {"core[0]", "barriers"}), 2.0);
    EXPECT_GE(sumStat(stats, {"core[0]", "wbStalls"}), 1.0);
    EXPECT_GE(sumStat(stats, {"persist.arbiter[0]", "epochsPersisted"}), 2.0);
}

} // namespace persim
