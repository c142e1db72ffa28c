/**
 * @file
 * Unit tests for the persist-module data structures: the epoch table,
 * IDT registers, flush-engine bookkeeping, and the undo log layout.
 */

#include <gtest/gtest.h>

#include <vector>

#include "persist/epoch_table.hh"
#include "persist/flush_engine.hh"
#include "persist/idt_registers.hh"
#include "persist/undo_log.hh"
#include "sim/logging.hh"

namespace persim::persist
{

TEST(EpochTable, OpensEpochZeroImmediately)
{
    EpochTable t(0, 8, 4);
    EXPECT_EQ(t.current().id, 0u);
    EXPECT_TRUE(t.current().ongoing());
    EXPECT_EQ(t.inflight(), 1u);
    EXPECT_TRUE(t.canOpen());
}

TEST(EpochTable, CloseAndOpenAdvancesIds)
{
    EpochTable t(0, 8, 4);
    Epoch &e0 = t.closeCurrentAndOpen();
    EXPECT_EQ(e0.id, 0u);
    EXPECT_TRUE(e0.closed);
    EXPECT_EQ(t.current().id, 1u);
    EXPECT_EQ(t.inflight(), 2u);
}

TEST(EpochTable, WindowLimitEnforced)
{
    EpochTable t(0, 4, 4);
    for (int i = 0; i < 3; ++i)
        t.closeCurrentAndOpen();
    EXPECT_EQ(t.inflight(), 4u);
    EXPECT_FALSE(t.canOpen());
    EXPECT_THROW(t.closeCurrentAndOpen(), SimPanic);
}

TEST(EpochTable, RetireOnlyLeadingPersisted)
{
    EpochTable t(0, 8, 4);
    t.closeCurrentAndOpen();
    t.closeCurrentAndOpen();
    // Persist epoch 1 (not 0): nothing retires.
    t.find(1)->state = EpochState::Persisted;
    EXPECT_EQ(t.retirePersisted(), 0u);
    t.find(0)->state = EpochState::Persisted;
    EXPECT_EQ(t.retirePersisted(), 2u);
    EXPECT_EQ(t.inflight(), 1u);
    EXPECT_EQ(t.current().id, 2u);
}

TEST(EpochTable, IsPersistedForRetiredAndFutureEpochs)
{
    EpochTable t(0, 8, 4);
    t.closeCurrentAndOpen();
    t.find(0)->state = EpochState::Persisted;
    t.retirePersisted();
    EXPECT_TRUE(t.isPersisted(0));  // retired
    EXPECT_FALSE(t.isPersisted(1)); // current
    EXPECT_FALSE(t.isPersisted(99));
}

TEST(EpochTable, PredecessorLookup)
{
    EpochTable t(0, 8, 4);
    t.closeCurrentAndOpen();
    t.closeCurrentAndOpen();
    EXPECT_EQ(t.predecessorOf(0), nullptr);
    ASSERT_NE(t.predecessorOf(1), nullptr);
    EXPECT_EQ(t.predecessorOf(1)->id, 0u);
    EXPECT_EQ(t.predecessorOf(2)->id, 1u);
}

TEST(IdtRegs, CapacityAndDedup)
{
    IdtRegs regs(2);
    EXPECT_TRUE(regs.add({1, 10}));
    EXPECT_TRUE(regs.add({1, 10})); // duplicate: ok, no new slot
    EXPECT_EQ(regs.size(), 1u);
    EXPECT_TRUE(regs.add({2, 20}));
    EXPECT_TRUE(regs.full());
    EXPECT_FALSE(regs.add({3, 30})); // overflow
    EXPECT_TRUE(regs.add({1, 10}));  // existing entry still "records"
}

TEST(IdtRegs, RemoveFreesSlot)
{
    IdtRegs regs(1);
    EXPECT_TRUE(regs.add({1, 10}));
    EXPECT_FALSE(regs.add({2, 20}));
    EXPECT_TRUE(regs.remove({1, 10}));
    EXPECT_FALSE(regs.remove({1, 10}));
    EXPECT_TRUE(regs.add({2, 20}));
}

TEST(FlushEngine, AddRemoveCount)
{
    FlushEngine fe("fe");
    fe.addLine(1, 5, 0x100);
    fe.addLine(1, 5, 0x140);
    fe.addLine(2, 5, 0x100); // different core, same epoch id, same addr
    EXPECT_EQ(fe.count(1, 5), 2u);
    EXPECT_EQ(fe.count(2, 5), 1u);
    EXPECT_TRUE(fe.hasLine(1, 5, 0x100));
    EXPECT_TRUE(fe.hasLine(1, 5, 0x13F)); // line aligned
    EXPECT_TRUE(fe.removeLine(1, 5, 0x100));
    EXPECT_FALSE(fe.removeLine(1, 5, 0x100));
    EXPECT_EQ(fe.totalLines(), 2u);
}

TEST(FlushEngine, DoubleAddPanics)
{
    FlushEngine fe("fe");
    fe.addLine(1, 5, 0x100);
    EXPECT_THROW(fe.addLine(1, 5, 0x120), SimPanic); // same line
}

TEST(FlushEngine, TakeAllIsSortedAndEmpties)
{
    FlushEngine fe("fe");
    fe.addLine(3, 7, 0x300);
    fe.addLine(3, 7, 0x100);
    fe.addLine(3, 7, 0x200);
    std::vector<Addr> lines{0x999};
    fe.takeAll(3, 7, lines);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0], 0x100u);
    EXPECT_EQ(lines[1], 0x200u);
    EXPECT_EQ(lines[2], 0x300u);
    EXPECT_EQ(fe.count(3, 7), 0u);
    EXPECT_EQ(fe.totalLines(), 0u);
    fe.takeAll(3, 7, lines);
    EXPECT_TRUE(lines.empty());
}

TEST(FlushEngine, SnapshotDoesNotRemove)
{
    FlushEngine fe("fe");
    fe.addLine(3, 7, 0x300);
    fe.addLine(3, 7, 0x100);
    std::vector<Addr> lines;
    fe.snapshot(3, 7, lines);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], 0x100u);
    EXPECT_EQ(fe.count(3, 7), 2u);
}

TEST(FlushEngine, WalksSeeOnlyTheBucketsOwnLines)
{
    // Grow a bucket, drain it, then reuse its storage for a small one:
    // the walk must list exactly the new bucket's lines, and removing
    // a line from the middle keeps the rest findable.
    FlushEngine fe("fe");
    for (Addr a = 0; a < 500; ++a)
        fe.addLine(1, 1, a * 64);
    std::vector<Addr> lines;
    fe.takeAll(1, 1, lines);
    EXPECT_EQ(lines.size(), 500u);
    fe.addLine(2, 9, 0x300);
    fe.addLine(2, 9, 0x100);
    fe.addLine(2, 9, 0x200);
    EXPECT_TRUE(fe.removeLine(2, 9, 0x300));
    EXPECT_TRUE(fe.hasLine(2, 9, 0x100));
    EXPECT_TRUE(fe.hasLine(2, 9, 0x200));
    fe.snapshot(2, 9, lines);
    EXPECT_EQ(lines, (std::vector<Addr>{0x100, 0x200}));
    EXPECT_TRUE(fe.removeLine(2, 9, 0x100));
    EXPECT_TRUE(fe.removeLine(2, 9, 0x200));
    EXPECT_EQ(fe.count(2, 9), 0u);
    EXPECT_EQ(fe.totalLines(), 0u);
}

TEST(UndoLog, RegionsAreDisjointPerCore)
{
    UndoLog a(0), b(1);
    const Addr la = a.nextLogLine();
    const Addr lb = b.nextLogLine();
    EXPECT_NE(la, lb);
    EXPECT_GE(la, UndoLog::kLogBase);
    EXPECT_LT(la, UndoLog::kLogBase + UndoLog::kRegionBytes);
    EXPECT_GE(lb, UndoLog::kLogBase + UndoLog::kRegionBytes);
}

TEST(UndoLog, CursorAdvancesByLinesAndWraps)
{
    UndoLog log(0);
    const Addr first = log.nextLogLine();
    EXPECT_EQ(log.nextLogLine(), first + kLineBytes);
    // Checkpoint cursor is independent.
    const Addr ck = log.nextCheckpointLine();
    EXPECT_GE(ck, UndoLog::kCheckpointBase);
    EXPECT_TRUE(UndoLog::isLogSpace(first));
    EXPECT_TRUE(UndoLog::isLogSpace(ck));
    EXPECT_FALSE(UndoLog::isLogSpace(0x1000));
}

} // namespace persim::persist
