/**
 * @file
 * Unit tests for the ordering checker: it must accept correct persist
 * orders and flag the paper's violation scenarios (Figure 7).
 */

#include <gtest/gtest.h>

#include "model/ordering_checker.hh"
#include "persist/undo_log.hh"

namespace persim::model
{

TEST(OrderingChecker, AcceptsInOrderPersists)
{
    OrderingChecker chk(2);
    chk.onStoreTagged(0, 0, 0x100);
    chk.onStoreTagged(0, 0, 0x200);
    chk.onStoreTagged(0, 1, 0x300);
    chk.onPersist(10, 0x100, 0, 0, false);
    chk.onPersist(20, 0x200, 0, 0, false);
    chk.onEpochPersisted(0, 0, 25);
    chk.onPersist(30, 0x300, 0, 1, false);
    chk.onEpochPersisted(0, 1, 35);
    chk.finalize();
    EXPECT_TRUE(chk.violations().empty());
    EXPECT_EQ(chk.epochsSettled(), 2u);
}

TEST(OrderingChecker, FlagsFigure7Violation)
{
    // A line of epoch 1 persists while epoch 0 still has a volatile
    // line — exactly the multi-banked violation of Figure 7.
    OrderingChecker chk(1);
    chk.onStoreTagged(0, 0, 0x100); // A (bank 0, delayed)
    chk.onStoreTagged(0, 0, 0x140); // B
    chk.onStoreTagged(0, 1, 0x180); // C
    chk.onPersist(10, 0x140, 0, 0, false); // B persists
    chk.onPersist(20, 0x180, 0, 1, false); // C persists BEFORE A!
    EXPECT_FALSE(chk.violations().empty());
}

TEST(OrderingChecker, UntaggedPersistsAreUnordered)
{
    OrderingChecker chk(1);
    chk.onStoreTagged(0, 0, 0x100);
    // Natural eviction of untagged data: never a violation.
    chk.onPersist(5, 0x900, kNoCore, kNoEpoch, false);
    chk.onPersist(10, 0x100, 0, 0, false);
    chk.onEpochPersisted(0, 0, 15);
    chk.finalize();
    EXPECT_TRUE(chk.violations().empty());
}

TEST(OrderingChecker, CrossCoreDependenceEnforced)
{
    OrderingChecker chk(2);
    chk.onStoreTagged(0, 0, 0x100); // source epoch (core 0)
    chk.onStoreTagged(1, 0, 0x200); // dependent epoch (core 1)
    chk.onDependence(1, 0, 0, 0);   // core1/e0 after core0/e0
    // Dependent persists first: violation.
    chk.onPersist(10, 0x200, 1, 0, false);
    EXPECT_FALSE(chk.violations().empty());
}

TEST(OrderingChecker, CrossCoreDependenceSatisfied)
{
    OrderingChecker chk(2);
    chk.onStoreTagged(0, 0, 0x100);
    chk.onStoreTagged(1, 0, 0x200);
    chk.onDependence(1, 0, 0, 0);
    chk.onPersist(10, 0x100, 0, 0, false);
    chk.onEpochPersisted(0, 0, 12);
    chk.onPersist(20, 0x200, 1, 0, false);
    chk.onEpochPersisted(1, 0, 22);
    chk.finalize();
    EXPECT_TRUE(chk.violations().empty());
}

TEST(OrderingChecker, StealWaivesTheOldIncarnation)
{
    OrderingChecker chk(2);
    chk.onStoreTagged(0, 0, 0x100);
    chk.onStoreTagged(0, 0, 0x140);
    // Core 1 overwrites 0x100 before it was flushed: epoch (0,0) no
    // longer owes that line, but (1,0) persists after (0,0).
    chk.onSteal(0, 0, 1, 0, 0x100, /*srcFlushInFlight=*/false);
    chk.onStoreTagged(1, 0, 0x100);
    chk.onPersist(10, 0x140, 0, 0, false); // only the unwaived line
    chk.onEpochPersisted(0, 0, 12);
    chk.onPersist(20, 0x100, 1, 0, false);
    chk.onEpochPersisted(1, 0, 22);
    chk.finalize();
    EXPECT_TRUE(chk.violations().empty());
}

TEST(OrderingChecker, DeclareWithVolatileLinesFlagged)
{
    OrderingChecker chk(1);
    chk.onStoreTagged(0, 0, 0x100);
    chk.onEpochPersisted(0, 0, 10); // nothing persisted yet!
    EXPECT_FALSE(chk.violations().empty());
}

TEST(OrderingChecker, UnknownEpochPersistFlagged)
{
    OrderingChecker chk(1);
    chk.onPersist(10, 0x100, 0, 7, false); // no onStoreTagged ever
    EXPECT_FALSE(chk.violations().empty());
}

TEST(OrderingChecker, UndoLogAfterDataFlagged)
{
    OrderingChecker chk(1);
    const Addr logAddr = persist::UndoLog::kLogBase + 0x40;
    chk.onStoreTagged(0, 0, 0x100);
    chk.onPersist(10, 0x100, 0, 0, false);   // data first...
    chk.onPersist(20, logAddr, 0, 0, true);  // ...log after: violation
    EXPECT_FALSE(chk.violations().empty());
}

TEST(OrderingChecker, UndoLogBeforeDataAccepted)
{
    OrderingChecker chk(1);
    const Addr logAddr = persist::UndoLog::kLogBase + 0x40;
    chk.onStoreTagged(0, 0, 0x100);
    chk.onPersist(5, logAddr, 0, 0, true);
    chk.onPersist(10, 0x100, 0, 0, false);
    chk.onEpochPersisted(0, 0, 12);
    chk.finalize();
    EXPECT_TRUE(chk.violations().empty());
}

TEST(OrderingChecker, CheckpointWritesExemptFromLogRule)
{
    OrderingChecker chk(1);
    const Addr ckpt = persist::UndoLog::kCheckpointBase + 0x40;
    chk.onStoreTagged(0, 0, 0x100);
    chk.onPersist(10, 0x100, 0, 0, false);
    chk.onPersist(20, ckpt, 0, 0, true); // checkpoint after data: fine
    chk.onEpochPersisted(0, 0, 25);
    chk.finalize();
    EXPECT_TRUE(chk.violations().empty());
}

TEST(OrderingChecker, FinalizeFlagsUndrainedEpochs)
{
    OrderingChecker chk(1);
    chk.onStoreTagged(0, 0, 0x100);
    chk.finalize();
    EXPECT_FALSE(chk.violations().empty());
}

TEST(OrderingChecker, LogRecordsEventsWhenEnabled)
{
    OrderingChecker chk(1, /*keepLog=*/true);
    chk.onStoreTagged(0, 0, 0x100);
    chk.onPersist(10, 0x100, 0, 0, false);
    ASSERT_EQ(chk.log().size(), 1u);
    EXPECT_EQ(chk.log()[0].addr, 0x100u);
    EXPECT_EQ(chk.log()[0].when, 10u);
}

TEST(OrderingChecker, SettlingCascadesAcrossCores)
{
    // core1/e0 depends on core0/e1; settling core0 epochs in order
    // must unblock core1.
    OrderingChecker chk(2);
    chk.onStoreTagged(0, 0, 0x100);
    chk.onStoreTagged(0, 1, 0x140);
    chk.onStoreTagged(1, 0, 0x200);
    chk.onDependence(1, 0, 0, 1);
    chk.onPersist(10, 0x100, 0, 0, false);
    chk.onEpochPersisted(0, 0, 11);
    chk.onPersist(20, 0x140, 0, 1, false);
    chk.onEpochPersisted(0, 1, 21);
    chk.onPersist(30, 0x200, 1, 0, false);
    chk.onEpochPersisted(1, 0, 31);
    chk.finalize();
    EXPECT_TRUE(chk.violations().empty());
    EXPECT_EQ(chk.epochsSettled(), 3u);
    EXPECT_EQ(chk.dependenceEdges(), 1u);
}

// ---------------------------------------------------------------------
// Calls that name an already-settled epoch
// ---------------------------------------------------------------------

/** Settle core 0's epoch 0 (one line, persisted and declared). */
void
settleCore0Epoch0(OrderingChecker &chk)
{
    chk.onStoreTagged(0, 0, 0x100);
    chk.onPersist(10, 0x100, 0, 0, false);
    chk.onEpochPersisted(0, 0, 11);
    ASSERT_EQ(chk.epochsSettled(), 1u);
    ASSERT_TRUE(chk.violations().empty());
}

TEST(OrderingChecker, StoreTaggedIntoSettledEpochFlagged)
{
    OrderingChecker chk(1);
    settleCore0Epoch0(chk);
    chk.onStoreTagged(0, 0, 0x140);
    ASSERT_EQ(chk.violations().size(), 1u);
    EXPECT_EQ(chk.violations()[0],
              "store tagged into core 0 epoch 0 after it settled");
    // The late line is not tracked: finalize finds nothing pending.
    chk.finalize();
    EXPECT_EQ(chk.violations().size(), 1u);
}

TEST(OrderingChecker, DependenceOntoSettledEpochFlagged)
{
    // core 0 epoch 0 settled, yet it is recorded to depend on core 1
    // epoch 0, which has not: the dependent persisted before its source.
    OrderingChecker chk(2);
    chk.onStoreTagged(1, 0, 0x200);
    settleCore0Epoch0(chk);
    chk.onDependence(0, 0, 1, 0);
    ASSERT_EQ(chk.violations().size(), 1u);
    EXPECT_EQ(chk.violations()[0],
              "dependence of core 0 epoch 0 on unsettled core 1 epoch 0 "
              "recorded after the dependent epoch settled");
    EXPECT_EQ(chk.dependenceEdges(), 0u);
}

TEST(OrderingChecker, DependenceOnSettledSourceIsNotAViolation)
{
    // Both endpoints settled (or just the source): the order held.
    OrderingChecker chk(2);
    settleCore0Epoch0(chk);
    chk.onStoreTagged(1, 0, 0x200);
    chk.onDependence(1, 0, 0, 0);
    chk.onDependence(0, 0, 0, 0);
    EXPECT_TRUE(chk.violations().empty());
    EXPECT_EQ(chk.dependenceEdges(), 0u);
}

TEST(OrderingChecker, PersistedDeclaredTwiceFlagged)
{
    OrderingChecker chk(1);
    settleCore0Epoch0(chk);
    chk.onEpochPersisted(0, 0, 20);
    ASSERT_EQ(chk.violations().size(), 1u);
    EXPECT_EQ(chk.violations()[0],
              "Persisted declared for core 0 epoch 0 after it settled");
    EXPECT_EQ(chk.epochsSettled(), 1u);
}

// ---------------------------------------------------------------------
// Epoch rings and the shared pending-line table
// ---------------------------------------------------------------------

TEST(OrderingChecker, RingGrowsPastItsInitialSlots)
{
    // 100 unsettled epochs on one core (more than the ring starts
    // with), settled out of declaration order.
    OrderingChecker chk(1);
    for (EpochId e = 0; e < 100; ++e)
        chk.onStoreTagged(0, e, 0x1000 + e * 0x40);
    for (EpochId e = 100; e-- > 0;) {
        chk.onPersist(e, 0x1000 + e * 0x40, 0, e, false);
        chk.onEpochPersisted(0, e, e);
    }
    chk.finalize();
    // Every epoch but 0 persisted a line before its predecessor settled.
    EXPECT_EQ(chk.violations().size(), 99u);
    EXPECT_EQ(chk.epochsSettled(), 100u);
}

TEST(OrderingChecker, SameLinePendingInSeveralEpochs)
{
    // One address owed by two epochs of one core and one of another
    // (an in-flight flush keeps the old incarnation's obligation).
    OrderingChecker chk(2);
    chk.onStoreTagged(0, 0, 0x100);
    chk.onStoreTagged(0, 1, 0x100);
    chk.onStoreTagged(1, 0, 0x100);
    chk.onStoreTagged(0, 0, 0x100); // re-tag: still one obligation
    chk.onPersist(10, 0x100, 0, 0, false);
    chk.onEpochPersisted(0, 0, 11);
    chk.onPersist(20, 0x100, 1, 0, false);
    chk.onEpochPersisted(1, 0, 21);
    chk.onEpochPersisted(0, 1, 22); // its line is still volatile
    chk.finalize();
    ASSERT_EQ(chk.violations().size(), 2u);
    EXPECT_EQ(chk.violations()[0],
              "core 0 epoch 1 declared persisted with 1 lines still "
              "volatile");
    EXPECT_EQ(chk.violations()[1],
              "end of run: core 0 epoch 1 still has 1 unpersisted lines");
    EXPECT_EQ(chk.epochsSettled(), 2u);
}

} // namespace persim::model
