/**
 * @file
 * Protocol-level tests of the persist machinery: conflict taxonomy,
 * the epoch-flush handshake, IDT, epoch splitting (Figure 5), and the
 * clwb/clflush variants — driven by hand-built scenario workloads on
 * small systems.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "exp/stats_export.hh"
#include "model/system.hh"
#include "workload/workload_factory.hh"

namespace persim
{

using exp::sumStat;
using model::PersistencyModel;
using model::SimResult;
using model::System;
using model::SystemConfig;
using persist::BarrierKind;

namespace
{

/** Replays a fixed op list, then halts. */
class ScriptWorkload : public cpu::Workload
{
  public:
    explicit ScriptWorkload(std::vector<cpu::MemOp> ops)
        : _ops(std::move(ops))
    {
    }

    cpu::MemOp
    next(Tick) override
    {
        if (_pos >= _ops.size())
            return cpu::MemOp::halt();
        return _ops[_pos++];
    }

  private:
    std::vector<cpu::MemOp> _ops;
    std::size_t _pos = 0;
};

constexpr Addr kBase = Addr{1} << 32;

SystemConfig
smallBep(BarrierKind kind)
{
    SystemConfig cfg = SystemConfig::smallTest(4);
    applyPersistencyModel(cfg, PersistencyModel::BufferedEpoch, kind);
    return cfg;
}

} // namespace

TEST(PersistProtocol, SingleEpochFlushHandshake)
{
    // One thread writes 4 lines, barriers, and drains: every bank must
    // see the FlushEpoch broadcast and the arbiter must collect acks.
    SystemConfig cfg = smallBep(BarrierKind::LB);
    System sys(cfg);
    std::vector<cpu::MemOp> ops;
    for (int i = 0; i < 4; ++i)
        ops.push_back(cpu::MemOp::store(kBase + i * kLineBytes));
    ops.push_back(cpu::MemOp::barrier());
    sys.setWorkload(0, std::make_unique<ScriptWorkload>(ops));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(res.violations.empty());

    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    // The epoch (and the trailing drain epoch bookkeeping) persisted.
    EXPECT_GE(sumStat(stats, {"persist.arbiter[0]", "epochsPersisted"}), 1.0);
    // Every bank saw the FlushEpoch broadcast of the non-trivial epoch.
    EXPECT_EQ(sumStat(stats, {"llc[*]", "flushEpochMsgs"}),
              cfg.numCores * 1.0);
    EXPECT_EQ(sumStat(stats, {"llc[*]", "bankAcksSent"}),
              cfg.numCores * 1.0);
    EXPECT_EQ(sumStat(stats, {"llc[*]", "persistCmpSeen"}),
              cfg.numCores * 1.0);
    // All four lines reached NVRAM exactly once.
    EXPECT_EQ(sumStat(stats, {"mc[*]", "nvram.writes"}), 4.0);
}

TEST(PersistProtocol, IntraThreadConflictFlushesOlderEpoch)
{
    // St A | barrier | St A again: the second store conflicts with the
    // first epoch (Figure 3b) and must wait for it to persist.
    SystemConfig cfg = smallBep(BarrierKind::LB);
    System sys(cfg);
    std::vector<cpu::MemOp> ops = {
        cpu::MemOp::store(kBase),
        cpu::MemOp::barrier(),
        cpu::MemOp::store(kBase),
        cpu::MemOp::barrier(),
    };
    sys.setWorkload(0, std::make_unique<ScriptWorkload>(ops));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(res.violations.empty());
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    EXPECT_EQ(sumStat(stats, {"persist", "intraConflicts"}), 1.0);
    EXPECT_EQ(sumStat(stats, {"persist", "interConflicts"}), 0.0);
    EXPECT_GE(sumStat(stats, {"persist.arbiter[0]", "flushIntra"}), 1.0);
}

TEST(PersistProtocol, ReadsNeverConflictIntraThread)
{
    SystemConfig cfg = smallBep(BarrierKind::LB);
    System sys(cfg);
    std::vector<cpu::MemOp> ops = {
        cpu::MemOp::store(kBase),
        cpu::MemOp::barrier(),
        cpu::MemOp::load(kBase), // same line, read: no conflict (§3.2)
        cpu::MemOp::barrier(),
    };
    sys.setWorkload(0, std::make_unique<ScriptWorkload>(ops));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    EXPECT_EQ(sumStat(stats, {"persist", "intraConflicts"}), 0.0);
}

TEST(PersistProtocol, InterThreadConflictDetectedAtBank)
{
    // T0 writes Y and completes its epoch; T1 then reads Y (Figure 3a).
    SystemConfig cfg = smallBep(BarrierKind::LB);
    System sys(cfg);
    sys.setWorkload(0, std::make_unique<ScriptWorkload>(
                           std::vector<cpu::MemOp>{
                               cpu::MemOp::store(kBase),
                               cpu::MemOp::barrier(),
                           }));
    sys.setWorkload(1, std::make_unique<ScriptWorkload>(
                           std::vector<cpu::MemOp>{
                               cpu::MemOp::compute(3000),
                               cpu::MemOp::load(kBase),
                           }));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(res.violations.empty());
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    EXPECT_GE(sumStat(stats, {"persist", "interConflicts"}), 1.0);
    // LB (no IDT): resolved online.
    EXPECT_EQ(sumStat(stats, {"persist", "idtResolutions"}), 0.0);
}

TEST(PersistProtocol, IdtAbsorbsInterThreadConflict)
{
    SystemConfig cfg = smallBep(BarrierKind::LBIDT);
    System sys(cfg);
    sys.setWorkload(0, std::make_unique<ScriptWorkload>(
                           std::vector<cpu::MemOp>{
                               cpu::MemOp::store(kBase),
                               cpu::MemOp::barrier(),
                           }));
    sys.setWorkload(1, std::make_unique<ScriptWorkload>(
                           std::vector<cpu::MemOp>{
                               cpu::MemOp::compute(3000),
                               cpu::MemOp::load(kBase),
                               cpu::MemOp::store(kBase + 4096),
                               cpu::MemOp::barrier(),
                           }));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(res.violations.empty());
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    EXPECT_GE(sumStat(stats, {"persist", "idtResolutions"}), 1.0);
    EXPECT_GE(sumStat(stats, {"persist.arbiter[1]", "idtDepsRecorded"}), 1.0);
}

TEST(PersistProtocol, WriteWriteSharingStealsIncarnation)
{
    // T1 overwrites T0's unpersisted line (IDT): the incarnation moves
    // to T1's epoch and the ordering edge is still enforced.
    SystemConfig cfg = smallBep(BarrierKind::LBIDT);
    System sys(cfg);
    sys.setWorkload(0, std::make_unique<ScriptWorkload>(
                           std::vector<cpu::MemOp>{
                               cpu::MemOp::store(kBase),
                               cpu::MemOp::barrier(),
                           }));
    sys.setWorkload(1, std::make_unique<ScriptWorkload>(
                           std::vector<cpu::MemOp>{
                               cpu::MemOp::compute(3000),
                               cpu::MemOp::store(kBase),
                               cpu::MemOp::barrier(),
                           }));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(res.violations.empty())
        << "violation: " << res.violations.front();
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    EXPECT_GE(sumStat(stats, {"persist", "stealsClean"}) +
                  sumStat(stats, {"persist", "stealsInFlight"}),
              1.0);
}

TEST(PersistProtocol, Figure5DeadlockWithoutSplitting)
{
    SystemConfig cfg = smallBep(BarrierKind::LB);
    cfg.barrier.splitOngoing = false;
    System sys(cfg);
    // Ei and Ej stay ongoing while each reads the other's dirty line.
    sys.setWorkload(0, std::make_unique<ScriptWorkload>(
                           std::vector<cpu::MemOp>{
                               cpu::MemOp::store(kBase),
                               cpu::MemOp::compute(2000),
                               cpu::MemOp::load(kBase + 4096),
                               cpu::MemOp::barrier(),
                           }));
    sys.setWorkload(1, std::make_unique<ScriptWorkload>(
                           std::vector<cpu::MemOp>{
                               cpu::MemOp::store(kBase + 4096),
                               cpu::MemOp::compute(2000),
                               cpu::MemOp::load(kBase),
                               cpu::MemOp::barrier(),
                           }));
    SimResult res = sys.run();
    EXPECT_TRUE(res.deadlocked);
    EXPECT_FALSE(res.completed);
}

TEST(PersistProtocol, Figure5AvoidedBySplitting)
{
    SystemConfig cfg = smallBep(BarrierKind::LB);
    ASSERT_TRUE(cfg.barrier.splitOngoing);
    System sys(cfg);
    sys.setWorkload(0, std::make_unique<ScriptWorkload>(
                           std::vector<cpu::MemOp>{
                               cpu::MemOp::store(kBase),
                               cpu::MemOp::compute(2000),
                               cpu::MemOp::load(kBase + 4096),
                               cpu::MemOp::barrier(),
                           }));
    sys.setWorkload(1, std::make_unique<ScriptWorkload>(
                           std::vector<cpu::MemOp>{
                               cpu::MemOp::store(kBase + 4096),
                               cpu::MemOp::compute(2000),
                               cpu::MemOp::load(kBase),
                               cpu::MemOp::barrier(),
                           }));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(res.violations.empty());
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    EXPECT_GE(sumStat(stats, {"persist.arbiter[0]", "splits"}) +
                  sumStat(stats, {"persist.arbiter[1]", "splits"}),
              1.0);
}

TEST(PersistProtocol, EpochWindowBackpressure)
{
    // More barriers than the in-flight window: the core must stall and
    // recover (the stall demands flushes, §4.3).
    SystemConfig cfg = smallBep(BarrierKind::LB);
    cfg.barrier.maxInflightEpochs = 2;
    System sys(cfg);
    std::vector<cpu::MemOp> ops;
    for (int e = 0; e < 12; ++e) {
        ops.push_back(cpu::MemOp::store(kBase + e * 4096));
        ops.push_back(cpu::MemOp::barrier());
    }
    sys.setWorkload(0, std::make_unique<ScriptWorkload>(ops));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(res.violations.empty());
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    EXPECT_GE(sumStat(stats, {"persist.arbiter[0]", "barrierStalls"}), 1.0);
    EXPECT_GE(sumStat(stats, {"persist.arbiter[0]", "epochsPersisted"}), 12.0);
}

TEST(PersistProtocol, InvalidatingFlushDropsLines)
{
    // clflush-mode: after the flush the line re-misses; clwb keeps it.
    auto runWith = [](bool invalidating) {
        SystemConfig cfg = smallBep(BarrierKind::LB);
        cfg.barrier.invalidatingFlush = invalidating;
        System sys(cfg);
        std::vector<cpu::MemOp> ops = {
            cpu::MemOp::store(kBase),    cpu::MemOp::barrier(),
            cpu::MemOp::store(kBase),    // conflict -> flush of epoch 0
            cpu::MemOp::barrier(),
        };
        sys.setWorkload(0, std::make_unique<ScriptWorkload>(ops));
        SimResult res = sys.run();
        EXPECT_TRUE(res.completed);
        const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
        return sumStat(stats, {"l1[0]", "misses"});
    };
    const double missesClwb = runWith(false);
    const double missesClflush = runWith(true);
    EXPECT_GT(missesClflush, missesClwb);
}

TEST(PersistProtocol, BlockingBarrierWaitsForPersist)
{
    // EP barriers block: execution time must exceed the NVRAM write
    // latency for each epoch with dirty lines.
    SystemConfig cfg = SystemConfig::smallTest(2);
    applyPersistencyModel(cfg, PersistencyModel::Epoch, BarrierKind::LB);
    System sys(cfg);
    std::vector<cpu::MemOp> ops;
    for (int e = 0; e < 4; ++e) {
        ops.push_back(cpu::MemOp::store(kBase + e * 4096));
        ops.push_back(cpu::MemOp::barrier());
    }
    sys.setWorkload(0, std::make_unique<ScriptWorkload>(ops));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    EXPECT_GE(res.execTicks, 4 * cfg.nvram.writeLatency);
}

TEST(PersistProtocol, ChecksumOfProtocolMessageEconomy)
{
    // O(n^2) strawman sends more mesh packets than the arbiter design
    // for the same workload (§4.1).
    auto packets = [](bool useArbiter) {
        SystemConfig cfg = smallBep(BarrierKind::LB);
        cfg.barrier.useArbiter = useArbiter;
        System sys(cfg);
        std::vector<cpu::MemOp> ops;
        for (int e = 0; e < 6; ++e) {
            ops.push_back(cpu::MemOp::store(kBase + e * 4096));
            ops.push_back(cpu::MemOp::store(kBase));  // forces conflicts
            ops.push_back(cpu::MemOp::barrier());
        }
        sys.setWorkload(0, std::make_unique<ScriptWorkload>(ops));
        SimResult res = sys.run();
        EXPECT_TRUE(res.completed);
        return sys.mesh().packetsSent();
    };
    EXPECT_GT(packets(false), packets(true));
}

TEST(PersistProtocol, BspLogsPersistBeforeData)
{
    // The checker enforces the §5.2.1 rule; a clean run proves the
    // machinery orders undo-log writes ahead of epoch data.
    SystemConfig cfg = SystemConfig::smallTest(4);
    applyPersistencyModel(cfg, PersistencyModel::BufferedStrict,
                          BarrierKind::LBPP, 32);
    System sys(cfg);
    auto workloads = workload::makeSyntheticWorkloads("dedup", 4, 600, 3);
    for (unsigned t = 0; t < 4; ++t)
        sys.setWorkload(static_cast<CoreId>(t), std::move(workloads[t]));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(res.violations.empty())
        << "violation: " << res.violations.front();
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    EXPECT_GT(sumStat(stats, {"persist.arbiter[*]", "logWrites"}), 0.0);
    EXPECT_GT(sumStat(stats, {"persist.arbiter[*]", "checkpointLines"}),
              0.0);
}

TEST(PersistProtocol, DrainLeavesNoUnpersistedState)
{
    SystemConfig cfg = smallBep(BarrierKind::LB);
    System sys(cfg);
    // Stores with NO final barrier: the end-of-run drain must flush the
    // open tail epoch.
    std::vector<cpu::MemOp> ops = {
        cpu::MemOp::store(kBase),
        cpu::MemOp::store(kBase + 4096),
    };
    sys.setWorkload(0, std::make_unique<ScriptWorkload>(ops));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(res.violations.empty());
    EXPECT_GT(res.drainTicks, res.execTicks);
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    EXPECT_GE(sumStat(stats, {"persist.arbiter[0]", "flushDrain"}), 1.0);
}

} // namespace persim
