/**
 * @file
 * Edge-case tests: replacement conflicts, IDT register overflow,
 * stale-tag handling after clwb flushes, epoch-table splits under
 * pressure, and mesh/NoC corner cases.
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

class Script : public cpu::Workload
{
  public:
    explicit Script(std::vector<cpu::MemOp> ops) : _ops(std::move(ops)) {}

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

} // namespace

TEST(ReplacementConflict, TaggedLlcVictimForcesEpochFlush)
{
    // Tiny LLC with avoidance off: streaming writes evict tagged lines,
    // and each tagged eviction must flush its epoch first.
    SystemConfig cfg = SystemConfig::smallTest(2);
    applyPersistencyModel(cfg, PersistencyModel::BufferedEpoch,
                          BarrierKind::LB);
    cfg.llcBank.geometry = cache::CacheGeometry{4 * 1024, 2};
    cfg.barrier.avoidTaggedVictims = false;
    System sys(cfg);
    std::vector<cpu::MemOp> ops;
    // One open epoch writing far more lines than the LLC holds.
    for (int i = 0; i < 400; ++i)
        ops.push_back(cpu::MemOp::store(kBase + i * kLineBytes));
    ops.push_back(cpu::MemOp::barrier());
    sys.setWorkload(0, std::make_unique<Script>(ops));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed) << "deadlocked=" << res.deadlocked;
    EXPECT_TRUE(res.violations.empty())
        << "first: " << res.violations.front();
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    EXPECT_GT(sumStat(stats, {"persist", "replacementConflicts"}), 0.0);
    // Replacement conflicts against the open epoch force splits.
    EXPECT_GT(sumStat(stats, {"persist.arbiter[0]", "splits"}), 0.0);
}

TEST(ReplacementConflict, VictimAvoidanceReducesConflicts)
{
    auto conflictsWith = [](bool avoid) {
        SystemConfig cfg = SystemConfig::smallTest(2);
        applyPersistencyModel(cfg, PersistencyModel::BufferedEpoch,
                              BarrierKind::LB);
        cfg.llcBank.geometry = cache::CacheGeometry{8 * 1024, 4};
        cfg.barrier.avoidTaggedVictims = avoid;
        System sys(cfg);
        std::vector<cpu::MemOp> ops;
        for (int e = 0; e < 8; ++e) {
            for (int i = 0; i < 64; ++i) {
                ops.push_back(cpu::MemOp::store(
                    kBase + (e * 64 + i) * kLineBytes));
            }
            ops.push_back(cpu::MemOp::barrier());
        }
        sys.setWorkload(0, std::make_unique<Script>(ops));
        SimResult res = sys.run();
        EXPECT_TRUE(res.completed);
        return sumStat(exp::statGroupsToJson(sys.statGroups()),
                       {"persist", "replacementConflicts"});
    };
    EXPECT_LE(conflictsWith(true), conflictsWith(false));
}

TEST(IdtOverflow, FallsBackToOnlineFlush)
{
    // One reader epoch depends on more distinct source epochs than it
    // has dependence registers: the excess resolves online.
    SystemConfig cfg = SystemConfig::smallTest(4);
    applyPersistencyModel(cfg, PersistencyModel::BufferedEpoch,
                          BarrierKind::LBIDT);
    cfg.barrier.idtRegsPerEpoch = 1;
    System sys(cfg);
    // Cores 1..3 each write two lines in two epochs.
    for (unsigned c = 1; c < 4; ++c) {
        std::vector<cpu::MemOp> ops;
        for (int e = 0; e < 2; ++e) {
            ops.push_back(
                cpu::MemOp::store(kBase + (c * 8 + e) * 4096));
            ops.push_back(cpu::MemOp::barrier());
        }
        sys.setWorkload(static_cast<CoreId>(c),
                        std::make_unique<Script>(ops));
    }
    // Core 0 reads all six lines inside one epoch.
    std::vector<cpu::MemOp> reader = {cpu::MemOp::compute(5000)};
    for (unsigned c = 1; c < 4; ++c)
        for (int e = 0; e < 2; ++e)
            reader.push_back(
                cpu::MemOp::load(kBase + (c * 8 + e) * 4096));
    reader.push_back(cpu::MemOp::barrier());
    sys.setWorkload(0, std::make_unique<Script>(reader));

    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(res.violations.empty());
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    EXPECT_GT(sumStat(stats, {"persist.arbiter[*]", "idtOverflows"}), 0.0);
}

TEST(StaleTag, ClwbRetainedLineRewritesCleanly)
{
    // Store A; conflict-flush via a second epoch store; then a THIRD
    // epoch store to the same line hits the stale (persisted) tag and
    // must clear it without a new conflict.
    SystemConfig cfg = SystemConfig::smallTest(2);
    applyPersistencyModel(cfg, PersistencyModel::BufferedEpoch,
                          BarrierKind::LB);
    System sys(cfg);
    std::vector<cpu::MemOp> ops = {
        cpu::MemOp::store(kBase),  cpu::MemOp::barrier(),
        cpu::MemOp::store(kBase),  cpu::MemOp::barrier(),
        // A long pause lets epoch 1's (conflict-triggered) flush finish.
        cpu::MemOp::compute(50000),
        cpu::MemOp::store(kBase),  cpu::MemOp::barrier(),
    };
    sys.setWorkload(0, std::make_unique<Script>(ops));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(res.violations.empty());
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    // Two intra conflicts at most (store2 vs e0; store3 may hit e1 if
    // its flush had not finished) — and never a panic from the stale
    // tag path.
    EXPECT_GE(sumStat(stats, {"persist", "intraConflicts"}), 1.0);
    EXPECT_LE(sumStat(stats, {"persist", "intraConflicts"}), 2.0);
}

TEST(BspEdge, TinyEpochsStressTheWindow)
{
    // Epoch size 4 with a 3-deep window: continuous window pressure.
    SystemConfig cfg = SystemConfig::smallTest(2);
    applyPersistencyModel(cfg, PersistencyModel::BufferedStrict,
                          BarrierKind::LBPP, /*epochSize=*/4);
    cfg.barrier.maxInflightEpochs = 3;
    // Slow persists guarantee the 3-slot window fills.
    cfg.nvram.writeLatency = 4000;
    System sys(cfg);
    auto workloads = workload::makeSyntheticWorkloads("radix", 2, 400, 5);
    for (unsigned t = 0; t < 2; ++t)
        sys.setWorkload(static_cast<CoreId>(t), std::move(workloads[t]));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed) << "deadlocked=" << res.deadlocked;
    EXPECT_TRUE(res.violations.empty())
        << "first: " << res.violations.front();
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    EXPECT_GT(sumStat(stats, {"persist.arbiter[0]", "barrierStalls"}), 0.0);
}

TEST(BspEdge, CheckpointLinesScaleWithEpochs)
{
    SystemConfig cfg = SystemConfig::smallTest(2);
    applyPersistencyModel(cfg, PersistencyModel::BufferedStrict,
                          BarrierKind::LBPP, /*epochSize=*/16);
    System sys(cfg);
    std::vector<cpu::MemOp> ops;
    for (int i = 0; i < 64; ++i)
        ops.push_back(cpu::MemOp::store(kBase + i * kLineBytes));
    sys.setWorkload(0, std::make_unique<Script>(ops));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    // 64 stores / 16-per-epoch = 4 boundaries (+1 drain tail), each
    // writing 16 checkpoint lines.
    EXPECT_GE(sumStat(stats, {"persist.arbiter[0]", "checkpointLines"}),
              4 * 16.0);
    EXPECT_GE(sumStat(stats, {"persist.arbiter[0]", "logWrites"}), 64.0);
}

TEST(SpWriteThrough, EveryStoreReachesNvram)
{
    SystemConfig cfg = SystemConfig::smallTest(2);
    applyPersistencyModel(cfg, PersistencyModel::Strict,
                          BarrierKind::None);
    System sys(cfg);
    std::vector<cpu::MemOp> ops;
    for (int i = 0; i < 20; ++i)
        ops.push_back(cpu::MemOp::store(kBase + (i % 4) * kLineBytes));
    sys.setWorkload(0, std::make_unique<Script>(ops));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    // No coalescing under naive SP: one NVRAM write per store.
    EXPECT_GE(sumStat(stats, {"mc[*]", "nvram.writes"}), 20.0);
}

TEST(MeshEdge, SingleTileMeshWorks)
{
    EventQueue eq;
    noc::MeshConfig mc;
    mc.rows = 1;
    mc.cols = 1;
    noc::Mesh mesh("m", eq, mc);
    mesh.attach(0, 0, 0);
    mesh.attach(1, 0, 0);
    int delivered = 0;
    mesh.send(0, 1, 64, [&] { ++delivered; });
    eq.run();
    EXPECT_EQ(delivered, 1);
}

TEST(MeshEdge, LargePacketSerializes)
{
    EventQueue eq;
    noc::MeshConfig mc;
    mc.rows = 1;
    mc.cols = 2;
    noc::Mesh mesh("m", eq, mc);
    mesh.attach(0, 0, 0);
    mesh.attach(1, 1, 0);
    // A 1KB packet is 64 flits: tail serialization dominates.
    const Tick lat = mesh.idleLatency(0, 1, 1024);
    EXPECT_GE(lat, 63u);
}

} // namespace persim
