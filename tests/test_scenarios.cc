/**
 * @file
 * End-to-end scenario tests tied to specific paper claims: the Figure
 * 10 queue-insert recovery story, strict persistency's program-order
 * guarantee, the IDT pull mechanism, and buffered-barrier asynchrony.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "model/recovery.hh"
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

TEST(Scenario, Figure10QueueInsertIsAtomicAtEveryCrashPoint)
{
    // QUEUE_INSERT: copy the 512B entry (epoch A), barrier, bump Head
    // (epoch B), barrier. At any crash, either the whole entry is
    // durable before any Head update, or nothing usable is lost.
    SystemConfig cfg = SystemConfig::smallTest(2);
    applyPersistencyModel(cfg, PersistencyModel::BufferedEpoch,
                          BarrierKind::LB);
    cfg.keepPersistLog = true;
    System sys(cfg);
    const Addr headPtr = kBase + 0x10000;
    std::vector<cpu::MemOp> ops;
    for (int insert = 0; insert < 6; ++insert) {
        for (int l = 0; l < 8; ++l) { // Epoch A: the entry payload
            ops.push_back(cpu::MemOp::store(
                kBase + (insert * 8 + l) * kLineBytes));
        }
        ops.push_back(cpu::MemOp::barrier());
        ops.push_back(cpu::MemOp::store(headPtr)); // Epoch B: publish
        ops.push_back(cpu::MemOp::barrier());
    }
    sys.setWorkload(0, std::make_unique<Script>(ops));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(res.violations.empty());

    // At every crash point, a durable Head update implies its entry's
    // 8 lines are durable (epoch prefix-closure).
    model::RecoveryAnalysis ra(sys.checker()->log(), 2);
    EXPECT_GT(ra.firstInconsistency(), ra.logSize());
}

TEST(Scenario, StrictPersistencyPersistsInProgramOrder)
{
    // Naive SP: the durable-write stream must reproduce program order.
    SystemConfig cfg = SystemConfig::smallTest(2);
    applyPersistencyModel(cfg, PersistencyModel::Strict,
                          BarrierKind::None);
    cfg.keepPersistLog = true;
    System sys(cfg);
    std::vector<cpu::MemOp> ops;
    std::vector<Addr> order;
    for (int i = 0; i < 12; ++i) {
        const Addr a = kBase + ((i * 7) % 12) * kLineBytes;
        ops.push_back(cpu::MemOp::store(a));
        order.push_back(a);
    }
    sys.setWorkload(0, std::make_unique<Script>(ops));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);

    const auto &log = sys.checker()->log();
    ASSERT_EQ(log.size(), order.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(log[i].addr, order[i]) << "position " << i;
}

TEST(Scenario, BufferedBarrierDoesNotWaitForPersists)
{
    // BEP vs EP on the identical single-threaded script: the buffered
    // barrier must finish the *execution* markedly earlier.
    auto execTicks = [](PersistencyModel pm) {
        SystemConfig cfg = SystemConfig::smallTest(2);
        applyPersistencyModel(cfg, pm, BarrierKind::LB);
        System sys(cfg);
        std::vector<cpu::MemOp> ops;
        for (int e = 0; e < 6; ++e) {
            // Distinct lines: no conflicts, so BEP never waits.
            for (int l = 0; l < 4; ++l)
                ops.push_back(cpu::MemOp::store(
                    kBase + (e * 4 + l) * kLineBytes));
            ops.push_back(cpu::MemOp::barrier());
        }
        sys.setWorkload(0, std::make_unique<Script>(ops));
        SimResult res = sys.run();
        EXPECT_TRUE(res.completed);
        EXPECT_TRUE(res.violations.empty());
        return res.execTicks;
    };
    const Tick bep = execTicks(PersistencyModel::BufferedEpoch);
    const Tick ep = execTicks(PersistencyModel::Epoch);
    EXPECT_LT(bep * 2, ep); // EP pays >= one flush per barrier
}

TEST(Scenario, IdtPullFlushesAnIdleSource)
{
    // Core 1 writes a line and then sits idle (no conflicts of its own,
    // no PF). Core 0 reads the line under LB+IDT: the dependence is
    // recorded and core 0's flush must PULL core 1's epoch (§4.2's
    // enforcement), not deadlock behind it.
    SystemConfig cfg = SystemConfig::smallTest(2);
    applyPersistencyModel(cfg, PersistencyModel::BufferedEpoch,
                          BarrierKind::LBIDT);
    System sys(cfg);
    sys.setWorkload(1, std::make_unique<Script>(std::vector<cpu::MemOp>{
                           cpu::MemOp::store(kBase),
                           cpu::MemOp::barrier(),
                           // stay alive but quiet
                           cpu::MemOp::compute(60000),
                       }));
    sys.setWorkload(0, std::make_unique<Script>(std::vector<cpu::MemOp>{
                           cpu::MemOp::compute(2500),
                           cpu::MemOp::load(kBase), // IDT dependence
                           cpu::MemOp::store(kBase + 4096),
                           cpu::MemOp::barrier(),
                           // Force core 0's epoch to need persisting:
                           cpu::MemOp::store(kBase + 4096),
                           cpu::MemOp::barrier(),
                       }));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed) << "deadlocked=" << res.deadlocked;
    EXPECT_TRUE(res.violations.empty())
        << "first: " << res.violations.front();
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    EXPECT_GE(sumStat(stats, {"persist", "idtResolutions"}), 1.0);
    // Core 1's epoch was flushed with an inter-thread attribution even
    // though core 1 itself never conflicted again (the pull).
    EXPECT_GE(sumStat(stats, {"persist.arbiter[1]", "flushInter"}), 1.0);
}

TEST(Scenario, LoadForwardingStillOrdersPersists)
{
    // A load forwarded from the write buffer must not let the epoch
    // machinery miss the store's line.
    SystemConfig cfg = SystemConfig::smallTest(2);
    applyPersistencyModel(cfg, PersistencyModel::BufferedEpoch,
                          BarrierKind::LBPP);
    cfg.keepPersistLog = true;
    System sys(cfg);
    std::vector<cpu::MemOp> ops = {
        cpu::MemOp::store(kBase),
        cpu::MemOp::load(kBase), // forwarded
        cpu::MemOp::barrier(),
        cpu::MemOp::store(kBase + 4096),
        cpu::MemOp::barrier(),
    };
    sys.setWorkload(0, std::make_unique<Script>(ops));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(res.violations.empty());
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    EXPECT_GE(sumStat(stats, {"core[0]", "forwards"}), 1.0);
    model::RecoveryAnalysis ra(sys.checker()->log(), 2);
    EXPECT_GT(ra.firstInconsistency(), ra.logSize());
}

TEST(Scenario, BspEpochBoundariesFollowStoreCount)
{
    SystemConfig cfg = SystemConfig::smallTest(2);
    applyPersistencyModel(cfg, PersistencyModel::BufferedStrict,
                          BarrierKind::LBPP, /*epochSize=*/8);
    System sys(cfg);
    std::vector<cpu::MemOp> ops;
    for (int i = 0; i < 40; ++i)
        ops.push_back(cpu::MemOp::store(kBase + i * kLineBytes));
    sys.setWorkload(0, std::make_unique<Script>(ops));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    // 40 stores at 8 per epoch: 5 hardware barriers.
    EXPECT_EQ(sumStat(stats, {"core[0]", "barriers"}), 5.0);
    EXPECT_GE(sumStat(stats, {"persist.arbiter[0]", "epochsPersisted"}), 5.0);
}

} // namespace persim
