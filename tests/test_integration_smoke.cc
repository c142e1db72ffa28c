/**
 * @file
 * End-to-end smoke tests: small systems running real workloads under
 * every barrier variant and persistency model, with the ordering checker
 * validating each run.
 */

#include <gtest/gtest.h>

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

SimResult
runMicro(workload::MicroKind kind, PersistencyModel pm, BarrierKind bk,
         unsigned cores = 4, std::uint64_t ops = 30)
{
    SystemConfig cfg = SystemConfig::smallTest(cores);
    applyPersistencyModel(cfg, pm, bk);
    System sys(cfg);
    workload::MicroConfig mc;
    mc.kind = kind;
    mc.numThreads = cores;
    mc.opsPerThread = ops;
    mc.structureSize = 64;
    auto workloads = workload::makeMicroWorkloads(mc);
    for (unsigned t = 0; t < cores; ++t)
        sys.setWorkload(static_cast<CoreId>(t), std::move(workloads[t]));
    return sys.run();
}

} // namespace

TEST(IntegrationSmoke, HashUnderLb)
{
    SimResult res = runMicro(workload::MicroKind::Hash,
                             PersistencyModel::BufferedEpoch,
                             BarrierKind::LB);
    ASSERT_TRUE(res.completed) << "deadlocked=" << res.deadlocked
                               << " timedOut=" << res.timedOut;
    EXPECT_TRUE(res.violations.empty())
        << "first violation: " << res.violations.front();
    EXPECT_EQ(res.transactions, 4u * 30u);
}

TEST(IntegrationSmoke, HashUnderLbpp)
{
    SimResult res = runMicro(workload::MicroKind::Hash,
                             PersistencyModel::BufferedEpoch,
                             BarrierKind::LBPP);
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(res.violations.empty())
        << "first violation: " << res.violations.front();
}

TEST(IntegrationSmoke, QueueUnderLbIdt)
{
    SimResult res = runMicro(workload::MicroKind::Queue,
                             PersistencyModel::BufferedEpoch,
                             BarrierKind::LBIDT);
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(res.violations.empty())
        << "first violation: " << res.violations.front();
}

TEST(IntegrationSmoke, RbTreeUnderLbPf)
{
    SimResult res = runMicro(workload::MicroKind::RbTree,
                             PersistencyModel::BufferedEpoch,
                             BarrierKind::LBPF);
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(res.violations.empty())
        << "first violation: " << res.violations.front();
}

TEST(IntegrationSmoke, SdgUnderLbpp)
{
    SimResult res = runMicro(workload::MicroKind::Sdg,
                             PersistencyModel::BufferedEpoch,
                             BarrierKind::LBPP);
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(res.violations.empty())
        << "first violation: " << res.violations.front();
}

TEST(IntegrationSmoke, SpsUnderLb)
{
    SimResult res = runMicro(workload::MicroKind::Sps,
                             PersistencyModel::BufferedEpoch,
                             BarrierKind::LB);
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(res.violations.empty())
        << "first violation: " << res.violations.front();
}

TEST(IntegrationSmoke, NoPersistencyBaseline)
{
    SimResult res = runMicro(workload::MicroKind::Hash,
                             PersistencyModel::NoPersistency,
                             BarrierKind::None);
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(res.violations.empty());
}

TEST(IntegrationSmoke, EpochPersistencyBlocksButCompletes)
{
    SimResult res = runMicro(workload::MicroKind::Hash,
                             PersistencyModel::Epoch, BarrierKind::LB);
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(res.violations.empty())
        << "first violation: " << res.violations.front();
}

TEST(IntegrationSmoke, WriteThroughStrictPersistency)
{
    SimResult res = runMicro(workload::MicroKind::Hash,
                             PersistencyModel::Strict, BarrierKind::None);
    ASSERT_TRUE(res.completed);
}

TEST(IntegrationSmoke, BspBulkModeWithLogging)
{
    SystemConfig cfg = SystemConfig::smallTest(4);
    applyPersistencyModel(cfg, PersistencyModel::BufferedStrict,
                          BarrierKind::LBPP, /*epochSize=*/64);
    System sys(cfg);
    auto workloads =
        workload::makeSyntheticWorkloads("ssca2", 4, 800, 42);
    for (unsigned t = 0; t < 4; ++t)
        sys.setWorkload(static_cast<CoreId>(t), std::move(workloads[t]));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed) << "deadlocked=" << res.deadlocked
                               << " timedOut=" << res.timedOut;
    EXPECT_TRUE(res.violations.empty())
        << "first violation: " << res.violations.front();
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    EXPECT_GT(sumStat(stats, {"persist.arbiter[0]", "logWrites"}), 0.0);
}

} // namespace persim
