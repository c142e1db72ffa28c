/**
 * @file
 * Tests of the System facade: configuration validation, stat
 * aggregation, dump formats, and SimResult semantics.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <sstream>

#include "exp/stats_export.hh"
#include "model/system.hh"
#include "sim/logging.hh"
#include "workload/workload_factory.hh"

namespace persim::model
{

using exp::sumStat;

TEST(SystemConfig, Table1Defaults)
{
    SystemConfig cfg = SystemConfig::paperTable1();
    EXPECT_EQ(cfg.numCores, 32u);
    EXPECT_EQ(cfg.mesh.rows * cfg.mesh.cols, 32u);
    EXPECT_EQ(cfg.mesh.flitBytes, 16u);
    EXPECT_EQ(cfg.numMemControllers, 4u);
    EXPECT_EQ(cfg.l1.geometry.sizeBytes, 32u * 1024);
    EXPECT_EQ(cfg.l1.geometry.ways, 4u);
    EXPECT_EQ(cfg.l1.accessLatency, 3u);
    EXPECT_EQ(cfg.llcBank.geometry.sizeBytes, 1024u * 1024);
    EXPECT_EQ(cfg.llcBank.geometry.ways, 16u);
    EXPECT_EQ(cfg.llcBank.accessLatency, 30u);
    EXPECT_EQ(cfg.nvram.writeLatency, 360u);
    EXPECT_EQ(cfg.nvram.readLatency, 240u);
    EXPECT_EQ(cfg.writeBufferEntries, 32u);
    EXPECT_EQ(cfg.barrier.maxInflightEpochs, 8u);
    EXPECT_EQ(cfg.barrier.idtRegsPerEpoch, 4u);
    EXPECT_NO_THROW(cfg.validate());
    EXPECT_NE(cfg.describe().find("32 cores"), std::string::npos);
}

TEST(SystemConfig, ValidationCatchesBadSetups)
{
    {
        SystemConfig cfg = SystemConfig::paperTable1();
        cfg.numCores = 24; // not a power of two
        EXPECT_THROW(cfg.validate(), SimFatal);
    }
    {
        SystemConfig cfg = SystemConfig::paperTable1();
        cfg.mesh.rows = 1;
        cfg.mesh.cols = 4; // too small for 32 tiles
        EXPECT_THROW(cfg.validate(), SimFatal);
    }
    {
        SystemConfig cfg = SystemConfig::paperTable1();
        cfg.llcBank.setShift = 3; // must be log2(numCores)
        EXPECT_THROW(cfg.validate(), SimFatal);
    }
    {
        SystemConfig cfg = SystemConfig::paperTable1();
        cfg.writeThrough = true; // SP with epoch machinery on
        EXPECT_THROW(cfg.validate(), SimFatal);
    }
}

TEST(SystemConfig, ModelPresetsCompose)
{
    SystemConfig cfg = SystemConfig::paperTable1();
    applyPersistencyModel(cfg, PersistencyModel::BufferedStrict,
                          persist::BarrierKind::LBPP, 1234);
    EXPECT_TRUE(cfg.barrier.enabled);
    EXPECT_TRUE(cfg.barrier.idt);
    EXPECT_TRUE(cfg.barrier.proactiveFlush);
    EXPECT_TRUE(cfg.barrier.logging);
    EXPECT_EQ(cfg.autoBarrierEvery, 1234u);
    EXPECT_EQ(cfg.barrier.checkpointLines, 16u);

    applyPersistencyModel(cfg, PersistencyModel::NoPersistency,
                          persist::BarrierKind::None);
    EXPECT_FALSE(cfg.barrier.enabled);
    EXPECT_EQ(cfg.autoBarrierEvery, 0u);
}

TEST(System, RunOnlyOnce)
{
    SystemConfig cfg = SystemConfig::smallTest(2);
    applyPersistencyModel(cfg, PersistencyModel::NoPersistency,
                          persist::BarrierKind::None);
    System sys(cfg);
    (void)sys.run();
    EXPECT_THROW((void)sys.run(), SimPanic);
}

TEST(System, IdleCoresCompleteImmediately)
{
    SystemConfig cfg = SystemConfig::smallTest(4);
    applyPersistencyModel(cfg, PersistencyModel::BufferedEpoch,
                          persist::BarrierKind::LBPP);
    System sys(cfg); // no workloads set: all idle
    SimResult res = sys.run();
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.transactions, 0u);
    EXPECT_EQ(res.execTicks, 0u);
}

TEST(System, StatsMapCoversEveryComponent)
{
    SystemConfig cfg = SystemConfig::smallTest(4);
    applyPersistencyModel(cfg, PersistencyModel::BufferedEpoch,
                          persist::BarrierKind::LB);
    System sys(cfg);
    workload::MicroConfig mc;
    mc.kind = workload::MicroKind::Sps;
    mc.numThreads = 4;
    mc.opsPerThread = 20;
    auto workloads = workload::makeMicroWorkloads(mc);
    for (unsigned t = 0; t < 4; ++t)
        sys.setWorkload(static_cast<CoreId>(t), std::move(workloads[t]));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);

    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    for (const exp::StatRef &ref : std::initializer_list<exp::StatRef>{
             {"mesh", "packets"},
             {"persist", "intraConflicts"},
             {"persist.arbiter[0]", "epochsPersisted"},
             {"mc[0]", "persistAcks"},
             {"mc[0]", "nvram.writes"},
             {"l1[0]", "loads"},
             {"l1[0]", "stores"},
             {"llc[0]", "requests"},
             {"core[0]", "ops"},
             {"core[0]", "barriers"}}) {
        EXPECT_NO_THROW(sumStat(stats, ref))
            << "missing stat " << ref.group << "." << ref.scalar;
    }
    // Sanity cross-checks between layers.
    EXPECT_GT(sumStat(stats, {"core[0]", "stores"}), 0.0);
    EXPECT_GE(sumStat(stats, {"l1[0]", "stores"}),
              sumStat(stats, {"core[0]", "stores"}));
    EXPECT_GT(sumStat(stats, {"mesh", "packets"}),
              sumStat(stats, {"llc[0]", "requests"}));
}

TEST(System, DumpStatsIsParseable)
{
    SystemConfig cfg = SystemConfig::smallTest(2);
    applyPersistencyModel(cfg, PersistencyModel::NoPersistency,
                          persist::BarrierKind::None);
    System sys(cfg);
    workload::MicroConfig mc;
    mc.kind = workload::MicroKind::Hash;
    mc.numThreads = 2;
    mc.opsPerThread = 10;
    auto workloads = workload::makeMicroWorkloads(mc);
    for (unsigned t = 0; t < 2; ++t)
        sys.setWorkload(static_cast<CoreId>(t), std::move(workloads[t]));
    (void)sys.run();

    std::ostringstream os;
    for (const StatGroup *g : sys.statGroups())
        g->dump(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("l1[0].loads"), std::string::npos);
    // Every non-empty line carries a '#' description separator.
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty())
            continue;
        EXPECT_NE(line.find('#'), std::string::npos) << line;
    }
}

TEST(System, ExecExcludesDrainButDrainFollows)
{
    SystemConfig cfg = SystemConfig::smallTest(2);
    applyPersistencyModel(cfg, PersistencyModel::BufferedEpoch,
                          persist::BarrierKind::LB);
    System sys(cfg);
    workload::MicroConfig mc;
    mc.kind = workload::MicroKind::Sps;
    mc.numThreads = 2;
    mc.opsPerThread = 10;
    auto workloads = workload::makeMicroWorkloads(mc);
    for (unsigned t = 0; t < 2; ++t)
        sys.setWorkload(static_cast<CoreId>(t), std::move(workloads[t]));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    EXPECT_GT(res.execTicks, 0u);
    EXPECT_GE(res.drainTicks, res.execTicks);
}

} // namespace persim::model
