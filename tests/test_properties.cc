/**
 * @file
 * Property-based tests: parameterized sweeps over seeds, barrier
 * variants, persistency models, and workloads, asserting the system's
 * global invariants on every combination:
 *
 *   P1 liveness   — every run completes and drains;
 *   P2 ordering   — the durable-write stream respects epoch
 *                   happens-before (the ordering checker stays silent);
 *   P3 crash      — every prefix of the durable-write stream is
 *                   epoch-prefix-closed per core (recoverable);
 *   P4 accounting — after the drain, no flush-engine bookkeeping and no
 *                   epoch-tagged line survives anywhere.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "model/system.hh"
#include "workload/workload_factory.hh"

namespace persim
{

using model::PersistencyModel;
using model::SimResult;
using model::System;
using model::SystemConfig;
using persist::BarrierKind;

namespace
{

using PropertyCase =
    std::tuple<workload::MicroKind, BarrierKind, std::uint64_t>;

std::string
caseName(const testing::TestParamInfo<PropertyCase> &info)
{
    const auto &[kind, barrier, seed] = info.param;
    return std::string(workload::toString(kind)) + "_" +
           (barrier == BarrierKind::LB      ? "LB"
            : barrier == BarrierKind::LBIDT ? "IDT"
            : barrier == BarrierKind::LBPF  ? "PF"
                                            : "LBPP") +
           "_s" + std::to_string(seed);
}

void
checkPrefixClosure(
    const std::vector<model::OrderingChecker::PersistEvent> &log)
{
    // P3: walk the stream once; when the first line of epoch e appears,
    // all earlier epochs of that core must be complete (their full line
    // counts durable).
    std::map<std::pair<CoreId, EpochId>, unsigned> total;
    for (const auto &ev : log) {
        if (ev.core != kNoCore && !ev.isLog)
            ++total[{ev.core, ev.epoch}];
    }
    std::map<std::pair<CoreId, EpochId>, unsigned> seen;
    for (const auto &ev : log) {
        if (ev.core == kNoCore || ev.isLog)
            continue;
        ++seen[{ev.core, ev.epoch}];
        // Every older epoch of this core with any lines must be done.
        for (auto &[key, n] : total) {
            if (key.first != ev.core || key.second >= ev.epoch)
                continue;
            const unsigned have = seen[key];
            ASSERT_EQ(have, n)
                << "line of core " << ev.core << " epoch " << ev.epoch
                << " persisted before epoch " << key.second
                << " completed (" << have << "/" << n << ")";
        }
    }
}

} // namespace

class MicroProperties : public testing::TestWithParam<PropertyCase>
{
};

TEST_P(MicroProperties, InvariantsHold)
{
    const auto &[kind, barrier, seed] = GetParam();
    SystemConfig cfg = SystemConfig::smallTest(4);
    applyPersistencyModel(cfg, PersistencyModel::BufferedEpoch, barrier);
    cfg.keepPersistLog = true;
    cfg.seed = seed;
    System sys(cfg);
    workload::MicroConfig mc;
    mc.kind = kind;
    mc.numThreads = 4;
    mc.opsPerThread = 40;
    mc.seed = seed;
    mc.structureSize = 8; // small structures maximize conflict coverage
    auto workloads = workload::makeMicroWorkloads(mc);
    for (unsigned t = 0; t < 4; ++t)
        sys.setWorkload(static_cast<CoreId>(t), std::move(workloads[t]));

    SimResult res = sys.run();

    // P1: liveness.
    ASSERT_TRUE(res.completed)
        << "deadlocked=" << res.deadlocked
        << " timedOut=" << res.timedOut;

    // P2: ordering.
    EXPECT_TRUE(res.violations.empty())
        << "first violation: " << res.violations.front();

    // P3: crash recoverability at every prefix.
    checkPrefixClosure(sys.checker()->log());

    // P4: nothing left behind. L1 lines may keep a *stale* tag (clwb
    // retains lines; the tag is cleared lazily once the epoch
    // persisted) but only on clean lines of persisted epochs.
    for (unsigned c = 0; c < 4; ++c) {
        EXPECT_EQ(sys.l1(static_cast<CoreId>(c))
                      .flushEngine()
                      .totalLines(),
                  0u);
        EXPECT_EQ(sys.bank(c).flushEngine().totalLines(), 0u);
        sys.l1(static_cast<CoreId>(c))
            .array()
            .forEachValid([&](cache::CacheLine &line, Addr) {
                if (!line.tagged())
                    return;
                EXPECT_FALSE(line.dirty());
                EXPECT_TRUE(sys.persistController()
                                .arbiter(line.epochCore())
                                .isPersisted(line.epochId()));
            });
        sys.bank(c).array().forEachValid([](const cache::CacheLine &line,
                                            Addr) {
            EXPECT_FALSE(line.tagged());
            EXPECT_FALSE(line.pinned());
        });
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllMicrosAllBarriers, MicroProperties,
    testing::Combine(
        testing::Values(workload::MicroKind::Hash,
                        workload::MicroKind::Queue,
                        workload::MicroKind::RbTree,
                        workload::MicroKind::Sdg,
                        workload::MicroKind::Sps),
        testing::Values(BarrierKind::LB, BarrierKind::LBIDT,
                        BarrierKind::LBPF, BarrierKind::LBPP),
        testing::Values<std::uint64_t>(1, 7)),
    caseName);

// ---------------------------------------------------------------------

struct BspCase
{
    const char *preset;
    unsigned epochSize;
    std::uint64_t seed;
};

std::string
bspCaseName(const BspCase &c)
{
    return std::string(c.preset) + "_e" + std::to_string(c.epochSize) +
           "_s" + std::to_string(c.seed);
}

// Without a printer GoogleTest dumps the raw bytes of the case, which
// include the preset pointer and padding, so the listed test names would
// change with address-space randomization on every run.
void
PrintTo(const BspCase &c, std::ostream *os)
{
    *os << bspCaseName(c);
}

class BspProperties : public testing::TestWithParam<BspCase>
{
};

TEST_P(BspProperties, InvariantsHold)
{
    const BspCase &pc = GetParam();
    SystemConfig cfg = SystemConfig::smallTest(4);
    applyPersistencyModel(cfg, PersistencyModel::BufferedStrict,
                          BarrierKind::LBPP, pc.epochSize);
    cfg.keepPersistLog = true;
    System sys(cfg);
    auto workloads =
        workload::makeSyntheticWorkloads(pc.preset, 4, 500, pc.seed);
    for (unsigned t = 0; t < 4; ++t)
        sys.setWorkload(static_cast<CoreId>(t), std::move(workloads[t]));

    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    EXPECT_TRUE(res.violations.empty())
        << "first violation: " << res.violations.front();
    checkPrefixClosure(sys.checker()->log());
}

INSTANTIATE_TEST_SUITE_P(
    PresetsAndEpochSizes, BspProperties,
    testing::Values(BspCase{"ssca2", 50, 1}, BspCase{"ssca2", 300, 2},
                    BspCase{"canneal", 100, 3},
                    BspCase{"radix", 100, 4},
                    BspCase{"intruder", 50, 5},
                    BspCase{"dedup", 300, 6}),
    [](const testing::TestParamInfo<BspCase> &info) {
        return bspCaseName(info.param);
    });

// ---------------------------------------------------------------------

/** Determinism: identical configuration and seed => identical run. */
TEST(Determinism, SameSeedSameResult)
{
    auto runOnce = [] {
        SystemConfig cfg = SystemConfig::smallTest(4);
        applyPersistencyModel(cfg, PersistencyModel::BufferedEpoch,
                              BarrierKind::LBPP);
        System sys(cfg);
        workload::MicroConfig mc;
        mc.kind = workload::MicroKind::Sdg;
        mc.numThreads = 4;
        mc.opsPerThread = 60;
        mc.seed = 99;
        auto workloads = workload::makeMicroWorkloads(mc);
        for (unsigned t = 0; t < 4; ++t)
            sys.setWorkload(static_cast<CoreId>(t),
                            std::move(workloads[t]));
        SimResult res = sys.run();
        return std::make_tuple(res.execTicks, res.drainTicks, res.events,
                               res.transactions);
    };
    EXPECT_EQ(runOnce(), runOnce());
}

TEST(Determinism, DifferentSeedsDiffer)
{
    auto runWithSeed = [](std::uint64_t seed) {
        SystemConfig cfg = SystemConfig::smallTest(4);
        applyPersistencyModel(cfg, PersistencyModel::BufferedEpoch,
                              BarrierKind::LB);
        System sys(cfg);
        workload::MicroConfig mc;
        mc.kind = workload::MicroKind::Hash;
        mc.numThreads = 4;
        mc.opsPerThread = 60;
        mc.seed = seed;
        auto workloads = workload::makeMicroWorkloads(mc);
        for (unsigned t = 0; t < 4; ++t)
            sys.setWorkload(static_cast<CoreId>(t),
                            std::move(workloads[t]));
        return sys.run().execTicks;
    };
    EXPECT_NE(runWithSeed(1), runWithSeed(2));
}

} // namespace persim
