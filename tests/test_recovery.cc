/**
 * @file
 * Tests for the RecoveryAnalysis API (crash-point recoverability).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "model/recovery.hh"
#include "model/system.hh"
#include "sim/rng.hh"
#include "workload/workload_factory.hh"

namespace persim::model
{

using Event = OrderingChecker::PersistEvent;

namespace
{

Event
data(Tick when, Addr addr, CoreId core, EpochId epoch)
{
    return Event{when, addr, core, epoch, false};
}

/** Epoch 0: two lines, then epoch 1: one line. */
std::vector<Event>
prefixLog()
{
    return {data(10, 0x100, 0, 0), data(20, 0x140, 0, 0),
            data(30, 0x180, 0, 1)};
}

/** Epoch 0: one line, then epoch 1: two lines. */
std::vector<Event>
partialTailLog()
{
    return {data(10, 0x100, 0, 0), data(20, 0x140, 0, 1),
            data(30, 0x180, 0, 1)};
}

/** Epoch 1's line durable while epoch 0 is missing one. */
std::vector<Event>
outOfOrderLog()
{
    return {data(10, 0x100, 0, 0), data(20, 0x180, 0, 1),
            data(30, 0x140, 0, 0)};
}

/** An undo-log write ahead of the data line it protects. */
std::vector<Event>
logWriteLog()
{
    return {Event{5, 0x900, 0, 0, true}, data(10, 0x100, 0, 0)};
}

/** Two cores, two one-line epochs each, interleaved. */
std::vector<Event>
twoCoreLog()
{
    return {data(10, 0x100, 0, 0), data(20, 0x200, 1, 0),
            data(30, 0x140, 0, 1), data(40, 0x240, 1, 1)};
}

/**
 * A seeded log over @p cores cores: each core's epochs persist in
 * order, the cores interleave at random, and with @p swaps > 0 that
 * many random adjacent pairs are exchanged, which can persist a line
 * ahead of an earlier epoch's. Undo-log and core-less writes ride
 * along and must not count.
 */
std::vector<Event>
randomLog(std::uint64_t seed, unsigned cores, unsigned swaps)
{
    Rng rng(seed);
    std::vector<std::vector<Event>> perCore(cores);
    Addr addr = 0x1000;
    for (unsigned c = 0; c < cores; ++c) {
        const unsigned epochs = 1 + rng.below(6);
        for (EpochId e = 0; e < epochs; ++e) {
            const unsigned lines = 1 + rng.below(4);
            for (unsigned l = 0; l < lines; ++l) {
                if (rng.below(5) == 0)
                    perCore[c].push_back(
                        Event{0, addr, static_cast<CoreId>(c), e, true});
                perCore[c].push_back(
                    data(0, addr += 0x40, static_cast<CoreId>(c), e));
            }
        }
    }
    std::vector<Event> log;
    std::vector<std::size_t> next(cores, 0);
    for (;;) {
        std::vector<unsigned> live;
        for (unsigned c = 0; c < cores; ++c)
            if (next[c] < perCore[c].size())
                live.push_back(c);
        if (live.empty())
            break;
        const unsigned c = live[rng.below(live.size())];
        log.push_back(perCore[c][next[c]++]);
        if (rng.below(8) == 0)
            log.push_back(Event{0, 0x40, kNoCore, 0, false});
    }
    for (unsigned s = 0; s < swaps && log.size() > 1; ++s) {
        const std::size_t i = rng.below(log.size() - 1);
        std::swap(log[i], log[i + 1]);
    }
    for (std::size_t i = 0; i < log.size(); ++i)
        log[i].when = 10 * (i + 1);
    return log;
}

/** The definition: analyze() at every cut, first inconsistent one. */
std::size_t
bruteFirstInconsistency(const RecoveryAnalysis &ra)
{
    for (std::size_t cut = 0; cut <= ra.logSize(); ++cut)
        if (!ra.analyze(cut).consistent)
            return cut;
    return ra.logSize() + 1;
}

} // namespace

TEST(RecoveryAnalysis, EmptyLogIsConsistent)
{
    std::vector<Event> log;
    RecoveryAnalysis ra(log, 2);
    RecoveryReport rep = ra.analyze(0);
    EXPECT_TRUE(rep.consistent);
    EXPECT_EQ(rep.durableLines, 0u);
    EXPECT_EQ(rep.cores[0].lastComplete, kNoEpoch);
}

TEST(RecoveryAnalysis, PrefixOfEpochsRecovered)
{
    const std::vector<Event> log = prefixLog();
    RecoveryAnalysis ra(log, 1);

    RecoveryReport afterTwo = ra.analyze(2);
    EXPECT_TRUE(afterTwo.consistent);
    EXPECT_EQ(afterTwo.cores[0].lastComplete, 0u);
    EXPECT_FALSE(afterTwo.cores[0].hasPartialEpoch);

    RecoveryReport afterAll = ra.analyze(3);
    EXPECT_TRUE(afterAll.consistent);
    EXPECT_EQ(afterAll.cores[0].lastComplete, 1u);
}

TEST(RecoveryAnalysis, PartialTailEpochIsUndoable)
{
    const std::vector<Event> log = partialTailLog();
    RecoveryAnalysis ra(log, 1);
    RecoveryReport rep = ra.analyze(2); // epoch 1 half-done
    EXPECT_TRUE(rep.consistent);
    EXPECT_EQ(rep.cores[0].lastComplete, 0u);
    ASSERT_TRUE(rep.cores[0].hasPartialEpoch);
    EXPECT_EQ(rep.cores[0].partialEpoch, 1u);
    ASSERT_EQ(rep.cores[0].linesToUndo.size(), 1u);
    EXPECT_EQ(rep.cores[0].linesToUndo[0], 0x140u);
}

TEST(RecoveryAnalysis, OutOfOrderPersistIsInconsistent)
{
    const std::vector<Event> log = outOfOrderLog();
    RecoveryAnalysis ra(log, 1);
    // Full log: everything durable -> consistent.
    EXPECT_TRUE(ra.analyze(3).consistent);
    // But at crash point 2, epoch 0 is partial while epoch 1 persisted.
    RecoveryReport rep = ra.analyze(2);
    EXPECT_FALSE(rep.consistent);
    EXPECT_FALSE(rep.problems.empty());
    EXPECT_EQ(ra.firstInconsistency(), 2u);
}

TEST(RecoveryAnalysis, LogWritesDoNotCount)
{
    const std::vector<Event> log = logWriteLog();
    RecoveryAnalysis ra(log, 1);
    RecoveryReport rep = ra.analyze(2);
    EXPECT_TRUE(rep.consistent);
    EXPECT_EQ(rep.durableLines, 1u);
}

TEST(RecoveryAnalysis, CoresAreIndependent)
{
    const std::vector<Event> log = twoCoreLog();
    RecoveryAnalysis ra(log, 2);
    RecoveryReport rep = ra.analyze(3);
    EXPECT_TRUE(rep.consistent);
    EXPECT_EQ(rep.cores[0].lastComplete, 1u);
    EXPECT_EQ(rep.cores[1].lastComplete, 0u);
}

TEST(RecoveryAnalysis, OnePassMatchesAnalyzeAtEveryCut)
{
    const std::vector<std::pair<std::vector<Event>, unsigned>> handBuilt =
        {{{}, 2},
         {prefixLog(), 1},
         {partialTailLog(), 1},
         {outOfOrderLog(), 1},
         {logWriteLog(), 1},
         {twoCoreLog(), 2}};
    for (const auto &[log, cores] : handBuilt) {
        RecoveryAnalysis ra(log, cores);
        EXPECT_EQ(ra.firstInconsistency(), bruteFirstInconsistency(ra));
    }

    unsigned inconsistent = 0;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        const unsigned cores = 1 + static_cast<unsigned>(seed % 3);
        const unsigned swaps = static_cast<unsigned>(seed % 4);
        const std::vector<Event> log = randomLog(seed, cores, swaps);
        RecoveryAnalysis ra(log, cores);
        const std::size_t want = bruteFirstInconsistency(ra);
        EXPECT_EQ(ra.firstInconsistency(), want) << "seed " << seed;
        inconsistent += want <= ra.logSize() ? 1 : 0;
    }
    // The seeds must exercise both verdicts.
    EXPECT_GT(inconsistent, 0u);
    EXPECT_LT(inconsistent, 60u);
}

TEST(RecoveryAnalysis, RealRunIsRecoverableEverywhere)
{
    model::SystemConfig cfg = model::SystemConfig::smallTest(4);
    applyPersistencyModel(cfg, model::PersistencyModel::BufferedEpoch,
                          persist::BarrierKind::LBPP);
    cfg.keepPersistLog = true;
    model::System sys(cfg);
    workload::MicroConfig mc;
    mc.kind = workload::MicroKind::Hash;
    mc.numThreads = 4;
    mc.opsPerThread = 50;
    auto workloads = workload::makeMicroWorkloads(mc);
    for (unsigned t = 0; t < 4; ++t)
        sys.setWorkload(static_cast<CoreId>(t), std::move(workloads[t]));
    model::SimResult res = sys.run();
    ASSERT_TRUE(res.completed);

    RecoveryAnalysis ra(sys.checker()->log(), 4);
    EXPECT_GT(ra.logSize(), 0u);
    EXPECT_GT(ra.firstInconsistency(), ra.logSize());
}

} // namespace persim::model
