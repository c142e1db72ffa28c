/**
 * @file
 * Coherence-protocol tests: directory invariants, recalls, sharer
 * invalidations, inclusion, and load-forwarding through the hierarchy —
 * driven via small scripted systems with persistence off (NP), so the
 * cache behaviour is isolated from the persist machinery.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "exp/stats_export.hh"
#include "model/system.hh"

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
npConfig(unsigned cores = 4)
{
    SystemConfig cfg = SystemConfig::smallTest(cores);
    applyPersistencyModel(cfg, PersistencyModel::NoPersistency,
                          persist::BarrierKind::None);
    return cfg;
}

/** Check every directory invariant over all banks and L1s. */
void
checkDirectoryInvariants(System &sys, unsigned cores)
{
    for (unsigned b = 0; b < cores; ++b) {
        sys.bank(b).array().forEachValid([&](cache::CacheLine &line) {
            // Owner and sharers are mutually exclusive.
            if (line.owner() != kNoCore) {
                EXPECT_EQ(line.sharers(), 0u)
                    << "owned line with sharers: 0x" << std::hex
                    << line.addr();
            }
            // The owner really holds the line (inclusion + precision).
            if (line.owner() != kNoCore) {
                cache::CacheLine *l1Line =
                    sys.l1(line.owner()).find(line.addr());
                ASSERT_NE(l1Line, nullptr)
                    << "directory owner lost line 0x" << std::hex
                    << line.addr();
                EXPECT_TRUE(l1Line->state() ==
                                cache::CoherenceState::Modified ||
                            l1Line->state() ==
                                cache::CoherenceState::Exclusive);
            }
            // Every recorded sharer holds a Shared copy.
            for (unsigned c = 0; c < cores; ++c) {
                if (line.sharers() & (std::uint64_t{1} << c)) {
                    cache::CacheLine *l1Line =
                        sys.l1(static_cast<CoreId>(c)).find(line.addr());
                    ASSERT_NE(l1Line, nullptr);
                    EXPECT_EQ(l1Line->state(),
                              cache::CoherenceState::Shared);
                }
            }
        });
    }
    // Inclusion: every valid L1 line has an LLC copy at its home bank.
    for (unsigned c = 0; c < cores; ++c) {
        sys.l1(static_cast<CoreId>(c))
            .array()
            .forEachValid([&](cache::CacheLine &line) {
                const unsigned home =
                    cache::homeBankOf(line.addr(), cores);
                EXPECT_NE(sys.bank(home).find(line.addr()), nullptr)
                    << "inclusion violated for 0x" << std::hex
                    << line.addr();
            });
    }
}

} // namespace

TEST(Coherence, ReadThenWriteUpgrades)
{
    SystemConfig cfg = npConfig();
    System sys(cfg);
    sys.setWorkload(0, std::make_unique<Script>(std::vector<cpu::MemOp>{
                           cpu::MemOp::load(kBase),
                           cpu::MemOp::compute(50),
                           cpu::MemOp::store(kBase),
                       }));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    cache::CacheLine *line = sys.l1(0).find(kBase);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->state(), cache::CoherenceState::Modified);
    EXPECT_TRUE(line->dirty());
    checkDirectoryInvariants(sys, 4);
}

TEST(Coherence, SoleReaderGetsExclusive)
{
    SystemConfig cfg = npConfig();
    System sys(cfg);
    sys.setWorkload(2, std::make_unique<Script>(std::vector<cpu::MemOp>{
                           cpu::MemOp::load(kBase),
                       }));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    cache::CacheLine *line = sys.l1(2).find(kBase);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->state(), cache::CoherenceState::Exclusive);
    const unsigned home = cache::homeBankOf(kBase, 4);
    EXPECT_EQ(sys.bank(home).find(kBase)->owner(), 2);
}

TEST(Coherence, TwoReadersShare)
{
    SystemConfig cfg = npConfig();
    System sys(cfg);
    sys.setWorkload(0, std::make_unique<Script>(std::vector<cpu::MemOp>{
                           cpu::MemOp::load(kBase),
                       }));
    sys.setWorkload(1, std::make_unique<Script>(std::vector<cpu::MemOp>{
                           cpu::MemOp::compute(2000),
                           cpu::MemOp::load(kBase),
                       }));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    // Reader 0 was downgraded from Exclusive to Shared by reader 1.
    cache::CacheLine *l0 = sys.l1(0).find(kBase);
    cache::CacheLine *l1 = sys.l1(1).find(kBase);
    ASSERT_NE(l0, nullptr);
    ASSERT_NE(l1, nullptr);
    EXPECT_EQ(l0->state(), cache::CoherenceState::Shared);
    EXPECT_EQ(l1->state(), cache::CoherenceState::Shared);
    checkDirectoryInvariants(sys, 4);
}

TEST(Coherence, WriterInvalidatesSharers)
{
    SystemConfig cfg = npConfig();
    System sys(cfg);
    sys.setWorkload(0, std::make_unique<Script>(std::vector<cpu::MemOp>{
                           cpu::MemOp::load(kBase),
                       }));
    sys.setWorkload(1, std::make_unique<Script>(std::vector<cpu::MemOp>{
                           cpu::MemOp::compute(2000),
                           cpu::MemOp::store(kBase),
                       }));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(sys.l1(0).find(kBase), nullptr); // invalidated
    cache::CacheLine *l1 = sys.l1(1).find(kBase);
    ASSERT_NE(l1, nullptr);
    EXPECT_EQ(l1->state(), cache::CoherenceState::Modified);
    checkDirectoryInvariants(sys, 4);
}

TEST(Coherence, DirtyLineRecalledForRemoteRead)
{
    SystemConfig cfg = npConfig();
    System sys(cfg);
    sys.setWorkload(0, std::make_unique<Script>(std::vector<cpu::MemOp>{
                           cpu::MemOp::store(kBase),
                       }));
    sys.setWorkload(1, std::make_unique<Script>(std::vector<cpu::MemOp>{
                           cpu::MemOp::compute(2000),
                           cpu::MemOp::load(kBase),
                       }));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    // Writer downgraded to Shared; LLC copy now dirty.
    cache::CacheLine *l0 = sys.l1(0).find(kBase);
    ASSERT_NE(l0, nullptr);
    EXPECT_EQ(l0->state(), cache::CoherenceState::Shared);
    EXPECT_FALSE(l0->dirty());
    const unsigned home = cache::homeBankOf(kBase, 4);
    cache::CacheLine *llc = sys.bank(home).find(kBase);
    ASSERT_NE(llc, nullptr);
    EXPECT_TRUE(llc->dirty());
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    EXPECT_GE(sumStat(stats, {"llc[*]", "recalls"}), 1.0);
}

TEST(Coherence, WriteMissAfterRemoteWrite)
{
    // Ping-pong: both cores write the same line alternately.
    SystemConfig cfg = npConfig();
    System sys(cfg);
    std::vector<cpu::MemOp> a, b;
    for (int i = 0; i < 5; ++i) {
        a.push_back(cpu::MemOp::store(kBase));
        a.push_back(cpu::MemOp::compute(500));
        b.push_back(cpu::MemOp::compute(250));
        b.push_back(cpu::MemOp::store(kBase));
        b.push_back(cpu::MemOp::compute(250));
    }
    sys.setWorkload(0, std::make_unique<Script>(a));
    sys.setWorkload(1, std::make_unique<Script>(b));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    checkDirectoryInvariants(sys, 4);
    // Exactly one core can own the line at the end.
    const bool own0 = sys.l1(0).find(kBase) &&
                      sys.l1(0).find(kBase)->state() ==
                          cache::CoherenceState::Modified;
    const bool own1 = sys.l1(1).find(kBase) &&
                      sys.l1(1).find(kBase)->state() ==
                          cache::CoherenceState::Modified;
    EXPECT_NE(own0, own1);
}

TEST(Coherence, CapacityEvictionsPreserveInvariants)
{
    // Stream far past the tiny L1 (4KB in smallTest): every fill
    // evicts; directory must stay exact throughout.
    SystemConfig cfg = npConfig();
    System sys(cfg);
    std::vector<cpu::MemOp> ops;
    for (int i = 0; i < 600; ++i)
        ops.push_back(cpu::MemOp::store(kBase + i * kLineBytes));
    for (int i = 0; i < 600; i += 7)
        ops.push_back(cpu::MemOp::load(kBase + i * kLineBytes));
    sys.setWorkload(0, std::make_unique<Script>(ops));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    checkDirectoryInvariants(sys, 4);
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    EXPECT_GT(sumStat(stats, {"l1[0]", "writebacksDirty"}), 0.0);
}

TEST(Coherence, LlcCapacityEvictionsWriteDirtyDataToNvram)
{
    // Blow out the small LLC (32KB x 4 banks): dirty untagged victims
    // must reach NVRAM.
    SystemConfig cfg = npConfig();
    System sys(cfg);
    std::vector<cpu::MemOp> ops;
    for (int i = 0; i < 4000; ++i)
        ops.push_back(cpu::MemOp::store(kBase + i * kLineBytes));
    sys.setWorkload(0, std::make_unique<Script>(ops));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    const double evictions = sumStat(stats, {"llc[*]", "evictionsDirty"});
    const double nvWrites = sumStat(stats, {"mc[*]", "nvram.writes"});
    EXPECT_GT(evictions, 0.0);
    EXPECT_GE(nvWrites, evictions);
    checkDirectoryInvariants(sys, 4);
}

TEST(Coherence, LoadForwardsFromWriteBuffer)
{
    SystemConfig cfg = npConfig();
    System sys(cfg);
    sys.setWorkload(0, std::make_unique<Script>(std::vector<cpu::MemOp>{
                           cpu::MemOp::store(kBase),
                           cpu::MemOp::load(kBase), // same line: forward
                       }));
    SimResult res = sys.run();
    ASSERT_TRUE(res.completed);
    const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    EXPECT_GE(sumStat(stats, {"core[0]", "forwards"}), 1.0);
}

} // namespace persim
