/**
 * @file
 * Unit tests for the NVRAM timing model and memory controllers.
 */

#include <gtest/gtest.h>

#include <vector>

#include "exp/stats_export.hh"
#include "noc/mesh.hh"
#include "noc/network_interface.hh"
#include "nvm/memory_controller.hh"
#include "nvm/nvram.hh"
#include "sim/event_queue.hh"

namespace persim::nvm
{

TEST(Nvram, BasicLatencies)
{
    StatGroup g("g");
    Nvram dev("dev", NvramConfig{}, &g);
    EXPECT_EQ(dev.write(1000, 0x40), 1000u + 360u); // line 1 -> bank 0
    EXPECT_EQ(dev.read(1000, 0x100), 1000u + 240u); // line 4 -> bank 1
}

TEST(Nvram, SameBankSerializes)
{
    NvramConfig cfg;
    cfg.banks = 4;
    cfg.bankShift = 2; // 4 controllers: lines 0,4,8,... reach this one
    Nvram dev("dev", cfg, nullptr);
    // Lines 0 and 16 map to bank 0 (shift strips the controller bits).
    const Tick t1 = dev.write(0, 0 * 64);
    const Tick t2 = dev.write(0, 16 * 64);
    EXPECT_EQ(t1, 360u);
    EXPECT_EQ(t2, 720u);
    // Line 4 maps to bank 1, which is free.
    EXPECT_EQ(dev.write(0, 4 * 64), 360u);
}

TEST(Nvram, CountsAccesses)
{
    Nvram dev("dev", NvramConfig{}, nullptr);
    dev.write(0, 0x40);
    dev.write(10, 0x80);
    dev.read(20, 0xC0);
    EXPECT_EQ(dev.writes(), 2u);
    EXPECT_EQ(dev.reads(), 1u);
}

namespace
{

struct TestObserver : PersistObserver
{
    struct Rec
    {
        Tick when;
        Addr addr;
        CoreId core;
        EpochId epoch;
        bool isLog;
    };
    std::vector<Rec> recs;

    void
    onPersist(Tick when, Addr addr, CoreId core, EpochId epoch,
              bool isLog) override
    {
        recs.push_back({when, addr, core, epoch, isLog});
    }
};

} // namespace

TEST(MemoryController, WritePersistAckRoundTrip)
{
    EventQueue eq;
    noc::MeshConfig mc;
    mc.rows = 1;
    mc.cols = 2;
    noc::Mesh mesh("mesh", eq, mc);
    MemoryController ctrl("mc0", eq, mesh, 10, 0, 0, NvramConfig{});
    mesh.attach(0, 1, 0); // requester node

    TestObserver obs;
    ctrl.setObserver(&obs);

    Tick ackAt = 0;
    WriteReq req;
    req.addr = 0x1040;
    req.core = 3;
    req.epoch = 7;
    req.replyTo = 0;
    req.onPersist = [&] { ackAt = eq.now(); };
    ctrl.handleWrite(std::move(req));
    eq.run();

    ASSERT_EQ(obs.recs.size(), 1u);
    EXPECT_EQ(obs.recs[0].addr, 0x1040u);
    EXPECT_EQ(obs.recs[0].core, 3);
    EXPECT_EQ(obs.recs[0].epoch, 7u);
    EXPECT_FALSE(obs.recs[0].isLog);
    EXPECT_EQ(obs.recs[0].when, 360u); // durable point
    EXPECT_GT(ackAt, obs.recs[0].when); // ack travels over the mesh
    EXPECT_GE(ctrl.lastDurableTick(), 360u);
}

TEST(MemoryController, ReadReturnsData)
{
    EventQueue eq;
    noc::MeshConfig mc;
    mc.rows = 1;
    mc.cols = 2;
    noc::Mesh mesh("mesh", eq, mc);
    MemoryController ctrl("mc0", eq, mesh, 10, 0, 0, NvramConfig{});
    mesh.attach(0, 1, 0);

    Tick dataAt = 0;
    ReadReq req;
    req.addr = 0x2000;
    req.replyTo = 0;
    req.onData = [&] { dataAt = eq.now(); };
    ctrl.handleRead(std::move(req));
    eq.run();
    EXPECT_GT(dataAt, 240u);
}

TEST(MemoryController, LogWritesCounted)
{
    EventQueue eq;
    noc::MeshConfig mc;
    mc.rows = 1;
    mc.cols = 2;
    noc::Mesh mesh("mesh", eq, mc);
    MemoryController ctrl("mc0", eq, mesh, 10, 0, 0, NvramConfig{});
    mesh.attach(0, 1, 0);
    WriteReq req;
    req.addr = 0x40;
    req.isLog = true;
    req.replyTo = 0;
    ctrl.handleWrite(std::move(req));
    eq.run();
    const exp::JsonValue stats = exp::statGroupsToJson({&ctrl.stats()});
    EXPECT_DOUBLE_EQ(exp::sumStat(stats, {"mc0", "logWrites"}), 1.0);
    EXPECT_DOUBLE_EQ(exp::sumStat(stats, {"mc0", "persistAcks"}), 1.0);
}

namespace
{

/** A controller at node 10 and one requester at node 0 on a 1x2 mesh. */
struct PooledRig
{
    EventQueue eq;
    noc::Mesh mesh{"mesh", eq, [] {
                       noc::MeshConfig c;
                       c.rows = 1;
                       c.cols = 2;
                       return c;
                   }()};
    MemoryController ctrl{"mc0", eq, mesh, 10, 0, 0, NvramConfig{}};
    noc::NetworkInterface req{"req", mesh, 0, 1, 0};
};

/** Line i of a run that all maps to NVRAM bank 0 (32 banks, shift 2). */
Addr
bankZeroLine(unsigned i)
{
    return Addr{i} * 128 * kLineBytes;
}

constexpr unsigned kBurst = 1000;

} // namespace

TEST(MemoryController, PooledWritesAckInDurableOrderAndReuseSlots)
{
    PooledRig rig;
    TestObserver obs;
    rig.ctrl.setObserver(&obs);
    std::vector<unsigned> acks;
    for (unsigned burst = 0; burst < 2; ++burst) {
        acks.clear();
        obs.recs.clear();
        const Tick start = rig.eq.now();
        for (unsigned i = 0; i < kBurst; ++i) {
            WriteReq req;
            req.addr = bankZeroLine(i);
            req.core = 1;
            req.epoch = i;
            req.replyTo = rig.req.nodeId();
            req.onPersist = [&acks, i] { acks.push_back(i); };
            rig.ctrl.sendWrite(rig.req, std::move(req));
        }
        EXPECT_EQ(rig.ctrl.writeReqs().live(), kBurst);
        rig.eq.run();

        ASSERT_EQ(acks.size(), kBurst);
        ASSERT_EQ(obs.recs.size(), kBurst);
        for (unsigned i = 0; i < kBurst; ++i) {
            EXPECT_EQ(acks[i], i) << "burst " << burst;
            EXPECT_EQ(obs.recs[i].epoch, i);
            EXPECT_EQ(obs.recs[i].addr, bankZeroLine(i));
            if (i > 0) {
                EXPECT_EQ(obs.recs[i].when, obs.recs[i - 1].when + 360u);
            }
        }
        EXPECT_GT(obs.recs[0].when, start);
        EXPECT_EQ(rig.ctrl.writeReqs().live(), 0u);
        // The second burst runs in the first burst's slots.
        EXPECT_EQ(rig.ctrl.writeReqs().allocated(), kBurst);
    }
}

TEST(MemoryController, PooledReadsReplyInOrderAndReuseSlots)
{
    PooledRig rig;
    std::vector<std::pair<unsigned, Tick>> replies;
    for (unsigned burst = 0; burst < 2; ++burst) {
        replies.clear();
        for (unsigned i = 0; i < kBurst; ++i) {
            ReadReq req;
            req.addr = bankZeroLine(i);
            req.replyTo = rig.req.nodeId();
            req.onData = [&replies, &rig, i] {
                replies.emplace_back(i, rig.eq.now());
            };
            rig.ctrl.sendRead(rig.req, std::move(req));
        }
        EXPECT_EQ(rig.ctrl.readReqs().live(), kBurst);
        rig.eq.run();

        ASSERT_EQ(replies.size(), kBurst);
        for (unsigned i = 0; i < kBurst; ++i) {
            EXPECT_EQ(replies[i].first, i) << "burst " << burst;
            if (i > 0) {
                EXPECT_GT(replies[i].second, replies[i - 1].second);
            }
        }
        EXPECT_EQ(rig.ctrl.readReqs().live(), 0u);
        EXPECT_EQ(rig.ctrl.readReqs().allocated(), kBurst);
    }
}

TEST(McIndex, LineInterleavesAcrossControllers)
{
    EXPECT_EQ(mcIndexFor(0 * 64, 4), 0u);
    EXPECT_EQ(mcIndexFor(1 * 64, 4), 1u);
    EXPECT_EQ(mcIndexFor(2 * 64, 4), 2u);
    EXPECT_EQ(mcIndexFor(3 * 64, 4), 3u);
    EXPECT_EQ(mcIndexFor(4 * 64, 4), 0u);
    EXPECT_EQ(mcIndexFor(4 * 64 + 63, 4), 0u);
}

} // namespace persim::nvm
