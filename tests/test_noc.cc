/**
 * @file
 * Unit tests for the mesh network: routing, latency, serialization and
 * contention.
 */

#include <gtest/gtest.h>

#include "exp/stats_export.hh"
#include "noc/mesh.hh"
#include "noc/network_interface.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace persim::noc
{

namespace
{

MeshConfig
smallMesh()
{
    MeshConfig cfg;
    cfg.rows = 2;
    cfg.cols = 4;
    return cfg;
}

} // namespace

TEST(Mesh, HopCountIsManhattanDistance)
{
    EventQueue eq;
    Mesh mesh("mesh", eq, smallMesh());
    mesh.attach(0, 0, 0);
    mesh.attach(1, 3, 1);
    mesh.attach(2, 0, 0); // co-located with node 0
    EXPECT_EQ(mesh.hops(0, 1), 4u);
    EXPECT_EQ(mesh.hops(1, 0), 4u);
    EXPECT_EQ(mesh.hops(0, 2), 0u);
}

TEST(Mesh, IdleLatencyMatchesFormula)
{
    EventQueue eq;
    MeshConfig cfg = smallMesh(); // router 2cy, link 1cy, 16B flits
    Mesh mesh("mesh", eq, cfg);
    mesh.attach(0, 0, 0);
    mesh.attach(1, 2, 0);
    // 2 hops, 1 flit: inject(2) + 2*(2+1) + eject link(1) + 0 = 9.
    EXPECT_EQ(mesh.idleLatency(0, 1, 8), 9u);
    // 5 flits (72B): + 4 cycles of tail serialization.
    EXPECT_EQ(mesh.idleLatency(0, 1, 72), 13u);
}

TEST(Mesh, DeliversAtComputedTick)
{
    EventQueue eq;
    Mesh mesh("mesh", eq, smallMesh());
    mesh.attach(0, 0, 0);
    mesh.attach(1, 3, 0);
    Tick delivered = 0;
    const Tick expected = mesh.idleLatency(0, 1, 8);
    mesh.send(0, 1, 8, [&] { delivered = eq.now(); });
    eq.run();
    EXPECT_EQ(delivered, expected);
}

TEST(Mesh, SameRouterStillPaysLocalLatency)
{
    EventQueue eq;
    Mesh mesh("mesh", eq, smallMesh());
    mesh.attach(0, 1, 1);
    mesh.attach(1, 1, 1);
    Tick delivered = 0;
    mesh.send(0, 1, 8, [&] { delivered = eq.now(); });
    eq.run();
    EXPECT_GT(delivered, 0u);
    EXPECT_LE(delivered, 4u);
}

TEST(Mesh, ContentionSerializesOnSharedLink)
{
    EventQueue eq;
    Mesh mesh("mesh", eq, smallMesh());
    mesh.attach(0, 0, 0);
    mesh.attach(1, 3, 0);
    std::vector<Tick> arrivals;
    // Ten 72B packets (5 flits) injected the same tick over one path:
    // the first link serializes them 5 cycles apart.
    for (int i = 0; i < 10; ++i)
        mesh.send(0, 1, 72, [&] { arrivals.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(arrivals.size(), 10u);
    for (std::size_t i = 1; i < arrivals.size(); ++i)
        EXPECT_GE(arrivals[i], arrivals[i - 1] + 5);
}

TEST(Mesh, DisjointPathsDoNotInterfere)
{
    EventQueue eq;
    Mesh mesh("mesh", eq, smallMesh());
    mesh.attach(0, 0, 0);
    mesh.attach(1, 1, 0);
    mesh.attach(2, 2, 1);
    mesh.attach(3, 3, 1);
    Tick t01 = 0, t23 = 0;
    mesh.send(0, 1, 72, [&] { t01 = eq.now(); });
    mesh.send(2, 3, 72, [&] { t23 = eq.now(); });
    eq.run();
    EXPECT_EQ(t01, mesh.idleLatency(0, 1, 72));
    EXPECT_EQ(t23, mesh.idleLatency(2, 3, 72));
}

TEST(Mesh, StatsCountPacketsAndFlits)
{
    EventQueue eq;
    Mesh mesh("mesh", eq, smallMesh());
    mesh.attach(0, 0, 0);
    mesh.attach(1, 3, 1);
    mesh.send(0, 1, 8, [] {});
    mesh.send(0, 1, 72, [] {});
    eq.run();
    EXPECT_EQ(mesh.packetsSent(), 2u);
    const exp::JsonValue stats = exp::statGroupsToJson({&mesh.stats()});
    EXPECT_DOUBLE_EQ(exp::sumStat(stats, {"mesh", "flits"}), 6.0); // 1 + 5
}

TEST(Mesh, UnattachedNodesPanic)
{
    EventQueue eq;
    Mesh mesh("mesh", eq, smallMesh());
    mesh.attach(0, 0, 0);
    EXPECT_THROW(mesh.send(0, 9, 8, [] {}), SimPanic);
    EXPECT_THROW(mesh.hops(5, 0), SimPanic);
    EXPECT_THROW(mesh.attach(0, 1, 1), SimPanic); // double attach
    EXPECT_THROW(mesh.attach(7, 9, 9), SimPanic); // off-mesh
}

TEST(NetworkInterface, SendsStandardSizes)
{
    EventQueue eq;
    Mesh mesh("mesh", eq, smallMesh());
    NetworkInterface a("a", mesh, 0, 0, 0);
    NetworkInterface b("b", mesh, 1, 3, 1);
    int got = 0;
    a.sendControl(1, [&] { ++got; });
    b.sendData(0, [&] { ++got; });
    eq.run();
    EXPECT_EQ(got, 2);
    const exp::JsonValue stats = exp::statGroupsToJson({&mesh.stats()});
    EXPECT_DOUBLE_EQ(exp::sumStat(stats, {"mesh", "flits"}), 1.0 + 5.0);
}

} // namespace persim::noc
