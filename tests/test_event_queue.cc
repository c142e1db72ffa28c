/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace persim
{

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.runNext());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            eq.scheduleIn(7, chain);
    };
    eq.scheduleIn(1, chain);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 1u + 4 * 7);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(50, [] {}), SimPanic);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int count = 0;
    for (Tick t = 10; t <= 100; t += 10)
        eq.schedule(t, [&] { ++count; });
    eq.runUntil(50);
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_EQ(eq.pending(), 5u);
    eq.run();
    EXPECT_EQ(count, 10);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenDrained)
{
    EventQueue eq;
    eq.runUntil(1000);
    EXPECT_EQ(eq.now(), 1000u);
}

TEST(EventQueue, MaxEventsBound)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> loop = [&] {
        ++count;
        eq.scheduleIn(1, loop);
    };
    eq.scheduleIn(1, loop);
    EXPECT_EQ(eq.run(100), 100u);
    EXPECT_EQ(count, 100);
}

// ---------------------------------------------------------------------
// Pooled nodes, overflow guard
// ---------------------------------------------------------------------

TEST(EventQueue, FiredNodeLeavesNoResidue)
{
    // A fired event's node goes straight back to the free list, and
    // the next schedule reuses it.
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_EQ(eq.poolAllocated(), 1u);
    EXPECT_EQ(eq.poolFree(), 1u);
    eq.schedule(20, [] {});
    EXPECT_EQ(eq.poolFree(), 0u);
    eq.run();
    EXPECT_EQ(eq.poolAllocated(), 1u); // the node was recycled, not leaked
    EXPECT_EQ(eq.poolFree(), 1u);
}

TEST(EventQueue, PoolNodesAreRecycled)
{
    EventQueue eq;
    int ran = 0;
    for (int i = 0; i < 1000; ++i) {
        eq.scheduleIn(1, [&ran] { ++ran; });
        eq.scheduleIn(1, [&ran] { ++ran; });
        eq.run();
    }
    // Two events in flight at a time: the pool never needs more nodes.
    EXPECT_EQ(ran, 2000);
    EXPECT_EQ(eq.poolAllocated(), 2u);
    EXPECT_EQ(eq.poolFree(), 2u);
}

TEST(EventQueue, FiredCaptureIsReleasedOnRecycle)
{
    // The node drops its closure (and anything it owns) as soon as the
    // callback returns, not when the node is next reused.
    EventQueue eq;
    auto token = std::make_shared<int>(42);
    std::weak_ptr<int> watch = token;
    int seen = 0;
    eq.schedule(10, [token = std::move(token), &seen] { seen = *token; });
    EXPECT_FALSE(watch.expired());
    eq.run();
    EXPECT_EQ(seen, 42);
    EXPECT_TRUE(watch.expired());
}

TEST(EventQueue, NullCallbackPanics)
{
    EventQueue eq;
    EXPECT_THROW(eq.schedule(10, EventQueue::Callback()), SimPanic);
    EXPECT_EQ(eq.poolAllocated(), 0u);
}

TEST(EventQueue, ScheduleInOverflowPanics)
{
    EventQueue eq;
    eq.runUntil(100); // now() == 100
    EXPECT_THROW(eq.scheduleIn(kTickNever - 50, [] {}), SimPanic);
    // The boundary case still fits: now + delay == kTickNever.
    eq.scheduleIn(kTickNever - 100, [] {});
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, ExecutedCounterCounts)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(i + 1, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 7u);
}

// ---------------------------------------------------------------------
// In-place dispatch: callbacks run inside their pool node
// ---------------------------------------------------------------------

TEST(EventQueue, CallbackGrowingThePoolKeepsItsCaptures)
{
    // The running callback schedules enough events to add pool chunks
    // while it still executes from its own node; chunks never move, so
    // its captures must read back intact afterwards.
    EventQueue eq;
    const std::size_t grow = 2 * EventQueue::kPoolChunk + 7;
    std::vector<std::pair<Tick, std::size_t>> fired;
    std::vector<std::uint64_t> seen;
    const std::vector<std::uint64_t> payload{11, 22, 33};
    eq.schedule(5, [&, payload, a = std::uint64_t{0xabcdef},
                    b = std::uint64_t{0x123456}] {
        for (std::size_t i = 0; i < grow; ++i) {
            eq.scheduleIn(i % 7, [&fired, &eq, i] {
                fired.emplace_back(eq.now(), i);
            });
        }
        seen = payload;
        seen.push_back(a);
        seen.push_back(b);
    });
    eq.run();
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{11, 22, 33, 0xabcdef,
                                                0x123456}));
    EXPECT_GT(eq.poolAllocated(), 2 * EventQueue::kPoolChunk);

    // (tick, FIFO) order: ticks never decrease, and within one tick
    // events fire in the order they were scheduled.
    ASSERT_EQ(fired.size(), grow);
    for (std::size_t k = 1; k < fired.size(); ++k) {
        const auto &prev = fired[k - 1];
        const auto &cur = fired[k];
        ASSERT_TRUE(prev.first < cur.first ||
                    (prev.first == cur.first && prev.second < cur.second))
            << "event " << cur.second << " at tick " << cur.first
            << " after event " << prev.second << " at tick "
            << prev.first;
    }
    EXPECT_EQ(fired.front(), (std::pair<Tick, std::size_t>{5, 0}));
    EXPECT_EQ(eq.poolFree(), eq.poolAllocated());
}

} // namespace persim
