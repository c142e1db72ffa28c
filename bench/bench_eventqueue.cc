/**
 * @file
 * Microbenchmarks for the event-kernel hot path: schedule/run at 1M
 * events, with small and oversized captures, a steady-state run of self-rescheduling chains, plus the
 * InlineFunction construct/invoke cost in isolation. These are the operations every simulated cycle pays for;
 * `perfbench/run.py --workload bsp-lb` times them end to end.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <functional>

#include "prof/phase.hh"
#include "sim/event_queue.hh"
#include "sim/inline_callback.hh"
#include "sim/trace.hh"

namespace
{

using persim::EventQueue;
using persim::InlineCallback;
using persim::Tick;

constexpr std::uint64_t kEvents = 1'000'000;

/** Schedule-and-drain with a minimal ([this]-sized) capture. */
void
BM_ScheduleRun_SmallCapture(benchmark::State &state)
{
    std::uint64_t sink = 0;
    for (auto _ : state) {
        EventQueue eq;
        for (std::uint64_t i = 0; i < kEvents; ++i)
            eq.schedule(i & 1023, [&sink] { ++sink; });
        eq.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kEvents));
}
BENCHMARK(BM_ScheduleRun_SmallCapture)->Unit(benchmark::kMillisecond);

/** Schedule-and-drain with the largest capture that still fits inline
 * (six pointers) — the upper edge of the no-allocation path. */
void
BM_ScheduleRun_InlineEdgeCapture(benchmark::State &state)
{
    struct Fat
    {
        std::uint64_t a, b, c, d, e;
        std::uint64_t *sink;
    };
    static_assert(sizeof(Fat) == InlineCallback::kInlineBytes);
    std::uint64_t sink = 0;
    for (auto _ : state) {
        EventQueue eq;
        for (std::uint64_t i = 0; i < kEvents; ++i) {
            Fat fat{i, i + 1, i + 2, i + 3, i + 4, &sink};
            eq.schedule(i & 1023, [fat] { *fat.sink += fat.a; });
        }
        eq.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kEvents));
}
BENCHMARK(BM_ScheduleRun_InlineEdgeCapture)->Unit(benchmark::kMillisecond);

/** Oversized capture: exercises the CallbackArena free-list fallback
 * (continuation-over-continuation chains take this path). */
void
BM_ScheduleRun_ArenaCapture(benchmark::State &state)
{
    struct Huge
    {
        std::uint64_t pad[9];
        std::uint64_t *sink;
    };
    static_assert(sizeof(Huge) > InlineCallback::kInlineBytes);
    std::uint64_t sink = 0;
    for (auto _ : state) {
        EventQueue eq;
        for (std::uint64_t i = 0; i < kEvents; ++i) {
            Huge h{{i}, &sink};
            eq.schedule(i & 1023, [h] { *h.sink += h.pad[0]; });
        }
        eq.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kEvents));
}
BENCHMARK(BM_ScheduleRun_ArenaCapture)->Unit(benchmark::kMillisecond);

/** Steady-state self-rescheduling chain (the shape simulation objects
 * actually produce: one event in flight per object). */
void
BM_SelfRescheduleChain(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t count = 0;
        std::function<void()> chain = [&] {
            if (++count < kEvents)
                eq.scheduleIn(1, chain);
        };
        eq.scheduleIn(1, chain);
        eq.run();
        benchmark::DoNotOptimize(count);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kEvents));
}
BENCHMARK(BM_SelfRescheduleChain)->Unit(benchmark::kMillisecond);

/**
 * Steady state as the simulator produces it: 32 self-rescheduling
 * chains (one per simulated core), each re-arming itself 1-360 ticks
 * ahead (one cycle up to an NVRAM write), so a few dozen events are in
 * flight at any time. The 1M-events-up-front benchmarks above measure
 * a queue far deeper than any simulation reaches.
 */
void
BM_SteadyStateChains(benchmark::State &state)
{
    constexpr unsigned kChains = 32;
    struct Chain
    {
        EventQueue *eq;
        std::uint64_t *remaining;
        std::uint32_t lcg;

        void
        fire()
        {
            if (*remaining == 0)
                return;
            --*remaining;
            lcg = lcg * 1664525u + 1013904223u;
            const Tick delay = 1 + (lcg >> 8) % 360;
            eq->scheduleIn(delay, [this] { fire(); });
        }
    };
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t remaining = kEvents;
        std::array<Chain, kChains> chains;
        for (unsigned c = 0; c < kChains; ++c) {
            chains[c] = Chain{&eq, &remaining, c + 1};
            eq.scheduleIn(1 + c, [ch = &chains[c]] { ch->fire(); });
        }
        eq.run();
        benchmark::DoNotOptimize(remaining);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kEvents));
}
BENCHMARK(BM_SteadyStateChains)->Unit(benchmark::kMillisecond);

/** InlineFunction construct+invoke in isolation (no queue). */
void
BM_InlineCallbackInvoke(benchmark::State &state)
{
    std::uint64_t sink = 0;
    for (auto _ : state) {
        InlineCallback cb([&sink] { ++sink; });
        cb();
        benchmark::DoNotOptimize(cb);
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_InlineCallbackInvoke);

/**
 * The disabled observability probe path: exactly what every model
 * probe site pays per event when no Recorder is attached — one
 * thread-local load and a predictable branch. A per-event cost here
 * shows up multiplied by ~10^8 in a figure sweep, so this is the
 * benchmark that enforces "zero-cost when off". Compare against
 * BM_ScheduleRun_SmallCapture: the delta must stay within noise.
 */
void
BM_ScheduleRun_DisabledProbe(benchmark::State &state)
{
    std::uint64_t sink = 0;
    for (auto _ : state) {
        EventQueue eq;
        for (std::uint64_t i = 0; i < kEvents; ++i) {
            eq.schedule(i & 1023, [&sink, &eq] {
                ++sink;
                if (persim::trace::probing()) [[unlikely]] {
                    persim::trace::span(eq.now(), eq.now() + 1, "bench",
                                        "tick", "Epoch");
                }
            });
        }
        eq.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kEvents));
}
BENCHMARK(BM_ScheduleRun_DisabledProbe)->Unit(benchmark::kMillisecond);

/**
 * The disabled profiler phase-scope path: what every instrumented
 * component entry pays per event when Sampler::attachThread has not
 * run on the thread — one inlined thread-local load and a predictable
 * branch, mirroring BM_ScheduleRun_DisabledProbe for trace probes.
 * The ISSUE acceptance bar ("--prof off ⇒ sweep wall time within 2%")
 * rests on this staying at parity with the probe benchmark.
 */
void
BM_ScheduleRun_DisabledPhaseScope(benchmark::State &state)
{
    std::uint64_t sink = 0;
    for (auto _ : state) {
        EventQueue eq;
        for (std::uint64_t i = 0; i < kEvents; ++i) {
            eq.schedule(i & 1023, [&sink] {
                persim::prof::ScopedPhase phase(
                    persim::prof::Phase::EventLoop);
                ++sink;
            });
        }
        eq.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kEvents));
}
BENCHMARK(BM_ScheduleRun_DisabledPhaseScope)
    ->Unit(benchmark::kMillisecond);

/** std::function construct+invoke for comparison. */
void
BM_StdFunctionInvoke(benchmark::State &state)
{
    std::uint64_t sink = 0;
    for (auto _ : state) {
        std::function<void()> cb([&sink] { ++sink; });
        cb();
        benchmark::DoNotOptimize(cb);
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_StdFunctionInvoke);

} // namespace

BENCHMARK_MAIN();
