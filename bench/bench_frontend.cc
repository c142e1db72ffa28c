/**
 * @file
 * Microbenchmarks for the per-op front end: the write-buffer ring and
 * its line filter against the deque+hash-set shape it replaced, the
 * integer Distribution::sample fast path against the double path, and
 * the Scalar counter bump. Every simulated memory op crosses these
 * structures before it reaches the cache hierarchy, so their constant
 * factors multiply into every figure cell; `perfbench/run.py --workload bsp-lb` times
 * the end-to-end effect on the fig14 LB column.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "cpu/write_buffer.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace
{

using persim::Addr;
using persim::Distribution;
using persim::kLineBytes;
using persim::Scalar;
using persim::StatGroup;
using persim::cpu::WriteBuffer;

constexpr std::uint64_t kOps = 1'000'000;

/** The issueStore/pumpDrain shape: push a store, snoop a line (the
 * load-forwarding probe, mostly missing), drain the oldest — over a
 * working set far larger than the buffer, as the figure workloads do. */
void
BM_WriteBufferRingChurn(benchmark::State &state)
{
    const Addr lines = 4096;
    for (auto _ : state) {
        WriteBuffer wb(32);
        std::uint64_t fwd = 0;
        for (std::uint64_t i = 0; i < kOps; ++i) {
            const Addr addr = ((i * 17) % lines) * kLineBytes;
            if (wb.full())
                wb.pop();
            wb.push(addr);
            fwd += wb.containsLine(((i * 5) % lines) * kLineBytes);
        }
        benchmark::DoNotOptimize(fwd);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kOps));
}
BENCHMARK(BM_WriteBufferRingChurn)->Unit(benchmark::kMillisecond);

/** The shape this PR replaced: a deque of entries plus a hash map of
 * per-line reference counts, one rehash/find per push/pop/snoop. */
void
BM_WriteBufferDequeMapChurn(benchmark::State &state)
{
    const Addr lines = 4096;
    struct Entry
    {
        Addr addr;
    };
    for (auto _ : state) {
        std::deque<Entry> buf;
        std::unordered_map<Addr, unsigned> lineRefs;
        std::uint64_t fwd = 0;
        auto pop = [&] {
            const Addr line = buf.front().addr;
            buf.pop_front();
            auto it = lineRefs.find(line);
            if (--it->second == 0)
                lineRefs.erase(it);
        };
        for (std::uint64_t i = 0; i < kOps; ++i) {
            const Addr addr = ((i * 17) % lines) * kLineBytes;
            if (buf.size() >= 32)
                pop();
            buf.push_back(Entry{addr});
            ++lineRefs[addr];
            fwd += lineRefs.count(((i * 5) % lines) * kLineBytes) != 0;
        }
        benchmark::DoNotOptimize(fwd);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kOps));
}
BENCHMARK(BM_WriteBufferDequeMapChurn)->Unit(benchmark::kMillisecond);

/** Tick-valued samples through the integer fast path (header-inlined,
 * bit_width bucket selection). */
void
BM_DistributionSampleU64(benchmark::State &state)
{
    Distribution d(nullptr, "lat", "latency");
    std::uint64_t v = 1;
    for (auto _ : state) {
        v = v * 6364136223846793005ULL + 1442695040888963407ULL;
        d.sample(v >> 40); // ~tick-sized values
    }
    benchmark::DoNotOptimize(d.count());
}
BENCHMARK(BM_DistributionSampleU64);

/** The same samples through the double path (frexp-style bucketing). */
void
BM_DistributionSampleDouble(benchmark::State &state)
{
    Distribution d(nullptr, "lat", "latency");
    std::uint64_t v = 1;
    for (auto _ : state) {
        v = v * 6364136223846793005ULL + 1442695040888963407ULL;
        d.sample(static_cast<double>(v >> 40));
    }
    benchmark::DoNotOptimize(d.count());
}
BENCHMARK(BM_DistributionSampleDouble);

/** Round-robin bumps over a component's worth of group-registered
 * counters: each Scalar is just its 8-byte counter, so sixteen of them
 * fill two host cache lines of the component. */
void
BM_ScalarBump(benchmark::State &state)
{
    StatGroup g("bench");
    std::array<Scalar, 16> stats;
    for (std::size_t i = 0; i < stats.size(); ++i)
        g.add(&stats[i], "s" + std::to_string(i), "counter");
    unsigned i = 0;
    for (auto _ : state) {
        ++stats[i & 15];
        ++i;
    }
    benchmark::DoNotOptimize(stats[0].value());
}
BENCHMARK(BM_ScalarBump);

} // namespace

BENCHMARK_MAIN();
