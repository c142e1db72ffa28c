/**
 * @file
 * Microbenchmarks for the flattened LLC bank hot path: the pooled
 * per-line transaction/waiter structures (FlatAddrMap + NodePool)
 * against the node-based std containers they replaced, and the victim
 * scan over the packed 32-byte CacheLine records. Every LLC request
 * pays one map insert, one-or-more list pushes, and one erase; a
 * figure sweep multiplies that by ~10^7, which is why
 * `perfbench/run.py --workload bsp-lb` times the end-to-end effect.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "cache/cache_array.hh"
#include "cache/flat_table.hh"

namespace
{

using persim::Addr;
using persim::kLineBytes;
using persim::cache::CacheArray;
using persim::cache::CacheGeometry;
using persim::cache::CacheLine;
using persim::cache::CoherenceState;
using persim::cache::FlatAddrMap;
using persim::cache::ListRef;
using persim::cache::NodePool;

constexpr std::uint64_t kOps = 1'000'000;

/** A stand-in for LlcBank's per-line entry: two list heads + a count. */
struct Entry
{
    ListRef txns;
    ListRef waiters;
    std::uint32_t txnCount = 0;
};

/** The request/finish shape: insert a line entry, push a transaction,
 * pop it, erase the entry — over a hot set the size of a busy bank. */
void
BM_FlatMapTxnChurn(benchmark::State &state)
{
    const Addr hotLines = static_cast<Addr>(state.range(0));
    struct Txn
    {
        Addr addr = 0;
        bool isWrite = false;
    };
    for (auto _ : state) {
        FlatAddrMap<Entry> lines;
        NodePool<Txn> pool;
        for (std::uint64_t i = 0; i < kOps; ++i) {
            const Addr addr = (i % hotLines) * kLineBytes;
            Entry &e = lines.insertOrFind(addr);
            e.txns.pushBack(pool, pool.alloc(Txn{addr, (i & 1) != 0}));
            ++e.txnCount;
            Entry *f = lines.find(addr);
            pool.release(f->txns.popFront(pool));
            if (--f->txnCount == 0 && f->waiters.empty())
                lines.erase(addr);
        }
        benchmark::DoNotOptimize(lines.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kOps));
}
BENCHMARK(BM_FlatMapTxnChurn)
    ->Arg(16)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

/** The structure this PR replaced: unordered_map of deques, one heap
 * node per transaction. Same access pattern for comparison. */
void
BM_UnorderedMapTxnChurn(benchmark::State &state)
{
    const Addr hotLines = static_cast<Addr>(state.range(0));
    struct Txn
    {
        Addr addr = 0;
        bool isWrite = false;
    };
    for (auto _ : state) {
        std::unordered_map<Addr, std::deque<Txn>> lines;
        for (std::uint64_t i = 0; i < kOps; ++i) {
            const Addr addr = (i % hotLines) * kLineBytes;
            lines[addr].push_back(Txn{addr, (i & 1) != 0});
            auto it = lines.find(addr);
            it->second.pop_front();
            if (it->second.empty())
                lines.erase(it);
        }
        benchmark::DoNotOptimize(lines.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kOps));
}
BENCHMARK(BM_UnorderedMapTxnChurn)
    ->Arg(16)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

/** Steady-state miss lookups: find() over a table holding the busy
 * lines of a loaded bank, mostly missing (the common case — most
 * requests arrive at an idle line). */
void
BM_FlatMapLookupMostlyMiss(benchmark::State &state)
{
    FlatAddrMap<Entry> lines;
    for (Addr i = 0; i < 64; ++i)
        lines.insertOrFind(i * 8 * kLineBytes).txnCount = 1;
    std::uint64_t hits = 0;
    Addr probe = 0;
    for (auto _ : state) {
        probe = (probe + kLineBytes) & ((Addr{1} << 16) - 1);
        hits += lines.find(probe) != nullptr;
    }
    benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_FlatMapLookupMostlyMiss);

/** The victim scan: one full-associativity LRU sweep per miss, over
 * the packed 32-byte lines (two lines per host cache line). */
void
BM_VictimScanPacked(benchmark::State &state)
{
    // The paper's Table 1 LLC bank: 1 MiB, 16-way.
    CacheArray arr("bench", CacheGeometry{1024 * 1024, 16});
    const unsigned sets = CacheGeometry{1024 * 1024, 16}.sets();
    for (Addr i = 0; i < Addr{sets} * 16; ++i) {
        const Addr addr = i * kLineBytes;
        CacheLine *way = arr.victimFor(addr, false);
        if (way)
            arr.fill(*way, addr, CoherenceState::Shared);
    }
    Addr probe = 0;
    for (auto _ : state) {
        probe += kLineBytes;
        CacheLine *v = arr.victimFor(probe, false);
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(BM_VictimScanPacked);

/** Tag-array hit lookups on the packed layout. */
void
BM_PackedFind(benchmark::State &state)
{
    CacheArray arr("bench", CacheGeometry{1024 * 1024, 16});
    const unsigned sets = CacheGeometry{1024 * 1024, 16}.sets();
    const Addr lines = Addr{sets} * 16;
    for (Addr i = 0; i < lines; ++i) {
        const Addr addr = i * kLineBytes;
        CacheLine *way = arr.victimFor(addr, false);
        if (way)
            arr.fill(*way, addr, CoherenceState::Shared);
    }
    Addr probe = 0;
    std::uint64_t hits = 0;
    for (auto _ : state) {
        probe = (probe + 7 * kLineBytes) % (lines * kLineBytes);
        hits += arr.find(probe) != nullptr;
    }
    benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_PackedFind);

} // namespace

BENCHMARK_MAIN();
