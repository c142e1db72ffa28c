/**
 * @file
 * Microbenchmarks for the workload-trace subsystem: record encode,
 * envelope validation (CRC + directory), streaming decode, the
 * capture wrapper's overhead on a live workload, and replay issue
 * rate. A fig-grid capture writes a few records per simulated memory
 * op, so encode/decode throughput bounds how much tracing costs on
 * top of a sweep.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "workload/trace/trace_capture.hh"
#include "workload/trace/trace_reader.hh"
#include "workload/trace/trace_replay.hh"
#include "workload/workload_factory.hh"

namespace
{

using namespace persim;
using namespace persim::workload::trace;

constexpr std::uint64_t kRecords = 1'000'000;

/** One thread of load/store/compute/barrier churn, kRecords long. */
TraceData
syntheticData()
{
    TraceData data;
    data.meta.name = "bench";
    data.meta.threadCount = 1;
    data.meta.seed = 1;
    data.streams.resize(1);
    auto &s = data.streams[0];
    s.reserve(kRecords);
    TraceRecord r;
    for (std::uint64_t i = 0; i + 1 < kRecords; ++i) {
        r.tick = i * 3;
        switch (i & 3) {
          case 0:
            r.kind = TraceRecord::Kind::Load;
            r.addr = 0x1000 + (i % 4096) * 64;
            break;
          case 1:
            r.kind = TraceRecord::Kind::Store;
            r.addr = 0x200000 + (i % 4096) * 64;
            break;
          case 2:
            r.kind = TraceRecord::Kind::Compute;
            r.cycles = static_cast<std::uint32_t>(20 + (i % 80));
            break;
          default:
            r.kind = TraceRecord::Kind::Barrier;
            break;
        }
        s.push_back(r);
    }
    r.kind = TraceRecord::Kind::Halt;
    r.tick = kRecords * 3;
    s.push_back(r);
    return data;
}

const TraceData &
sharedData()
{
    static const TraceData data = syntheticData();
    return data;
}

const std::string &
sharedBytes()
{
    static const std::string bytes = encodeTrace(sharedData());
    return bytes;
}

void
BM_TraceEncodeRecords(benchmark::State &state)
{
    const TraceData &data = sharedData();
    for (auto _ : state) {
        std::string out;
        for (const TraceRecord &r : data.streams[0])
            appendRecord(out, r);
        benchmark::DoNotOptimize(out.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kRecords));
}
BENCHMARK(BM_TraceEncodeRecords)->Unit(benchmark::kMillisecond);

/** Envelope validation alone: magic, header, CRCs, directory. */
void
BM_TraceReaderOpen(benchmark::State &state)
{
    const std::string &bytes = sharedBytes();
    for (auto _ : state) {
        TraceReader reader(bytes, "bench");
        benchmark::DoNotOptimize(reader.totalRecords());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_TraceReaderOpen)->Unit(benchmark::kMillisecond);

void
BM_TraceCursorDecode(benchmark::State &state)
{
    TraceReader reader(sharedBytes(), "bench");
    for (auto _ : state) {
        auto cursor = reader.stream(0);
        TraceRecord r;
        std::uint64_t n = 0;
        while (cursor.next(r))
            ++n;
        benchmark::DoNotOptimize(n);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kRecords));
}
BENCHMARK(BM_TraceCursorDecode)->Unit(benchmark::kMillisecond);

/** next() issue rate of a synthetic workload, bare vs captured. */
void
issueLoop(benchmark::State &state, bool captured)
{
    std::uint64_t issued = 0;
    for (auto _ : state) {
        auto ws = workload::makeSyntheticWorkloads("canneal", 1, 20000,
                                                   1);
        std::shared_ptr<TraceCaptureWriter> writer;
        if (captured)
            writer = wrapWithCapture(ws, "bench", 1);
        Tick now = 0;
        cpu::MemOp op;
        do {
            op = ws[0]->next(now);
            now += 3;
            ++issued;
        } while (op.kind != cpu::MemOp::Kind::Halt);
        benchmark::DoNotOptimize(
            captured ? writer->totalRecords() : issued);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(issued));
}

void
BM_WorkloadIssueBare(benchmark::State &state)
{
    issueLoop(state, false);
}
BENCHMARK(BM_WorkloadIssueBare)->Unit(benchmark::kMillisecond);

void
BM_WorkloadIssueCaptured(benchmark::State &state)
{
    issueLoop(state, true);
}
BENCHMARK(BM_WorkloadIssueCaptured)->Unit(benchmark::kMillisecond);

void
BM_TraceReplayIssue(benchmark::State &state)
{
    auto reader =
        std::make_shared<const TraceReader>(sharedBytes(), "bench");
    std::uint64_t issued = 0;
    for (auto _ : state) {
        auto ws = makeTraceReplay(reader, 1);
        Tick now = 0;
        cpu::MemOp op;
        do {
            op = ws[0]->next(now);
            now += 3;
            ++issued;
        } while (op.kind != cpu::MemOp::Kind::Halt);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(issued));
}
BENCHMARK(BM_TraceReplayIssue)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
