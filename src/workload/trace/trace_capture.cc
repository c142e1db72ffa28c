#include "workload/trace/trace_capture.hh"

#include <fstream>

#include "sim/logging.hh"

namespace persim::workload::trace
{

namespace
{

constexpr std::size_t kChunkBytes = 64 * 1024;

} // namespace

TraceCaptureWriter::TraceCaptureWriter(std::string name,
                                       unsigned threads,
                                       std::uint64_t seed)
    : _streams(threads), _halted(threads, false)
{
    simAssert(threads >= 1 && threads <= kMaxCores,
              "TraceCaptureWriter: thread count ", threads,
              " out of range");
    _meta.name = std::move(name);
    _meta.threadCount = threads;
    _meta.seed = seed;
}

void
TraceCaptureWriter::append(unsigned thread, const TraceRecord &r)
{
    simAssert(thread < _streams.size(), "capture: thread ", thread,
              " out of range");
    std::vector<std::string> &chunks = _streams[thread];
    if (chunks.empty() ||
        chunks.back().capacity() - chunks.back().size() < kMaxRecordLine)
        chunks.emplace_back().reserve(kChunkBytes);
    appendRecordLine(chunks.back(), r);
}

void
TraceCaptureWriter::record(unsigned thread, const cpu::MemOp &op,
                           Tick now)
{
    if (_halted[thread])
        return; // cores may poll next() again after halt; keep the
                // stream well-formed (halt is the last record)
    TraceRecord r;
    r.tick = now;
    switch (op.kind) {
      case cpu::MemOp::Kind::Load:
        r.kind = TraceRecord::Kind::Load;
        r.arg = op.addr;
        break;
      case cpu::MemOp::Kind::Store:
        r.kind = TraceRecord::Kind::Store;
        r.arg = op.addr;
        break;
      case cpu::MemOp::Kind::Barrier:
        r.kind = TraceRecord::Kind::Barrier;
        break;
      case cpu::MemOp::Kind::Compute:
        r.kind = TraceRecord::Kind::Compute;
        r.arg = op.cycles;
        break;
      case cpu::MemOp::Kind::Halt:
        r.kind = TraceRecord::Kind::Halt;
        _halted[thread] = true;
        break;
    }
    append(thread, r);
}

void
TraceCaptureWriter::noteTransactions(unsigned thread,
                                     std::uint64_t delta, Tick now)
{
    if (delta == 0 || _halted[thread])
        return;
    TraceRecord r;
    r.kind = TraceRecord::Kind::TxnMark;
    r.tick = now;
    r.arg = delta;
    append(thread, r);
}

void
TraceCaptureWriter::writeFile(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        fatal("trace capture: cannot write ", path);
    std::string header;
    appendHeader(header, _meta);
    os << header;
    for (std::size_t t = 0; t < _streams.size(); ++t) {
        os << "thread " << t << '\n';
        for (const std::string &chunk : _streams[t])
            os.write(chunk.data(),
                     static_cast<std::streamsize>(chunk.size()));
    }
    os.close();
    if (!os)
        fatal("trace capture: short write to ", path);
}

CapturingWorkload::CapturingWorkload(
    std::unique_ptr<cpu::Workload> inner,
    std::shared_ptr<TraceCaptureWriter> writer, unsigned thread)
    : _inner(std::move(inner)), _writer(std::move(writer)),
      _thread(thread)
{
    simAssert(_inner != nullptr, "CapturingWorkload: null inner");
    simAssert(_writer != nullptr, "CapturingWorkload: null writer");
}

cpu::MemOp
CapturingWorkload::next(Tick now)
{
    cpu::MemOp op = _inner->next(now);
    if (_haltRecorded)
        return op;
    // Transactions completed inside this next() call are marked before
    // the op so halt stays the final record of the stream.
    const std::uint64_t txns = _inner->transactions();
    if (txns > _seenTxns) {
        _writer->noteTransactions(_thread, txns - _seenTxns, now);
        _seenTxns = txns;
    }
    _writer->record(_thread, op, now);
    if (op.kind == cpu::MemOp::Kind::Halt)
        _haltRecorded = true;
    return op;
}

void
CapturingWorkload::onLoadComplete(Addr addr, Tick now)
{
    _inner->onLoadComplete(addr, now);
}

std::uint64_t
CapturingWorkload::transactions() const
{
    return _inner->transactions();
}

std::shared_ptr<TraceCaptureWriter>
wrapWithCapture(std::vector<std::unique_ptr<cpu::Workload>> &workloads,
                std::string name, std::uint64_t seed)
{
    auto writer = std::make_shared<TraceCaptureWriter>(
        std::move(name), static_cast<unsigned>(workloads.size()), seed);
    for (std::size_t t = 0; t < workloads.size(); ++t) {
        workloads[t] = std::make_unique<CapturingWorkload>(
            std::move(workloads[t]), writer,
            static_cast<unsigned>(t));
    }
    return writer;
}

} // namespace persim::workload::trace
