#include "workload/trace/trace_replay.hh"

#include "sim/logging.hh"

namespace persim::workload::trace
{

TraceReplayWorkload::TraceReplayWorkload(
    std::shared_ptr<const TraceData> trace, unsigned thread,
    std::shared_ptr<LockManager> locks)
    : _trace(std::move(trace)), _locks(std::move(locks)),
      _thread(thread), _next(_trace->streams.at(thread).data()),
      // Same derivation as MicroBenchmark so identical seeds give
      // identical backoff draws.
      _rng(_trace->meta.seed * 0x5851F42D4C957F2DULL + thread + 1)
{
    simAssert(_locks != nullptr, "TraceReplayWorkload: null locks");
    const auto &stream = _trace->streams[thread];
    simAssert(!stream.empty() &&
                  stream.back().kind == TraceRecord::Kind::Halt,
              "TraceReplayWorkload: thread ", thread,
              " stream does not end in halt");
}

cpu::MemOp
TraceReplayWorkload::next(Tick now)
{
    (void)now;
    if (_haltEmitted)
        return cpu::MemOp::halt();

    switch (_lockPhase) {
      case LockPhase::Backoff:
        // Contended: pay the backoff, then re-probe on the next issue.
        _lockPhase = LockPhase::Probe;
        return cpu::MemOp::compute(
            static_cast<std::uint32_t>(20 + _rng.below(80)));
      case LockPhase::Probe:
        return cpu::MemOp::load(_lockAddr);
      case LockPhase::Acquire:
        // Probe won: the CAS store publishes the acquisition.
        _lockPhase = LockPhase::None;
        return cpu::MemOp::store(_lockAddr);
      case LockPhase::None:
        break;
    }

    while (true) {
        const TraceRecord &r = *_next++;
        switch (r.kind) {
          case TraceRecord::Kind::Load:
            return cpu::MemOp::load(r.arg);
          case TraceRecord::Kind::Store:
            return cpu::MemOp::store(r.arg);
          case TraceRecord::Kind::Barrier:
            return cpu::MemOp::barrier();
          case TraceRecord::Kind::Compute:
            return cpu::MemOp::compute(static_cast<std::uint32_t>(r.arg));
          case TraceRecord::Kind::Lock:
            _lockAddr = r.arg;
            _lockPhase = LockPhase::Probe;
            return cpu::MemOp::load(_lockAddr);
          case TraceRecord::Kind::Unlock:
            _locks->release(r.arg, static_cast<CoreId>(_thread));
            return cpu::MemOp::store(r.arg);
          case TraceRecord::Kind::TxnMark:
            _txns += r.arg;
            continue;
          case TraceRecord::Kind::Halt:
            _haltEmitted = true;
            return cpu::MemOp::halt();
        }
    }
}

void
TraceReplayWorkload::onLoadComplete(Addr addr, Tick now)
{
    (void)now;
    if (_lockPhase != LockPhase::Probe)
        return; // an ordinary replayed load; nothing to decide
    if (lineAlign(addr) != lineAlign(_lockAddr))
        return; // completion of an earlier in-flight line, not ours
    if (_locks->tryAcquire(addr, static_cast<CoreId>(_thread))) {
        _lockPhase = LockPhase::Acquire;
    } else {
        _lockPhase = LockPhase::Backoff;
    }
}

std::vector<std::unique_ptr<cpu::Workload>>
makeTraceReplay(std::shared_ptr<const TraceData> trace,
                unsigned expectThreads)
{
    simAssert(trace != nullptr, "makeTraceReplay: null trace");
    if (trace->meta.threadCount != expectThreads) {
        fatal("trace ", trace->source, ": recorded for ",
              trace->meta.threadCount,
              " thread(s) but the experiment wants ", expectThreads,
              " core(s); rerun with --cores ",
              trace->meta.threadCount,
              " or recapture the trace at the desired width");
    }
    auto locks = std::make_shared<LockManager>();
    std::vector<std::unique_ptr<cpu::Workload>> out;
    out.reserve(expectThreads);
    for (unsigned t = 0; t < expectThreads; ++t) {
        out.push_back(std::make_unique<TraceReplayWorkload>(
            trace, t, locks));
    }
    return out;
}

std::vector<std::unique_ptr<cpu::Workload>>
makeTraceReplay(const std::string &path, unsigned expectThreads)
{
    return makeTraceReplay(openTrace(path), expectThreads);
}

} // namespace persim::workload::trace
