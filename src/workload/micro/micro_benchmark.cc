#include "workload/micro/micro_benchmark.hh"

#include "sim/logging.hh"

namespace persim::workload
{

MicroBenchmark::MicroBenchmark(const MicroParams &params,
                               LockManager &locks)
    : _params(params),
      _locks(locks),
      _rng(params.seed * 0x5851F42D4C957F2DULL + params.thread + 1)
{
}

void
MicroBenchmark::emitLoad(Addr a)
{
    _steps.push_back(Step{Step::Kind::Op, cpu::MemOp::load(a), 0});
}

void
MicroBenchmark::emitStore(Addr a)
{
    _steps.push_back(Step{Step::Kind::Op, cpu::MemOp::store(a), 0});
}

void
MicroBenchmark::emitBarrier()
{
    _steps.push_back(Step{Step::Kind::Op, cpu::MemOp::barrier(), 0});
}

void
MicroBenchmark::emitCompute(std::uint32_t cycles)
{
    _steps.push_back(Step{Step::Kind::Op, cpu::MemOp::compute(cycles), 0});
}

void
MicroBenchmark::emitEntryRead(Addr base, unsigned lines)
{
    for (unsigned i = 0; i < lines; ++i)
        emitLoad(base + static_cast<Addr>(i) * kLineBytes);
}

void
MicroBenchmark::emitEntryWrite(Addr base, unsigned lines)
{
    for (unsigned i = 0; i < lines; ++i)
        emitStore(base + static_cast<Addr>(i) * kLineBytes);
}

void
MicroBenchmark::emitLockAcquire(Addr lockAddr)
{
    if (!_params.useLocks)
        return;
    _steps.push_back(
        Step{Step::Kind::LockAcquire, cpu::MemOp::halt(), lockAddr});
}

void
MicroBenchmark::emitLockRelease(Addr lockAddr)
{
    if (!_params.useLocks)
        return;
    _steps.push_back(
        Step{Step::Kind::LockRelease, cpu::MemOp::halt(), lockAddr});
}

void
MicroBenchmark::emitTxnDone()
{
    _steps.push_back(Step{Step::Kind::TxnDone, cpu::MemOp::halt(), 0});
}

cpu::MemOp
MicroBenchmark::next(Tick now)
{
    (void)now;
    while (true) {
        if (_haltEmitted)
            return cpu::MemOp::halt();
        if (_head == _steps.size()) {
            if (_transactions >= _params.opsPerThread) {
                _haltEmitted = true;
                return cpu::MemOp::halt();
            }
            _steps.clear();
            _head = 0;
            buildTransaction();
            simAssert(!_steps.empty(),
                      "buildTransaction emitted nothing");
        }
        if (_backoff != 0) {
            // A contended probe backs off before probing again.
            const std::uint32_t cycles = _backoff;
            _backoff = 0;
            return cpu::MemOp::compute(cycles);
        }
        Step &front = _steps[_head];
        switch (front.kind) {
          case Step::Kind::Op:
            ++_head;
            return front.op;
          case Step::Kind::LockAcquire:
            // Probe the lock word; onLoadComplete decides the outcome.
            simAssert(!_probeOutstanding, "nested lock probe");
            _probeOutstanding = true;
            return cpu::MemOp::load(front.lock);
          case Step::Kind::LockRelease:
            ++_head;
            _locks.release(front.lock, _params.thread);
            return cpu::MemOp::store(front.lock);
          case Step::Kind::TxnDone:
            ++_head;
            ++_transactions;
            continue;
        }
    }
}

void
MicroBenchmark::onLoadComplete(Addr addr, Tick now)
{
    (void)now;
    if (!_probeOutstanding)
        return;
    simAssert(_head < _steps.size() &&
                  _steps[_head].kind == Step::Kind::LockAcquire &&
                  lineAlign(_steps[_head].lock) == lineAlign(addr),
              "lock probe completion out of order");
    _probeOutstanding = false;
    if (_locks.tryAcquire(addr, _params.thread)) {
        // Acquired: replace the probe with the CAS store.
        _steps[_head] = Step{Step::Kind::Op, cpu::MemOp::store(addr), 0};
    } else {
        // Contended: back off, then probe again.
        _backoff = static_cast<std::uint32_t>(20 + _rng.below(80));
    }
}

} // namespace persim::workload
