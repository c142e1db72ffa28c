#include "cpu/core.hh"

#include <algorithm>

#include "cache/l1_cache.hh"
#include "persist/epoch_arbiter.hh"
#include "prof/phase.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace persim::cpu
{

Core::Core(const std::string &name, EventQueue &eq, CoreId id,
           const CoreConfig &cfg, cache::L1Cache *l1,
           persist::EpochArbiter *arbiter, Workload *workload)
    : SimObject(name, eq),
      _id(id),
      _cfg(cfg),
      _l1(l1),
      _arbiter(arbiter),
      _workload(workload),
      _wb(cfg.writeBufferEntries),
      _stats(name),
      _ops(&_stats, "ops", "operations committed"),
      _loads(&_stats, "loads", "loads issued"),
      _stores(&_stats, "stores", "stores issued"),
      _barriers(&_stats, "barriers", "persist barriers executed"),
      _computeCycles(&_stats, "computeCycles", "non-memory work cycles"),
      _wbStallEvents(&_stats, "wbStalls",
                     "stores stalled on a full write buffer"),
      _forwards(&_stats, "forwards", "loads forwarded from the buffer"),
      _loadLatency(&_stats, "loadLatency", "load latency (cycles)")
{
    simAssert(workload, name, ": core without a workload");
    simAssert(!cfg.persistEnabled || arbiter, name,
              ": persistence enabled without an arbiter");
}

void
Core::start()
{
    _startTick = curTick();
    scheduleIn(0, [this] { step(); });
}

void
Core::step()
{
    if (_halted)
        return;
    MemOp op;
    {
        prof::ScopedPhase profPhase(prof::Phase::WorkloadGen);
        op = _workload->next(curTick());
    }
    switch (op.kind) {
      case MemOp::Kind::Halt:
        _halted = true;
        maybeDone();
        return;
      case MemOp::Kind::Compute:
        ++_ops;
        _computeCycles.inc(op.cycles);
        scheduleIn(std::max<Tick>(op.cycles, 1), [this] { step(); });
        return;
      case MemOp::Kind::Load:
        issueLoad(op.addr);
        return;
      case MemOp::Kind::Store:
        issueStore(op.addr);
        return;
      case MemOp::Kind::Barrier:
        issueBarrier();
        return;
    }
}

void
Core::issueLoad(Addr addr)
{
    ++_loads;
    ++_ops;
    if (_wb.containsLine(addr) ||
        (_draining && _drainLine == lineNum(addr))) {
        ++_forwards;
        scheduleIn(1, [this, addr] {
            _workload->onLoadComplete(addr, curTick());
            step();
        });
        return;
    }
    const Tick start = curTick();
    _l1->access(addr, false, [this, addr, start] {
        _loadLatency.sample(curTick() - start);
        _workload->onLoadComplete(addr, curTick());
        scheduleIn(1, [this] { step(); });
    });
}

void
Core::issueStore(Addr addr)
{
    if (_wb.full()) {
        ++_wbStallEvents;
        _stalledOnWb = true;
        _pendingStoreAddr = addr;
        return; // onDrainComplete() resumes
    }
    ++_stores;
    ++_ops;
    _wb.push(addr);
    // An exclusive (RFO) prefetch as the store enters the write buffer
    // models the store-miss overlap an OoO core extracts. Completion
    // stays strictly in order (TSO), so a store stalled on a persist
    // conflict back-pressures everything younger — the effect the
    // paper's conflict costs rest on.
    if (!_cfg.writeThrough)
        _l1->prefetchExclusive(addr);
    pumpDrain();
    if (_cfg.autoBarrierEvery != 0 &&
        ++_storesSinceBarrier >= _cfg.autoBarrierEvery) {
        _storesSinceBarrier = 0;
        issueBarrier();
        return;
    }
    scheduleIn(1, [this] { step(); });
}

void
Core::issueBarrier()
{
    ++_barriers;
    ++_ops;
    if (!_cfg.persistEnabled) {
        scheduleIn(1, [this] { step(); });
        return;
    }
    // Persist barriers have store-fence semantics: stores ahead of the
    // barrier must complete (and so tag the closing epoch) first. The
    // expensive part — waiting for persists — still only happens under
    // blocking (EP) barriers.
    if (!_wb.empty() || _draining) {
        _barrierPending = true;
        return; // onDrainComplete() resumes
    }
    barrierAfterDrain();
}

void
Core::barrierAfterDrain()
{
    _arbiter->barrier([this] { scheduleIn(1, [this] { step(); }); });
}

void
Core::pumpDrain()
{
    // Stores complete strictly in order (TSO write buffer), one at a
    // time; the RFO prefetch issued at execution time supplies the
    // miss overlap.
    if (_draining || _wb.empty())
        return;
    const Addr addr = _wb.front().addr;
    _wb.pop();
    _draining = true;
    _drainLine = lineNum(addr);
    _l1->access(addr, true, [this, addr] {
        if (_cfg.writeThrough) {
            // Naive strict persistency: the store is not complete
            // until its line is durable. The write carries no epoch
            // tag; SP's ordering is structural (serial drain).
            _l1->issueNvmWrite(addr, kNoCore, kNoEpoch, false,
                               [this] { onDrainComplete(); });
        } else {
            onDrainComplete();
        }
    });
}

void
Core::onDrainComplete()
{
    _draining = false;
    if (_stalledOnWb) {
        _stalledOnWb = false;
        issueStore(_pendingStoreAddr);
    }
    if (_wb.empty() && !_draining) {
        if (_barrierPending) {
            _barrierPending = false;
            barrierAfterDrain();
        }
        maybeDone();
    } else {
        pumpDrain();
    }
}

void
Core::maybeDone()
{
    if (_halted && _wb.empty() && !_draining &&
        _doneTick == kTickNever) {
        _doneTick = curTick();
        if (trace::probing()) [[unlikely]]
            trace::span(_startTick, _doneTick, name(), "execute", "Exec");
        if (_onDone)
            _onDone();
    }
}

} // namespace persim::cpu
