/**
 * @file
 * Trace-driven workload: replay a captured or hand-written trace
 * through the simulated machine.
 *
 * Each thread streams its records off a shared TraceReader cursor and
 * turns them back into the MemOp stream the core consumes. Plain
 * records (load/store/barrier/compute) replay verbatim — a trace
 * captured from an execution-driven workload therefore reproduces that
 * run exactly, op for op. Lock/Unlock records are execution-driven on
 * replay: the lock word is probed with a load, the outcome is decided
 * by the shared LockManager when the probe completes, and contended
 * probes back off and retry — the same spin protocol the
 * micro-benchmarks use, so hand-written traces can express real
 * inter-thread contention. TxnMark records feed the transactions()
 * throughput metric without issuing any operation.
 */

#ifndef PERSIM_WORKLOAD_TRACE_TRACE_REPLAY_HH
#define PERSIM_WORKLOAD_TRACE_TRACE_REPLAY_HH

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "cpu/workload_iface.hh"
#include "sim/rng.hh"
#include "workload/lock_manager.hh"
#include "workload/trace/trace_reader.hh"

namespace persim::workload::trace
{

/** One thread of a trace replay. */
class TraceReplayWorkload : public cpu::Workload
{
  public:
    TraceReplayWorkload(std::shared_ptr<const TraceReader> reader,
                        unsigned thread,
                        std::shared_ptr<LockManager> locks);

    cpu::MemOp next(Tick now) override;
    void onLoadComplete(Addr addr, Tick now) override;
    std::uint64_t transactions() const override { return _txns; }

  private:
    /** Pending lock step awaiting issue or probe completion. */
    enum class LockPhase : std::uint8_t
    {
        None,    // no lock step in progress
        Backoff, // contended probe: emit a compute, then re-probe
        Probe,   // probe load issued; waiting for onLoadComplete
        Acquire, // probe won: emit the CAS store
    };

    std::shared_ptr<const TraceReader> _reader;
    std::shared_ptr<LockManager> _locks;
    unsigned _thread;
    TraceReader::Cursor _cursor;
    Rng _rng;

    LockPhase _lockPhase = LockPhase::None;
    Addr _lockAddr = 0;
    std::uint64_t _txns = 0;
    bool _haltEmitted = false;
};

/**
 * Build one replay workload per thread from the trace at @p path
 * (binary or text form).
 *
 * @param expectThreads The experiment's core count; a mismatch with
 *        the trace's thread count is a fatal error naming both.
 */
std::vector<std::unique_ptr<cpu::Workload>>
makeTraceReplay(const std::string &path, unsigned expectThreads);

/** Same, over an already opened (validated) reader. */
std::vector<std::unique_ptr<cpu::Workload>>
makeTraceReplay(std::shared_ptr<const TraceReader> reader,
                unsigned expectThreads);

} // namespace persim::workload::trace

#endif // PERSIM_WORKLOAD_TRACE_TRACE_REPLAY_HH
