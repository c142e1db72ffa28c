/**
 * @file
 * Capture hook: record any execution-driven workload into the trace
 * format while it runs, without perturbing the simulation.
 *
 * CapturingWorkload wraps an inner Workload and forwards every call
 * verbatim; as a side effect it records each MemOp the inner
 * workload emits (plus transaction markers derived from the inner
 * transactions() counter) into a shared TraceCaptureWriter. The
 * capture run's simulated behaviour — and therefore its figure
 * output — is byte-identical to an uncaptured run, which is what makes
 * capture → replay round-trips testable end to end.
 */

#ifndef PERSIM_WORKLOAD_TRACE_TRACE_CAPTURE_HH
#define PERSIM_WORKLOAD_TRACE_TRACE_CAPTURE_HH

#include <memory>
#include <string>
#include <vector>

#include "cpu/workload_iface.hh"
#include "workload/trace/trace_format.hh"

namespace persim::workload::trace
{

/**
 * Accumulates one trace across all threads of a run.
 *
 * Each record is appended as one text line to its thread's buffer,
 * and writeFile() writes the header and then each section straight to
 * the file, so no concatenated copy of the trace is ever made. A
 * buffer is a list of fixed-size chunks: one growing string per
 * thread copies its text on every doubling and leaves the freed
 * copies in the heap, which raised the peak of a default-size fig14
 * LB-column capture from 58 to 78 MB. One writer belongs to one
 * simulated system; within it, each thread only ever appends from
 * that system's single simulation thread, so no locking is needed.
 */
class TraceCaptureWriter
{
  public:
    TraceCaptureWriter(std::string name, unsigned threads,
                       std::uint64_t seed);

    /** Record the MemOp thread @p t issued at @p now. */
    void record(unsigned thread, const cpu::MemOp &op, Tick now);

    /** Record @p delta completed transactions on thread @p t. */
    void noteTransactions(unsigned thread, std::uint64_t delta,
                          Tick now);

    /** Write the trace to @p path (SimFatal on I/O error). */
    void writeFile(const std::string &path) const;

  private:
    void append(unsigned thread, const TraceRecord &r);

    TraceMeta _meta;
    /** Record lines per thread, in chunks of kChunkBytes. */
    std::vector<std::vector<std::string>> _streams;
    std::vector<bool> _halted;
};

/** Wraps a workload, forwarding everything and recording the stream. */
class CapturingWorkload : public cpu::Workload
{
  public:
    CapturingWorkload(std::unique_ptr<cpu::Workload> inner,
                      std::shared_ptr<TraceCaptureWriter> writer,
                      unsigned thread);

    cpu::MemOp next(Tick now) override;
    void onLoadComplete(Addr addr, Tick now) override;
    std::uint64_t transactions() const override;

  private:
    std::unique_ptr<cpu::Workload> _inner;
    std::shared_ptr<TraceCaptureWriter> _writer;
    unsigned _thread;
    std::uint64_t _seenTxns = 0;
    bool _haltRecorded = false;
};

/**
 * Wrap every workload of a run for capture into a fresh writer named
 * @p name. Returns the shared writer; @p workloads is rewritten in
 * place.
 */
std::shared_ptr<TraceCaptureWriter>
wrapWithCapture(std::vector<std::unique_ptr<cpu::Workload>> &workloads,
                std::string name, std::uint64_t seed);

} // namespace persim::workload::trace

#endif // PERSIM_WORKLOAD_TRACE_TRACE_CAPTURE_HH
