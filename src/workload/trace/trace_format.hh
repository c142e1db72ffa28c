/**
 * @file
 * The Persimmon workload trace format ("ptrace v1" text).
 *
 * A trace is the complete per-thread operation stream of one
 * multi-threaded workload run: loads, stores, persist barriers,
 * compute (think-time) gaps, lock/unlock operations, transaction
 * markers, and a final halt, each stamped with the simulated tick at
 * which the operation was issued. It is line-oriented text, so a
 * capture is also the form people read, edit and write by hand:
 *
 *   ptrace v1
 *   name canneal     # optional; default "trace"
 *   seed 1           # optional; default 1
 *   threads 2
 *   thread 0
 *   @0 load 0x1000   # @TICK op [arg]; arg is hex or decimal
 *   @9 halt          # every section ends in halt
 *   thread 1
 *   ...
 *
 * Blank lines and CRLF line ends are accepted too.
 * The format is self-describing (thread count, originating workload
 * name, base seed) so a replay run can validate itself against the
 * experiment it is plugged into.
 */

#ifndef PERSIM_WORKLOAD_TRACE_TRACE_FORMAT_HH
#define PERSIM_WORKLOAD_TRACE_TRACE_FORMAT_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace persim::workload::trace
{

/** One operation of a per-thread trace stream. */
struct TraceRecord
{
    enum class Kind : std::uint8_t
    {
        Load,    // blocking read of the address in arg
        Store,   // buffered write of the address in arg
        Barrier, // persist barrier / epoch boundary
        Compute, // arg cycles (< 2^32) of non-memory think time
        Lock,    // acquire the lock word at arg (spin until held)
        Unlock,  // release the lock word at arg
        TxnMark, // arg application transactions completed
        Halt,    // thread finished; the last record of every stream
    };

    /** Issue timestamp (simulated tick); monotonic within a thread. */
    Tick tick = 0;

    /** The one payload: address, compute cycles or transaction count. */
    std::uint64_t arg = 0;

    Kind kind = Kind::Halt;

    bool operator==(const TraceRecord &o) const = default;
};

static_assert(sizeof(TraceRecord) == 24,
              "replay holds every record of a trace in memory");

/** Text name of a record kind ("load", "store", ...). */
const char *toString(TraceRecord::Kind kind);

/** Number of distinct record kinds (histogram sizing). */
constexpr unsigned kNumRecordKinds = 8;

/** Trace-wide metadata carried in the header lines. */
struct TraceMeta
{
    /** Originating workload name ("hash", "canneal", or free-form). */
    std::string name = "trace";

    /** Number of per-thread streams. */
    std::uint32_t threadCount = 0;

    /** Base workload seed of the captured run (replay RNG derivation). */
    std::uint64_t seed = 1;
};

/** A parsed trace: metadata plus per-thread record lists. */
struct TraceData
{
    TraceMeta meta;

    /** streams[t] is thread t's record list; each ends in Halt. */
    std::vector<std::vector<TraceRecord>> streams;

    /** File the trace was read from (labels error messages). */
    std::string source;

    std::uint64_t totalRecords() const;
};

/**
 * Parse a trace from @p is. This is the one validator: it throws
 * SimFatal naming @p sourceName (and the line, where there is one) on
 * a syntax error, a missing or duplicate header or thread section, a
 * non-monotonic timestamp, a record after halt, a section that does
 * not end in halt (a truncated file), or a number that is signed or
 * out of range.
 */
TraceData parseTrace(std::istream &is, const std::string &sourceName);

/** Parse the trace file at @p path (SimFatal naming it on error). */
std::shared_ptr<const TraceData> openTrace(const std::string &path);

/** Append the header lines: "ptrace v1", name, seed, threads. */
void appendHeader(std::string &out, const TraceMeta &meta);

/** Longest line appendRecordLine() writes, in bytes. */
constexpr std::size_t kMaxRecordLine = 64;

/** Append @p r as one record line ("@TICK op [arg]\n"). */
void appendRecordLine(std::string &out, const TraceRecord &r);

} // namespace persim::workload::trace

#endif // PERSIM_WORKLOAD_TRACE_TRACE_FORMAT_HH
