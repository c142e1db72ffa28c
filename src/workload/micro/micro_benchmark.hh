/**
 * @file
 * Shared infrastructure for the Table 2 micro-benchmarks.
 */

#ifndef PERSIM_WORKLOAD_MICRO_MICRO_BENCHMARK_HH
#define PERSIM_WORKLOAD_MICRO_MICRO_BENCHMARK_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/workload_iface.hh"
#include "sim/rng.hh"
#include "sim/types.hh"
#include "workload/lock_manager.hh"
#include "workload/nv_heap.hh"

namespace persim::workload
{

/** Table 2 entries are 512 bytes -> 8 cache lines. */
constexpr unsigned kEntryBytes = 512;
constexpr unsigned kEntryLines = kEntryBytes / kLineBytes;

/** Parameters common to every micro-benchmark thread. */
struct MicroParams
{
    CoreId thread = 0;
    unsigned numThreads = 1;
    /** Transactions (insert/delete/search ops) this thread performs. */
    std::uint64_t opsPerThread = 1000;
    std::uint64_t seed = 1;
    /** Probability of a search (the rest split insert/delete evenly). */
    double searchFraction = 0.2;

    /**
     * Probability an operation targets another thread's partition
     * (NVHeaps-style benchmarks are partitioned per thread; occasional
     * cross-thread operations produce the inter-thread conflicts).
     */
    double crossFraction = 0.1;

    /**
     * Emit lock traffic. The NVHeaps-style partitioned micros run
     * lockless (each thread owns its slice; the rare cross-partition
     * op races only on host-side bookkeeping, which is harmless in an
     * address-trace simulation); the copy-while-locked queue keeps its
     * global lock, as in Pelley et al.
     */
    bool useLocks = false;
    /** Compute cycles between transactions. */
    unsigned thinkCycles = 20;
};

/**
 * Base class: a step machine translating transaction scripts into the
 * MemOp stream the core consumes, with spinlock support.
 *
 * Subclasses implement buildTransaction(), emitting steps with the
 * protected helpers; the base interleaves lock probing (functional state
 * in LockManager, traffic in the op stream) and counts transactions.
 */
class MicroBenchmark : public cpu::Workload
{
  public:
    MicroBenchmark(const MicroParams &params, LockManager &locks);

    cpu::MemOp next(Tick now) final;
    void onLoadComplete(Addr addr, Tick now) final;
    std::uint64_t transactions() const final { return _transactions; }

  protected:
    /** Emit the whole next transaction; must end with emitTxnDone(). */
    virtual void buildTransaction() = 0;

    void emitLoad(Addr a);
    void emitStore(Addr a);
    void emitBarrier();
    void emitCompute(std::uint32_t cycles);
    /** Read all @p lines lines of the entry at @p base. */
    void emitEntryRead(Addr base, unsigned lines = kEntryLines);
    /** Write all @p lines lines of the entry at @p base. */
    void emitEntryWrite(Addr base, unsigned lines = kEntryLines);
    /** Spin (probe load + CAS store) until the lock is taken. */
    void emitLockAcquire(Addr lockAddr);
    /** Release the lock (one store to the lock word). */
    void emitLockRelease(Addr lockAddr);
    void emitTxnDone();

    const MicroParams &params() const { return _params; }
    Rng &rng() { return _rng; }

  private:
    struct Step
    {
        enum class Kind : std::uint8_t
        {
            Op,
            LockAcquire,
            LockRelease,
            TxnDone,
        };
        Kind kind;
        cpu::MemOp op;
        Addr lock = 0;
    };

    MicroParams _params;
    LockManager &_locks;
    Rng _rng;
    /**
     * The current transaction's script; _head is the next step. The
     * vector is cleared (keeping its capacity) when the next
     * transaction is built.
     */
    std::vector<Step> _steps;
    std::size_t _head = 0;
    /** Compute cycles to spend before re-probing a contended lock. */
    std::uint32_t _backoff = 0;
    std::uint64_t _transactions = 0;
    bool _probeOutstanding = false;
    bool _haltEmitted = false;
};

} // namespace persim::workload

#endif // PERSIM_WORKLOAD_MICRO_MICRO_BENCHMARK_HH
