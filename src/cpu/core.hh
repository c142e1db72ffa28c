/**
 * @file
 * The core model: in-order issue with a TSO store write buffer.
 */

#ifndef PERSIM_CPU_CORE_HH
#define PERSIM_CPU_CORE_HH

#include <string>

#include "cpu/mem_op.hh"
#include "cpu/workload_iface.hh"
#include "cpu/write_buffer.hh"
#include "sim/inline_callback.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace persim::cache
{
class L1Cache;
} // namespace persim::cache

namespace persim::persist
{
class EpochArbiter;
} // namespace persim::persist

namespace persim::cpu
{

/** Core parameters. */
struct CoreConfig
{
    unsigned writeBufferEntries = 32;
    /**
     * BSP bulk mode: the hardware persistence engine inserts a persist
     * barrier every N dynamic stores (§5.2). 0 disables auto-barriers.
     */
    unsigned autoBarrierEvery = 0;
    /** Persist-barrier machinery on (off for NP and write-through SP). */
    bool persistEnabled = true;
    /**
     * Naive strict persistency: every store writes through to NVRAM and
     * the next store waits for the ack (§7.2's 8x strawman).
     */
    bool writeThrough = false;
};

/**
 * One core executing a workload.
 *
 * The model approximates the paper's OoO cores with the properties the
 * persist study depends on: stores are asynchronous (they retire into the
 * write buffer and drain in TSO order) while loads expose their latency;
 * persist barriers cost nothing by themselves under BEP and block under
 * EP. See DESIGN.md §5 for the substitution rationale.
 */
class Core : public SimObject
{
  public:
    Core(const std::string &name, EventQueue &eq, CoreId id,
         const CoreConfig &cfg, cache::L1Cache *l1,
         persist::EpochArbiter *arbiter, Workload *workload);

    /** Begin executing at the current tick. */
    void start();

    CoreId id() const { return _id; }

    /** The workload returned Halt and the write buffer drained. */
    bool done() const
    {
        return _halted && _wb.empty() && !_draining;
    }
    bool halted() const { return _halted; }

    /** Tick at which the core became done (kTickNever before that). */
    Tick doneTick() const { return _doneTick; }

    /** Callback invoked once when the core becomes done. */
    void setOnDone(InlineCallback cb) { _onDone = std::move(cb); }

    Workload *workload() { return _workload; }
    StatGroup &stats() { return _stats; }

    std::uint64_t committedOps() const { return _ops.value(); }

  private:
    void step();
    void issueLoad(Addr addr);
    void issueStore(Addr addr);
    void issueBarrier();
    /** Barrier phase 2: the write buffer drained; close the epoch. */
    void barrierAfterDrain();
    /** Drain the write buffer's head unless a drain is in flight. */
    void pumpDrain();
    void onDrainComplete();
    void maybeDone();

    CoreId _id;
    CoreConfig _cfg;
    cache::L1Cache *_l1;
    persist::EpochArbiter *_arbiter;
    Workload *_workload;
    WriteBuffer _wb;

    bool _halted = false;
    bool _stalledOnWb = false;
    bool _barrierPending = false;
    Addr _pendingStoreAddr = 0;
    /** A drained store is in flight; stores drain one at a time. */
    bool _draining = false;
    /** Line of the in-flight drained store (load forwarding). */
    Addr _drainLine = 0;

    Tick _startTick = 0;
    Tick _doneTick = kTickNever;
    std::uint64_t _storesSinceBarrier = 0;
    InlineCallback _onDone;

    StatGroup _stats;
    Scalar _ops;
    Scalar _loads;
    Scalar _stores;
    Scalar _barriers;
    Scalar _computeCycles;
    Scalar _wbStallEvents;
    Scalar _forwards;
    Distribution _loadLatency;
};

} // namespace persim::cpu

#endif // PERSIM_CPU_CORE_HH
