/**
 * @file
 * The per-core epoch arbiter: orchestrates epoch flushes (§4.1–§4.2).
 */

#ifndef PERSIM_PERSIST_EPOCH_ARBITER_HH
#define PERSIM_PERSIST_EPOCH_ARBITER_HH

#include <ostream>
#include <string>
#include <vector>

#include "persist/barrier_config.hh"
#include "persist/epoch.hh"
#include "persist/epoch_table.hh"
#include "persist/undo_log.hh"
#include "sim/inline_callback.hh"
#include "sim/logging.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace persim::cache
{
class L1Cache;
} // namespace persim::cache

namespace persim::persist
{

class PersistController;

/**
 * The arbiter that sits in one core's L1 controller (Figure 9).
 *
 * It owns the core's in-flight epoch window and runs the epoch-flush
 * handshake: L1 flush walk, FlushEpoch broadcast to all LLC banks,
 * BankAck collection, and the PersistCMP broadcast. It also holds the
 * core's IDT dependence/inform registers and implements epoch splitting
 * for deadlock avoidance.
 */
class EpochArbiter : public SimObject
{
  public:
    EpochArbiter(const std::string &name, EventQueue &eq,
                 PersistController &pc, CoreId core);

    /** Bind the L1 this arbiter shares a controller with. */
    void setL1(cache::L1Cache *l1) { _l1 = l1; }

    CoreId core() const { return _core; }
    EpochTable &table() { return _table; }

    // ------------------------------------------------------------------
    // Core-side interface
    // ------------------------------------------------------------------

    /** Epoch id new stores tag (the current ongoing epoch). */
    EpochId currentEpoch() const { return _cur->id; }

    /**
     * A store performed at the L1: it belongs to the current epoch
     * (stores tag at completion time, §2.1).
     *
     * Header-inlined via the cached current-epoch pointer — the
     * common same-epoch (coalescing) store touches no table state
     * beyond one counter bump. See the _cur invariant below.
     *
     * @return The current epoch.
     */
    Epoch &
    notePerformedStore()
    {
        simAssert(!_cur->closed, name(),
                  ": store performed into a closed epoch");
        ++_cur->storeCount;
        return *_cur;
    }

    /**
     * The core executed a persist barrier (its write buffer already
     * drained — the barrier has store-fence semantics). Closes the
     * current epoch and opens the next (stalling on a full window);
     * with blockingBarrier (EP), @p cont runs only once the closed
     * epoch has persisted.
     */
    void barrier(InlineCallback cont);

    /** End-of-run: close the current epoch and flush everything. */
    void drain(InlineCallback cont);

    // ------------------------------------------------------------------
    // Conflict-resolution interface (called via PersistController)
    // ------------------------------------------------------------------

    /** True if @p epoch has fully persisted (or retired). */
    bool isPersisted(EpochId epoch) const
    {
        return _table.isPersisted(epoch);
    }

    /** True if @p epoch is the current ongoing epoch. */
    bool isOngoing(EpochId epoch) const
    {
        return _cur->id == epoch && !_cur->closed;
    }

    /**
     * Ensure @p epoch is closed, splitting the ongoing epoch if needed
     * (§3.3). @p cont receives the id of the closed epoch (the prefix).
     * With splitting disabled, waits for the epoch to close naturally —
     * the deadlock-prone behaviour the paper's scheme avoids.
     *
     * @param cause Conflict type demanding the closed epoch (for stall
     *              attribution when the window is full).
     */
    void prepareClosedEpoch(EpochId epoch, FlushCause cause,
                            InlineFunction<void(EpochId)> cont);

    /** Issue one undo-log line write on behalf of @p epoch (§5.2.1). */
    void issueLogWrite(EpochId epoch);

    /**
     * Demand that epochs up to and including @p target persist.
     *
     * @param target Must be a closed (or persisted) epoch.
     * @param cause Attribution for Figure 12 if this demand starts the
     *              flush.
     * @param onPersisted Optional continuation once @p target persists.
     */
    void ensureFlushedUpTo(EpochId target, FlushCause cause,
                           InlineCallback onPersisted);

    /**
     * IDT: record that @p depEpoch (of this core) must persist after
     * @p src. @return false if the dependence register file is full.
     */
    bool recordDependence(EpochId depEpoch, const IdtEntry &src);

    /**
     * IDT: record that remote @p dependent must be informed when
     * @p srcEpoch (of this core) persists. @return false when full.
     */
    bool recordInform(EpochId srcEpoch, const IdtEntry &dependent);

    /** A remote source epoch this core depends on has persisted. */
    void onSourcePersisted(const IdtEntry &src);

    // ------------------------------------------------------------------
    // Flush-protocol message handlers
    // ------------------------------------------------------------------

    /** BankAck received from one LLC bank for @p epoch. */
    void onBankAck(EpochId epoch);

    /** A bank issued a line flush of @p epoch to a memory controller. */
    void onFlushIssued(EpochId epoch);

    /** A flushed line of @p epoch became durable (PersistAck relayed). */
    void onLinePersisted(EpochId epoch);

    /** An undo-log write of @p epoch became durable. */
    void onLogWritePersisted(EpochId epoch);

    /** A checkpoint line of @p epoch became durable. */
    void onCheckpointPersisted(EpochId epoch);

    // ------------------------------------------------------------------
    // Incarnation accounting (called by PersistController)
    // ------------------------------------------------------------------

    /** An incarnation of @p epoch ended without persisting (steal). */
    void removeLiveLine(EpochId epoch);

    /** All of this core's epochs (incl. current, even if open) drained? */
    bool fullyPersisted();

    /** Re-examine the window head and start a flush if one is due. */
    void tryAdvance();

    /** One-line state dump for deadlock diagnosis. */
    void debugDump(std::ostream &os);

  private:
    Epoch *mustFind(EpochId epoch);
    void maybeComplete(Epoch &e);
    void startFlush(Epoch &e);
    void maybeBeginBankPhase(Epoch &e);
    void beginBankPhase(Epoch &e);
    /** Walk the epoch's L1 lines; FlushEpoch once none is left. */
    void flushWalk(EpochId id);
    void maybeFinishFlush(Epoch &e);
    void declarePersisted(Epoch &e);
    void splitNow(FlushCause cause, InlineFunction<void(EpochId)> cont);
    void issueCheckpoint(Epoch &e);
    /** Demand a flush of the window head to open a slot. */
    void demandHeadroom(FlushCause cause);
    /** Ask a remote arbiter (once) to flush a source we depend on. */
    void pullSource(Epoch &e, const IdtEntry &src);
    /** Run retire-waiters blocked on a full window. */
    void serviceRetireWaiters();

    /** Move @p list's continuations out, leaving spare storage in it. */
    std::vector<InlineCallback>
    takeWaiters(std::vector<InlineCallback> &list);

    /** Run continuations from takeWaiters(), then keep the storage. */
    void runWaiters(std::vector<InlineCallback> &&waiters);

    PersistController &_pc;
    CoreId _core;
    cache::L1Cache *_l1 = nullptr;
    EpochTable _table;

    /**
     * Cached pointer to the current (Ongoing) epoch's ring slot.
     *
     * Invariant (DESIGN.md §3a.2): the EpochTable ring never
     * reallocates, so the pointer is stable; it goes stale ONLY when
     * closeCurrentAndOpen() advances the current epoch, and every such
     * site (barrier, drain, splitNow — the only callers) must refresh
     * it via refreshCurrent() before the next store can perform.
     */
    Epoch *_cur = nullptr;

    void refreshCurrent() { _cur = &_table.current(); }

    /** Highest epoch id demanded to persist. */
    EpochId _flushTarget = 0;
    bool _flushDemanded = false;

    /** Continuations waiting for a window slot (barrier/split stalls). */
    std::vector<InlineCallback> _retireWaiters;

    /**
     * Emptied waiter-list storage. takeWaiters() hands one to the list
     * it empties and runWaiters() returns it, so an epoch slot's waiter
     * lists keep capacity from one use to the next.
     */
    std::vector<std::vector<InlineCallback>> _spareWaiters;

    /** Line list of the L1 flush walk, reused from walk to walk. */
    std::vector<Addr> _flushWalkLines;

    /** Per-core NVRAM log/checkpoint regions. */
    UndoLog _undoLog;

  public:
    StatGroup statGroup;
    Scalar statEpochsPersisted;
    Scalar statEpochsConflicted;
    Scalar statFlushIntra;
    Scalar statFlushInter;
    Scalar statFlushReplacement;
    Scalar statFlushProactive;
    Scalar statFlushBarrier;
    Scalar statFlushDrain;
    Scalar statTrivialEpochs;
    Scalar statSplits;
    Scalar statIdtDepRecorded;
    Scalar statIdtOverflow;
    Scalar statBarrierStalls;
    Scalar statCheckpointLines;
    Scalar statLogWrites;
    Distribution statEpochLines;
    Distribution statFlushLatency;
};

} // namespace persim::persist

#endif // PERSIM_PERSIST_EPOCH_ARBITER_HH
