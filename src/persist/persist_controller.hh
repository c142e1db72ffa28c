/**
 * @file
 * Global persist-barrier controller: policy, wiring, conflict resolution.
 */

#ifndef PERSIM_PERSIST_PERSIST_CONTROLLER_HH
#define PERSIM_PERSIST_PERSIST_CONTROLLER_HH

#include <memory>
#include <string>
#include <vector>

#include "cache/cache_line.hh"
#include "persist/barrier_config.hh"
#include "persist/epoch_arbiter.hh"
#include "persist/epoch_observer.hh"
#include "sim/inline_callback.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace persim::cache
{
class L1Cache;
class LlcBank;
} // namespace persim::cache

namespace persim::noc
{
class Mesh;
} // namespace persim::noc

namespace persim::nvm
{
class MemoryController;
} // namespace persim::nvm

namespace persim::persist
{

/**
 * The brain of the persist-barrier implementation.
 *
 * Owns the per-core arbiters and implements the conflict taxonomy of §3:
 * caches call in at the hook points (store performing at L1, request
 * resolution at an LLC bank, LLC victim selection) and the controller
 * resolves intra-thread, inter-thread and replacement conflicts according
 * to the configured barrier variant (LB / LB+IDT / LB+PF / LB++).
 */
class PersistController : public SimObject
{
  public:
    PersistController(const std::string &name, EventQueue &eq,
                      const BarrierConfig &cfg, unsigned numCores);
    ~PersistController() override;

    /** Wire up the memory system (call once, after construction). */
    void connect(std::vector<cache::L1Cache *> l1s,
                 std::vector<cache::LlcBank *> banks,
                 std::vector<nvm::MemoryController *> mcs,
                 noc::Mesh *mesh);

    /** Attach the epoch observer (ordering checker); may be nullptr. */
    void setObserver(EpochObserver *obs) { _observer = obs; }

    bool enabled() const { return _cfg.enabled; }
    const BarrierConfig &config() const { return _cfg; }
    EpochObserver *observer() { return _observer; }

    EpochArbiter &arbiter(CoreId core) { return *_arbiters[core]; }
    unsigned numCores() const { return static_cast<unsigned>(_arbiters.size()); }

    cache::L1Cache &l1(CoreId core) { return *_l1s[core]; }
    cache::LlcBank &bank(unsigned idx) { return *_banks[idx]; }
    unsigned numBanks() const { return static_cast<unsigned>(_banks.size()); }
    nvm::MemoryController &mcFor(Addr addr);
    noc::Mesh &mesh() { return *_mesh; }

    // ------------------------------------------------------------------
    // L1-side hooks
    // ------------------------------------------------------------------

    /**
     * A store by @p core is about to perform on an L1-resident
     * exclusive @p line. Resolves an intra-thread conflict (line tagged
     * with an older unpersisted epoch of the same core, §3.2) before
     * running @p cont.
     */
    void beforeL1Store(CoreId core, cache::CacheLine &line,
                       InlineCallback cont);

    /**
     * Header-inlined fast form of beforeL1Store (DESIGN.md §3a.2):
     * true when the store may perform immediately — persistence off,
     * an untagged line, or the common same-epoch coalescing store —
     * exactly the cases where beforeL1Store would run its continuation
     * synchronously without touching any state. The caller then skips
     * constructing the continuation callback entirely; any other case
     * (stale persisted tag, intra-thread conflict) must go through
     * beforeL1Store.
     */
    bool
    tryFastStore(CoreId core, const cache::CacheLine &line)
    {
        if (!_cfg.enabled || !line.tagged())
            return true;
        return line.epochCore() == core &&
               line.epochId() == arbiter(core).currentEpoch();
    }

    /**
     * The store performed: tag the line with the core's current epoch
     * (stores tag at completion time), track the incarnation, and (BSP
     * with logging) emit the undo-log write for a first modification.
     *
     * Inlined so the same-epoch coalescing store — the bulk of all
     * stores — is a counter bump plus one assert, with no out-of-line
     * call; first-touch tagging takes the out-of-line tail.
     */
    void
    afterL1Store(CoreId core, cache::CacheLine &line)
    {
        if (!_cfg.enabled)
            return;
        // Stores tag at completion time with the current epoch (§2.1).
        Epoch &e = arbiter(core).notePerformedStore();
        if (line.tagged()) {
            if (line.epochCore() != core || line.epochId() != e.id)
                [[unlikely]] foreignIncarnation(core, line, e.id);
            return; // same-epoch coalescing: nothing new to track
        }
        afterL1StoreTagNew(core, line, e);
    }

    /**
     * A dirty L1 line was written back into the LLC (natural eviction,
     * downgrade, or flush walk): move its incarnation bookkeeping from
     * the L1's flush engine to the bank's and tag the LLC copy.
     */
    void onL1Writeback(CoreId core, const cache::CacheLine &l1Line,
                       cache::CacheLine &llcLine, unsigned bankIdx);

    // ------------------------------------------------------------------
    // Bank-side hooks
    // ------------------------------------------------------------------

    /**
     * A request by @p reqCore reached LLC @p line, which may carry an
     * unpersisted tag. Resolves intra-thread (§3.2), inter-thread
     * (§3.1, with IDT when enabled) and deadlock (§3.3) situations,
     * then runs @p cont. The caller re-reads line state afterwards —
     * resolution may have flushed or invalidated it.
     */
    void resolveBankAccess(unsigned bankIdx, CoreId reqCore, bool isWrite,
                           Addr addr, InlineCallback cont);

    /**
     * True when a write grant to @p reqCore must re-run conflict
     * resolution first: a split advanced the requester's epoch while
     * the transaction was in flight, leaving an unpersisted same-core
     * tag from an older epoch on the line.
     */
    bool writeGrantNeedsResolve(unsigned bankIdx, CoreId reqCore,
                                Addr addr);

    /**
     * The bank is about to grant write ownership of @p line to
     * @p reqCore: transfer or steal the incarnation.
     * Returns the tag the L1 fill should carry (same-epoch transfer),
     * or an empty tag.
     */
    IdtEntry onBankGrantWrite(unsigned bankIdx, CoreId reqCore,
                              cache::CacheLine &line);

    /**
     * The bank wants to evict tagged @p victim: a replacement conflict.
     * Flushes epochs up to the victim's, then runs @p cont; the caller
     * re-checks the victim (the flush untags it; an invalidating flush
     * removes it entirely).
     */
    void beforeLlcEviction(unsigned bankIdx, cache::CacheLine &victim,
                           InlineCallback cont);

    // ------------------------------------------------------------------
    // End of run
    // ------------------------------------------------------------------

    /** Drain every core's epochs; @p cont when all are persisted. */
    void drainAll(InlineCallback cont);

    /** Append this controller's stat groups (own + per-core arbiters). */
    void collectStatGroups(std::vector<const StatGroup *> &out) const;

    // Aggregate counters (summed over arbiters where applicable).
    StatGroup statGroup;
    Scalar statIntraConflicts;
    Scalar statInterConflicts;
    Scalar statReplacementConflicts;
    Scalar statIdtResolutions;   // inter-thread conflicts absorbed by IDT
    Scalar statOnlineFlushWaits; // requests that waited for a flush
    Scalar statStealsClean;      // overwrite took an un-flushed incarnation
    Scalar statStealsInFlight;   // overwrite raced an in-flight flush
    Scalar statProtocolMessages; // flush-protocol control messages
    Distribution statConflictWait; // cycles a conflicting request waited

  private:
    friend class EpochArbiter;

    /** L1 store conflict fixpoint (intra-thread, §3.2). */
    void resolveL1StoreConflict(CoreId core, Addr addr,
                                InlineCallback cont);

    /** afterL1Store tail: first store to @p line in epoch @p e. */
    void afterL1StoreTagNew(CoreId core, cache::CacheLine &line,
                            Epoch &e);

    /** afterL1Store failure: panic naming @p line's address and tag. */
    [[noreturn]] void foreignIncarnation(CoreId core,
                                         const cache::CacheLine &line,
                                         EpochId epoch);

    /** Inter-thread resolution once the source epoch is closed. */
    void resolveInterThreadClosed(CoreId reqCore, bool isWrite,
                                  CoreId srcCore, EpochId srcEpoch,
                                  unsigned bankIdx,
                                  InlineCallback cont);

    /** Mesh round-trip helper: control message to a core's L1 node. */
    void toArbiter(unsigned fromNode, CoreId core,
                   InlineCallback atArbiter);

    BarrierConfig _cfg;
    std::vector<std::unique_ptr<EpochArbiter>> _arbiters;
    std::vector<cache::L1Cache *> _l1s;
    std::vector<cache::LlcBank *> _banks;
    std::vector<nvm::MemoryController *> _mcs;
    noc::Mesh *_mesh = nullptr;
    EpochObserver *_observer = nullptr;
};

} // namespace persim::persist

#endif // PERSIM_PERSIST_PERSIST_CONTROLLER_HH
