/**
 * @file
 * Private per-core L1 data cache with epoch-tagged lines.
 */

#ifndef PERSIM_CACHE_L1_CACHE_HH
#define PERSIM_CACHE_L1_CACHE_HH

#include <deque>
#include <string>

#include "cache/cache_array.hh"
#include "cache/mshr.hh"
#include "noc/network_interface.hh"
#include "sim/inline_callback.hh"
#include "persist/flush_engine.hh"
#include "sim/pending_ring.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace persim::persist
{
class PersistController;
struct IdtEntry;
} // namespace persim::persist

namespace persim::cache
{

/** L1 parameters (Table 1 defaults). */
struct L1Config
{
    CacheGeometry geometry{32 * 1024, 4};
    Tick accessLatency = 3;
    unsigned mshrs = 16;
};

/** How a line leaves (or is cleaned in) the L1; see writebackLine(). */
enum class WritebackKind
{
    Eviction,           // capacity eviction: line leaves the L1
    DowngradeToShared,  // remote read recalled the line; keep it Shared
    DowngradeToInvalid, // remote write recalled the line; drop it
    FlushRetain,        // clwb-style flush: keep the line, now clean
};

/**
 * One core's private L1 data cache.
 *
 * Writebacks transfer state to the home LLC bank synchronously (the
 * directory is always exact) while the mesh charges bandwidth; see
 * DESIGN.md §2. The cache carries the paper's epoch-tag extension and
 * calls into the PersistController at every persist-relevant point.
 */
class L1Cache : public SimObject
{
  public:
    L1Cache(const std::string &name, EventQueue &eq, noc::Mesh &mesh,
            unsigned nodeId, unsigned x, unsigned y, CoreId core,
            const L1Config &cfg, persist::PersistController &pc);

    CoreId core() const { return _core; }
    unsigned nodeId() const { return _ni.nodeId(); }
    noc::NetworkInterface &ni() { return _ni; }

    // ------------------------------------------------------------------
    // Core-side interface
    // ------------------------------------------------------------------

    /**
     * Perform a load or store to @p addr.
     *
     * Header-inlined fast path (DESIGN.md §3a.2): the payload is
     * staged in a ring and the +accessLatency event carries only
     * `this` — an 8-byte capture that always fits the inline-callback
     * buffer, where the old per-access lambda (addr + kind + the
     * completion callback) spilled to the callback arena on every
     * access. The tag probe still happens at +accessLatency
     * (stagePop), so hit/miss decisions observe exactly the state the
     * unstaged path did and figure output is unchanged. FIFO pop
     * order matches push order because every staged event is
     * scheduled with the same delay and the event queue breaks
     * same-tick ties in schedule order.
     *
     * @param onComplete Runs when the access has performed. Stores are
     *        epoch-tagged at completion time by the persist controller.
     */
    void
    access(Addr addr, bool isWrite, InlineCallback onComplete)
    {
        addr = lineAlign(addr);
        if (isWrite)
            ++_stores;
        else
            ++_loads;
        _array.prefetchSet(addr); // tag probe runs at +accessLatency
        _staged.push(StagedAccess{addr, isWrite, std::move(onComplete)});
        scheduleIn(_cfg.accessLatency, [this] { stagePop(); });
    }

    /**
     * Best-effort exclusive (RFO) prefetch: acquire ownership of
     * @p addr without performing a store, modelling the OoO core's
     * store-miss overlap. Dropped silently when the MSHRs are busy or
     * the line is already exclusive.
     */
    void prefetchExclusive(Addr addr);

    // ------------------------------------------------------------------
    // Bank-side message handlers (invoked at mesh delivery)
    // ------------------------------------------------------------------

    /**
     * Recall for a remote request: write back a dirty copy and downgrade
     * (Shared for a remote read, Invalid for a remote write), then send
     * the reply whose delivery runs @p replyAtBank.
     */
    void handleDowngrade(Addr addr, bool forWrite, unsigned bankNode,
                         InlineCallback replyAtBank);

    /** Invalidate a Shared copy; ack delivery runs @p ackAtBank. */
    void handleInvalidate(Addr addr, unsigned bankNode,
                          InlineCallback ackAtBank);

    /**
     * Fill/upgrade grant from the home bank.
     *
     * @param state Granted state (Modified, Exclusive or Shared).
     * @param tagCore/tagEpoch Persist tag the line arrives with (a
     *        same-epoch incarnation moving back to this L1), or
     *        kNoCore/kNoEpoch.
     */
    void handleFillGrant(Addr addr, CoherenceState state, CoreId tagCore,
                         EpochId tagEpoch);

    // ------------------------------------------------------------------
    // Persist-machinery interface
    // ------------------------------------------------------------------

    /**
     * Flush walk (§4.1 step 1): write back every line in @p lines,
     * pacing issues by @p interval cycles.
     *
     * @param invalidating clflush-like (drop lines) vs clwb-like (keep).
     * @return Tick by which the last writeback has been delivered (the
     *         earliest time the FlushEpoch broadcast may be processed).
     */
    Tick flushLines(const std::vector<Addr> &lines, bool invalidating,
                    Tick interval);

    /**
     * Issue a direct NVRAM write (undo log, checkpoint, write-through
     * stores) to the responsible memory controller.
     *
     * @param onAckHere Runs at this L1 when the PersistAck arrives.
     */
    void issueNvmWrite(Addr addr, CoreId core, EpochId epoch, bool isLog,
                       InlineCallback onAckHere);

    /** This L1's flush-engine bookkeeping. */
    persist::FlushEngine &flushEngine() { return _flushEngine; }

    /** Tag-array lookup (tests and persist machinery). */
    CacheLine *find(Addr addr) { return _array.find(addr); }

    CacheArray &array() { return _array; }
    StatGroup &stats() { return _stats; }

    /** In-use MSHR entries (interval-stat sampling). */
    std::size_t mshrOccupancy() const { return _mshrs.size(); }

  private:
    /** One access parked between issue and the +accessLatency stage. */
    struct StagedAccess
    {
        Addr addr = 0;
        bool isWrite = false;
        InlineCallback onComplete;
    };

    /** Dequeue the oldest staged access and run stage 2. */
    void stagePop();
    void accessStage2(Addr addr, bool isWrite,
                      InlineCallback onComplete);
    /** Try to perform a store on a resident exclusive line. */
    void performStore(Addr addr, InlineCallback onComplete);
    void sendMiss(Addr addr, bool isWrite, PendingAccess acc);
    void replayNext(Addr addr, std::vector<PendingAccess> queue,
                    std::size_t idx);
    /**
     * Move @p line out of (or clean it in) this L1, transferring state to
     * the home bank synchronously and charging mesh bandwidth.
     */
    void writebackLine(CacheLine &line, WritebackKind kind);
    void serviceDeferred();
    /** Observability: close/open the MSHR-occupancy episode span. */
    void probeMshrEpisode();

    CoreId _core;
    L1Config _cfg;
    persist::PersistController &_pc;
    StatGroup _stats;
    noc::NetworkInterface _ni;
    CacheArray _array;
    MshrFile _mshrs;
    persist::FlushEngine _flushEngine;

    /** Accesses staged by access() awaiting their +accessLatency slot. */
    PendingRing<StagedAccess> _staged;

    /** Accesses deferred because the MSHR file was full. */
    std::deque<InlineCallback> _deferred;

    /** Start of the current MSHR busy episode (kTickNever when idle). */
    Tick _mshrBusySince = kTickNever;

    Scalar _loads;
    Scalar _stores;
    Scalar _hits;
    Scalar _misses;
    Scalar _writebacksDirty;
    Scalar _writebacksClean;
    Scalar _downgrades;
    Scalar _invalidations;
    Scalar _mshrDefers;
};

/** Home LLC bank of @p addr with @p numBanks banks (line-interleaved). */
inline unsigned
homeBankOf(Addr addr, unsigned numBanks)
{
    return static_cast<unsigned>(lineNum(addr)) % numBanks;
}

} // namespace persim::cache

#endif // PERSIM_CACHE_L1_CACHE_HH
