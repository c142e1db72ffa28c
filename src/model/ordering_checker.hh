/**
 * @file
 * Runtime validator of the paper's persist-ordering invariant.
 */

#ifndef PERSIM_MODEL_ORDERING_CHECKER_HH
#define PERSIM_MODEL_ORDERING_CHECKER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/flat_table.hh"
#include "nvm/nvram.hh"
#include "persist/epoch_observer.hh"
#include "sim/types.hh"

namespace persim::model
{

/**
 * Observes the durable-write stream at the memory controllers and the
 * epoch lifecycle at the arbiters, and independently re-derives the
 * epoch happens-before order (program order per core, plus the recorded
 * inter-thread dependence and overwrite edges).
 *
 * The checked invariant (§4.1): when a line of epoch E becomes durable,
 * every epoch that happens-before E is already *settled* — all of its
 * unwaived lines are durable and its own predecessors are settled. It
 * also checks the undo-logging rule (§5.2.1): an epoch's undo-log
 * writes are durable before any of its data lines.
 *
 * Every event it observes names an unsettled epoch: a store tagged
 * into, a dependence recorded onto, or a Persisted declaration of an
 * epoch that already settled is itself a violation.
 *
 * Violations are collected, not thrown, so tests can assert on them and
 * sweeps can report them. The steady state neither allocates nor
 * hashes per epoch: unsettled epochs live in per-core rings indexed by
 * epoch id, and pending lines in one shared flat table.
 */
class OrderingChecker : public nvm::PersistObserver,
                        public persist::EpochObserver
{
  public:
    /** One entry of the durable-write log (when enabled). */
    struct PersistEvent
    {
        Tick when;
        Addr addr;
        CoreId core;
        EpochId epoch;
        bool isLog;
    };

    /**
     * @param numCores Cores in the system.
     * @param keepLog Record every durable write (tests only).
     */
    explicit OrderingChecker(unsigned numCores, bool keepLog = false);

    // nvm::PersistObserver
    void onPersist(Tick when, Addr addr, CoreId core, EpochId epoch,
                   bool isLog) override;

    // persist::EpochObserver
    void onStoreTagged(CoreId core, EpochId epoch, Addr addr) override;
    void onSteal(CoreId oldCore, EpochId oldEpoch, CoreId newCore,
                 EpochId newEpoch, Addr addr,
                 bool srcFlushInFlight) override;
    void onDependence(CoreId depCore, EpochId depEpoch, CoreId srcCore,
                      EpochId srcEpoch) override;
    void onSplit(CoreId core, EpochId prefix, EpochId remainder) override;
    void onEpochPersisted(CoreId core, EpochId epoch, Tick when) override;

    /**
     * End-of-run check: every tracked epoch must have drained (no
     * pending lines). Appends violations if not.
     */
    void finalize();

    const std::vector<std::string> &violations() const
    {
        return _violations;
    }

    std::uint64_t persistsObserved() const { return _persists; }
    std::uint64_t taggedPersists() const { return _taggedPersists; }
    std::uint64_t epochsSettled() const { return _epochsSettled; }
    std::uint64_t dependenceEdges() const { return _dependenceEdges; }

    /** The durable-write log (empty unless keepLog was set). */
    const std::vector<PersistEvent> &log() const { return _log; }

  private:
    /**
     * One unsettled epoch: a slot of its core's ring. Slots are reused
     * as the ring turns over, so preds keeps its capacity.
     */
    struct EpochState
    {
        std::vector<std::uint64_t> preds; // cross-core hb predecessors
        std::uint32_t pending = 0;        // lines still to persist
        bool live = false;                // some event named the epoch
        bool declared = false;            // arbiter declared Persisted
        bool dataStarted = false;         // first data line durable
    };

    /**
     * Per core: the unsettled epochs [next, next + slots.size()), at
     * slot id & (size - 1). Epoch ids are dense per core and settle in
     * order, so the ring only doubles when one core has more unsettled
     * epochs than slots.
     */
    struct Ring
    {
        std::vector<EpochState> slots;
        EpochId next = 0; // lowest epoch id not yet settled
    };

    /** One (core, epoch) whose line is pending; chained per address. */
    struct PendingLine
    {
        EpochId epoch = kNoEpoch;
        CoreId core = kNoCore;
    };
    using PendingPool = cache::NodePool<PendingLine>;

    /** Head of an address's chain of pending (core, epoch) owners. */
    struct PendingHead
    {
        std::uint32_t head = PendingPool::kNil;
    };

    static constexpr std::uint64_t kNotBlocked = ~std::uint64_t{0};

    static std::uint64_t
    key(CoreId c, EpochId e)
    {
        return (static_cast<std::uint64_t>(c) << 48) ^ e;
    }
    static CoreId keyCore(std::uint64_t k)
    {
        return static_cast<CoreId>(k >> 48);
    }
    static EpochId keyEpoch(std::uint64_t k)
    {
        return k ^ (static_cast<std::uint64_t>(keyCore(k)) << 48);
    }

    bool isSettled(CoreId core, EpochId epoch) const;
    /** The live state of an unsettled epoch, or nullptr. */
    EpochState *findLive(CoreId core, EpochId epoch);
    /** The state of an unsettled epoch, marked live (ring grows). */
    EpochState &stateFor(CoreId core, EpochId epoch);
    void grow(Ring &ring, EpochId epoch);
    /** Add (core, epoch) as an owner of @p addr; false if already one. */
    bool addPending(CoreId core, EpochId epoch, Addr addr);
    /** Drop (core, epoch) as an owner of @p addr; false if not one. */
    bool removePending(CoreId core, EpochId epoch, Addr addr);
    /** Report a call that names (core, epoch) after it settled. */
    void settledViolation(const char *what, CoreId core, EpochId epoch);
    void trySettle(CoreId core);
    void violation(std::string what);

    unsigned _numCores;
    bool _keepLog;
    std::vector<Ring> _rings;

    /** Pending lines of every unsettled epoch, chained per address. */
    cache::FlatAddrMap<PendingHead> _pendingByAddr;
    PendingPool _pendingPool;

    /**
     * Per core: the predecessor key its next epoch's settling waits
     * on, or kNotBlocked. A settle wakes every core blocked on it.
     */
    std::vector<std::uint64_t> _blockedOn;
    unsigned _numBlocked = 0;

    std::vector<std::string> _violations;
    std::vector<PersistEvent> _log;
    std::uint64_t _persists = 0;
    std::uint64_t _taggedPersists = 0;
    std::uint64_t _epochsSettled = 0;
    std::uint64_t _dependenceEdges = 0;
};

} // namespace persim::model

#endif // PERSIM_MODEL_ORDERING_CHECKER_HH
