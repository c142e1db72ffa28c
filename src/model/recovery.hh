/**
 * @file
 * Post-crash recovery analysis over a recorded durable-write log.
 *
 * BEP's guarantee (§5.1) is that after a crash at any instant, the
 * persistent image corresponds to a prefix of each thread's epochs
 * plus the inter-thread dependence closure. BSP's guarantee (§5.2) is
 * the same at hardware-epoch granularity, with the undo log covering
 * the one partially-persisted epoch per core.
 *
 * Only the per-core half is checked here: the persist log records
 * durable writes but no inter-thread edges, so consistency means each
 * core's durable lines form an epoch prefix (at most one partial epoch
 * at the end). Checking the closure needs the edges in the log; see
 * ROADMAP.md, "Streaming recovery, with the cross-core closure".
 *
 * RecoveryAnalysis replays a persist log (recorded by the ordering
 * checker when SystemConfig::keepPersistLog is set) up to an arbitrary
 * crash point and computes, per core, the recovery point — the last
 * epoch whose effects survive — plus which lines a BSP undo log would
 * roll back. Tests and the examples use it to demonstrate crash
 * consistency at every possible crash instant.
 */

#ifndef PERSIM_MODEL_RECOVERY_HH
#define PERSIM_MODEL_RECOVERY_HH

#include <cstdint>
#include <map>
#include <vector>

#include "model/ordering_checker.hh"
#include "sim/types.hh"

namespace persim::model
{

/** Recovery outcome for one core. */
struct CoreRecovery
{
    /**
     * Highest epoch id that is fully durable (every unwaived line
     * persisted); kNoEpoch when no epoch completed at all.
     */
    EpochId lastComplete = kNoEpoch;

    /** An epoch after lastComplete persisted some but not all lines. */
    bool hasPartialEpoch = false;

    /** Id of the partial epoch (valid when hasPartialEpoch). */
    EpochId partialEpoch = kNoEpoch;

    /** Lines of the partial epoch already durable (to undo). */
    std::vector<Addr> linesToUndo;
};

/** Whole-machine recovery outcome at one crash point. */
struct RecoveryReport
{
    /** Per-core recovery state, indexed by core id. */
    std::vector<CoreRecovery> cores;

    /**
     * True when the image is consistent for *epoch* persistency: each
     * core's durable lines form an epoch prefix (at most one partial
     * epoch at the end, which undo logging can roll back).
     */
    bool consistent = true;

    /** Human-readable inconsistencies (empty when consistent). */
    std::vector<std::string> problems;

    /** Total durable data lines at the crash point. */
    std::uint64_t durableLines = 0;
};

/**
 * Analyze recoverability of a persist log.
 *
 * The full log defines each epoch's expected line set; the prefix
 * [0, crashIndex) defines what is durable at the crash.
 */
class RecoveryAnalysis
{
  public:
    /**
     * @param log Full durable-write log of a completed run.
     * @param numCores Cores in the machine.
     */
    RecoveryAnalysis(
        const std::vector<OrderingChecker::PersistEvent> &log,
        unsigned numCores);

    /**
     * Compute the recovery report for a crash after @p crashIndex
     * durable writes.
     */
    RecoveryReport analyze(std::size_t crashIndex) const;

    /**
     * Check consistency at every crash point in one pass over the
     * log; agrees with analyze(cut).consistent for every cut.
     *
     * @return The first inconsistent crash index, or log.size()+1 if
     *         every point is recoverable.
     */
    std::size_t firstInconsistency() const;

    std::size_t logSize() const { return _log.size(); }

  private:
    const std::vector<OrderingChecker::PersistEvent> &_log;
    unsigned _numCores;

    /** Expected line count per (core, epoch), from the full log. */
    std::map<std::pair<CoreId, EpochId>, std::uint64_t> _expected;
};

} // namespace persim::model

#endif // PERSIM_MODEL_RECOVERY_HH
