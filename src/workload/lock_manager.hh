/**
 * @file
 * Functional spinlocks for the execution-driven workloads.
 */

#ifndef PERSIM_WORKLOAD_LOCK_MANAGER_HH
#define PERSIM_WORKLOAD_LOCK_MANAGER_HH

#include <cstdint>

#include "cache/flat_table.hh"
#include "sim/types.hh"

namespace persim::workload
{

/**
 * Host-side lock state keyed by the lock word's simulated address.
 *
 * The simulator carries no data values, so lock *semantics* live here
 * while lock *traffic* (the probe load and the CAS store of the lock
 * word) is emitted into the memory stream by the workloads — those
 * shared writes are exactly what creates the paper's inter-thread
 * conflicts.
 */
class LockManager
{
  public:
    /**
     * Attempt to take the lock at @p lockAddr for @p thread.
     * @return true on acquisition.
     */
    bool tryAcquire(Addr lockAddr, CoreId thread);

    /** Release a lock held by @p thread. */
    void release(Addr lockAddr, CoreId thread);

    /** Holder of the lock, or kNoCore. */
    CoreId holder(Addr lockAddr) const;

    std::uint64_t acquisitions() const { return _acquisitions; }
    std::uint64_t contendedTries() const { return _contended; }

  private:
    /** Lock line -> holding thread; an absent line is free. */
    cache::FlatAddrMap<CoreId> _held;
    std::uint64_t _acquisitions = 0;
    std::uint64_t _contended = 0;
};

} // namespace persim::workload

#endif // PERSIM_WORKLOAD_LOCK_MANAGER_HH
