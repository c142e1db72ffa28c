#include "workload/lock_manager.hh"

#include "sim/logging.hh"

namespace persim::workload
{

bool
LockManager::tryAcquire(Addr lockAddr, CoreId thread)
{
    const std::size_t before = _held.size();
    CoreId &holder = _held.insertOrFind(lineAlign(lockAddr));
    if (_held.size() != before) {
        holder = thread;
        ++_acquisitions;
        return true;
    }
    simAssert(holder != thread, "recursive lock acquisition");
    ++_contended;
    return false;
}

void
LockManager::release(Addr lockAddr, CoreId thread)
{
    const Addr line = lineAlign(lockAddr);
    const CoreId *holder = _held.find(line);
    simAssert(holder && *holder == thread,
              "release of a lock not held by thread ", thread);
    _held.erase(line);
}

CoreId
LockManager::holder(Addr lockAddr) const
{
    const CoreId *holder = _held.find(lineAlign(lockAddr));
    return holder ? *holder : kNoCore;
}

} // namespace persim::workload
