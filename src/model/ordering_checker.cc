#include "model/ordering_checker.hh"

#include <sstream>

#include "persist/undo_log.hh"
#include "sim/logging.hh"

namespace persim::model
{

namespace
{
/** Slots per core ring at construction: the paper's in-flight epoch
 * table holds 8, and settling lags the arbiter by a few more. */
constexpr std::size_t kInitialRingSlots = 16;
} // namespace

OrderingChecker::OrderingChecker(unsigned numCores, bool keepLog)
    : _numCores(numCores), _keepLog(keepLog), _rings(numCores),
      _pendingByAddr(1024), _blockedOn(numCores, kNotBlocked)
{
    for (Ring &ring : _rings)
        ring.slots.resize(kInitialRingSlots);
}

void
OrderingChecker::violation(std::string what)
{
    // Cap the list so a systematic bug doesn't eat all memory.
    if (_violations.size() < 256)
        _violations.push_back(std::move(what));
}

void
OrderingChecker::settledViolation(const char *what, CoreId core,
                                  EpochId epoch)
{
    std::ostringstream os;
    os << what << " core " << core << " epoch " << epoch
       << " after it settled";
    violation(os.str());
}

bool
OrderingChecker::isSettled(CoreId core, EpochId epoch) const
{
    return epoch < _rings[core].next;
}

OrderingChecker::EpochState *
OrderingChecker::findLive(CoreId core, EpochId epoch)
{
    Ring &ring = _rings[core];
    if (epoch < ring.next || epoch - ring.next >= ring.slots.size())
        return nullptr;
    EpochState &st = ring.slots[epoch & (ring.slots.size() - 1)];
    return st.live ? &st : nullptr;
}

OrderingChecker::EpochState &
OrderingChecker::stateFor(CoreId core, EpochId epoch)
{
    Ring &ring = _rings[core];
    if (epoch - ring.next >= ring.slots.size())
        grow(ring, epoch);
    EpochState &st = ring.slots[epoch & (ring.slots.size() - 1)];
    st.live = true;
    return st;
}

void
OrderingChecker::grow(Ring &ring, EpochId epoch)
{
    const std::size_t oldSize = ring.slots.size();
    std::size_t size = oldSize;
    while (epoch - ring.next >= size)
        size *= 2;
    std::vector<EpochState> slots(size);
    for (EpochId id = ring.next; id < ring.next + oldSize; ++id) {
        slots[id & (size - 1)] =
            std::move(ring.slots[id & (oldSize - 1)]);
    }
    ring.slots = std::move(slots);
}

bool
OrderingChecker::addPending(CoreId core, EpochId epoch, Addr addr)
{
    PendingHead &head = _pendingByAddr.insertOrFind(addr);
    for (std::uint32_t n = head.head; n != PendingPool::kNil;
         n = _pendingPool.next(n)) {
        const PendingLine &line = _pendingPool.at(n);
        if (line.core == core && line.epoch == epoch)
            return false;
    }
    const std::uint32_t n = _pendingPool.alloc(PendingLine{epoch, core});
    _pendingPool.setNext(n, head.head);
    head.head = n;
    return true;
}

bool
OrderingChecker::removePending(CoreId core, EpochId epoch, Addr addr)
{
    PendingHead *head = _pendingByAddr.find(addr);
    if (!head)
        return false;
    std::uint32_t prev = PendingPool::kNil;
    for (std::uint32_t n = head->head; n != PendingPool::kNil;
         prev = n, n = _pendingPool.next(n)) {
        const PendingLine &line = _pendingPool.at(n);
        if (line.core != core || line.epoch != epoch)
            continue;
        const std::uint32_t next = _pendingPool.next(n);
        if (prev == PendingPool::kNil)
            head->head = next;
        else
            _pendingPool.setNext(prev, next);
        _pendingPool.release(n);
        if (head->head == PendingPool::kNil)
            _pendingByAddr.erase(addr);
        return true;
    }
    return false;
}

void
OrderingChecker::onStoreTagged(CoreId core, EpochId epoch, Addr addr)
{
    if (isSettled(core, epoch)) {
        settledViolation("store tagged into", core, epoch);
        return;
    }
    EpochState &st = stateFor(core, epoch);
    if (addPending(core, epoch, lineAlign(addr)))
        ++st.pending;
}

void
OrderingChecker::onSteal(CoreId oldCore, EpochId oldEpoch, CoreId newCore,
                         EpochId newEpoch, Addr addr,
                         bool srcFlushInFlight)
{
    addr = lineAlign(addr);
    if (!srcFlushInFlight) {
        // The old incarnation will never persist: waive the line.
        EpochState *st = findLive(oldCore, oldEpoch);
        if (!st || !removePending(oldCore, oldEpoch, addr)) {
            std::ostringstream os;
            os << "steal of line 0x" << std::hex << addr << std::dec
               << " that core " << oldCore << " epoch " << oldEpoch
               << " does not own";
            violation(os.str());
        } else {
            --st->pending;
            trySettle(oldCore);
        }
    }
    // The overwrite orders the new epoch after the old one.
    onDependence(newCore, newEpoch, oldCore, oldEpoch);
}

void
OrderingChecker::onDependence(CoreId depCore, EpochId depEpoch,
                              CoreId srcCore, EpochId srcEpoch)
{
    if (isSettled(srcCore, srcEpoch))
        return;
    if (isSettled(depCore, depEpoch)) {
        // The dependent epoch already persisted in full, before a
        // source that must precede it.
        std::ostringstream os;
        os << "dependence of core " << depCore << " epoch " << depEpoch
           << " on unsettled core " << srcCore << " epoch " << srcEpoch
           << " recorded after the dependent epoch settled";
        violation(os.str());
        return;
    }
    ++_dependenceEdges;
    stateFor(depCore, depEpoch).preds.push_back(key(srcCore, srcEpoch));
}

void
OrderingChecker::onSplit(CoreId core, EpochId prefix, EpochId remainder)
{
    (void)core;
    (void)prefix;
    (void)remainder;
    // Splits create a fresh epoch id; program order covers the rest.
}

void
OrderingChecker::onPersist(Tick when, Addr addr, CoreId core,
                           EpochId epoch, bool isLog)
{
    ++_persists;
    if (_keepLog)
        _log.push_back(PersistEvent{when, addr, core, epoch, isLog});
    if (core == kNoCore || epoch == kNoEpoch)
        return; // untagged write (natural eviction, write-through SP):
                // unordered by design

    if (isLog) {
        // Undo-log rule: old values persist before any new data of the
        // epoch does. Checkpoint lines are exempt (protected by the log).
        const bool isCheckpoint =
            addr >= persist::UndoLog::kCheckpointBase;
        const EpochState *st = findLive(core, epoch);
        if (!isCheckpoint && st && st->dataStarted) {
            std::ostringstream os;
            os << "undo-log write of core " << core << " epoch " << epoch
               << " persisted after the epoch's data began";
            violation(os.str());
        }
        return;
    }

    ++_taggedPersists;
    if (isSettled(core, epoch)) {
        std::ostringstream os;
        os << "line 0x" << std::hex << addr << std::dec
           << " persisted after core " << core << " epoch " << epoch
           << " settled";
        violation(os.str());
        return;
    }
    EpochState *st = findLive(core, epoch);
    if (!st) {
        std::ostringstream os;
        os << "persist of line 0x" << std::hex << addr << std::dec
           << " for unknown epoch (core " << core << ", epoch " << epoch
           << ")";
        violation(os.str());
        return;
    }
    st->dataStarted = true;

    // THE invariant (§4.1): every happens-before predecessor is settled.
    if (_rings[core].next != epoch) {
        std::ostringstream os;
        os << "line of core " << core << " epoch " << epoch
           << " persisted at tick " << when << " before epoch "
           << _rings[core].next << " of the same core settled";
        violation(os.str());
    }
    for (std::uint64_t p : st->preds) {
        const CoreId pc = keyCore(p);
        const EpochId pe = keyEpoch(p);
        if (!isSettled(pc, pe)) {
            std::ostringstream os;
            os << "line of core " << core << " epoch " << epoch
               << " persisted before dependence source (core " << pc
               << " epoch " << pe << ") settled";
            violation(os.str());
        }
    }

    if (removePending(core, epoch, lineAlign(addr))) {
        --st->pending;
    } else {
        std::ostringstream os;
        os << "unexpected persist of line 0x" << std::hex << addr
           << std::dec << " for core " << core << " epoch " << epoch;
        violation(os.str());
    }
    trySettle(core);
}

void
OrderingChecker::onEpochPersisted(CoreId core, EpochId epoch, Tick when)
{
    (void)when;
    if (isSettled(core, epoch)) {
        settledViolation("Persisted declared for", core, epoch);
        return;
    }
    EpochState &st = stateFor(core, epoch);
    if (st.pending != 0) {
        std::ostringstream os;
        os << "core " << core << " epoch " << epoch
           << " declared persisted with " << st.pending
           << " lines still volatile";
        violation(os.str());
    }
    st.declared = true;
    trySettle(core);
}

void
OrderingChecker::trySettle(CoreId core)
{
    while (true) {
        Ring &ring = _rings[core];
        const EpochId e = ring.next;
        EpochState &st = ring.slots[e & (ring.slots.size() - 1)];
        if (!st.live || !st.declared || st.pending != 0)
            return;
        for (std::uint64_t p : st.preds) {
            if (!isSettled(keyCore(p), keyEpoch(p))) {
                if (_blockedOn[core] == kNotBlocked)
                    ++_numBlocked;
                _blockedOn[core] = p;
                return;
            }
        }
        st.preds.clear();
        st.live = st.declared = st.dataStarted = false;
        ring.next = e + 1;
        ++_epochsSettled;
        if (_numBlocked == 0)
            continue;
        // Wake the cores whose next epoch waited on this one. Nothing
        // above is used past this point: a woken core's settling may
        // reach back into this core.
        const std::uint64_t k = key(core, e);
        for (CoreId c = 0; c < _numCores; ++c) {
            if (_blockedOn[c] != k)
                continue;
            _blockedOn[c] = kNotBlocked;
            --_numBlocked;
            if (c != core)
                trySettle(c);
        }
    }
}

void
OrderingChecker::finalize()
{
    for (CoreId c = 0; c < _numCores; ++c) {
        const Ring &ring = _rings[c];
        const std::size_t size = ring.slots.size();
        for (EpochId id = ring.next; id < ring.next + size; ++id) {
            const EpochState &st = ring.slots[id & (size - 1)];
            if (st.live && st.pending != 0) {
                std::ostringstream os;
                os << "end of run: core " << c << " epoch " << id
                   << " still has " << st.pending
                   << " unpersisted lines";
                violation(os.str());
            }
        }
    }
}

} // namespace persim::model
