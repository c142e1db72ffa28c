#include "persist/epoch_arbiter.hh"

#include <utility>

#include "cache/l1_cache.hh"
#include "cache/llc_bank.hh"
#include "persist/persist_controller.hh"
#include "prof/phase.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace persim::persist
{

EpochArbiter::EpochArbiter(const std::string &name, EventQueue &eq,
                           PersistController &pc, CoreId core)
    : SimObject(name, eq),
      _pc(pc),
      _core(core),
      _table(core, pc.config().maxInflightEpochs,
             pc.config().idtRegsPerEpoch),
      _undoLog(core),
      statGroup(name),
      statEpochsPersisted(&statGroup, "epochsPersisted",
                          "epochs declared fully persisted"),
      statEpochsConflicted(&statGroup, "epochsConflicted",
                           "epochs some request conflicted with"),
      statFlushIntra(&statGroup, "flushIntra",
                     "epoch flushes caused by intra-thread conflicts"),
      statFlushInter(&statGroup, "flushInter",
                     "epoch flushes caused by inter-thread conflicts"),
      statFlushReplacement(&statGroup, "flushReplacement",
                           "epoch flushes caused by LLC replacements"),
      statFlushProactive(&statGroup, "flushProactive",
                         "epochs flushed proactively (PF)"),
      statFlushBarrier(&statGroup, "flushBarrier",
                       "epoch flushes caused by blocking barriers"),
      statFlushDrain(&statGroup, "flushDrain",
                     "epoch flushes at end-of-run drain"),
      statTrivialEpochs(&statGroup, "trivialEpochs",
                        "epochs persisted without the bank handshake"),
      statSplits(&statGroup, "splits",
                 "ongoing epochs split for deadlock avoidance"),
      statIdtDepRecorded(&statGroup, "idtDepsRecorded",
                         "IDT dependences recorded"),
      statIdtOverflow(&statGroup, "idtOverflows",
                      "IDT register overflows (online fallback)"),
      statBarrierStalls(&statGroup, "barrierStalls",
                        "barriers stalled on a full epoch window"),
      statCheckpointLines(&statGroup, "checkpointLines",
                          "processor-state checkpoint lines written"),
      statLogWrites(&statGroup, "logWrites", "undo-log lines written"),
      statEpochLines(&statGroup, "epochLines",
                     "lines per flushed epoch"),
      statFlushLatency(&statGroup, "flushLatency",
                       "cycles from flush start to PersistCMP")
{
    refreshCurrent();
}

Epoch *
EpochArbiter::mustFind(EpochId epoch)
{
    Epoch *e = _table.find(epoch);
    simAssert(e, name(), ": epoch ", epoch, " not in window");
    return e;
}

// ---------------------------------------------------------------------
// Core-side interface
// ---------------------------------------------------------------------

void
EpochArbiter::barrier(InlineCallback cont)
{
    prof::ScopedPhase profPhase(prof::Phase::PersistArbiter);
    if (!_table.canOpen()) {
        ++statBarrierStalls;
        // Enqueue the retry BEFORE demanding headroom: a trivial head
        // epoch persists synchronously inside the demand, and its
        // retire services the waiter list.
        _retireWaiters.push_back(
            [this, cont = std::move(cont)]() mutable {
                barrier(std::move(cont));
            });
        demandHeadroom(FlushCause::Barrier);
        return;
    }
    Epoch &prefix = _table.closeCurrentAndOpen(curTick());
    refreshCurrent();
    const EpochId prefixId = prefix.id;
    auto closeWaiters = takeWaiters(prefix.closeWaiters);
    maybeComplete(prefix);
    runWaiters(std::move(closeWaiters));
    if (_pc.config().blockingBarrier)
        ensureFlushedUpTo(prefixId, FlushCause::Barrier, std::move(cont));
    else
        cont();
}

void
EpochArbiter::drain(InlineCallback cont)
{
    prof::ScopedPhase profPhase(prof::Phase::PersistArbiter);
    Epoch &cur = _table.current();
    if (cur.storeCount > 0) {
        // Close the tail epoch so its stores can flush.
        if (!_table.canOpen()) {
            // Waiter first; see barrier() for the ordering rationale.
            _retireWaiters.push_back(
                [this, cont = std::move(cont)]() mutable {
                    drain(std::move(cont));
                });
            demandHeadroom(FlushCause::Drain);
            return;
        }
        Epoch &prefix = _table.closeCurrentAndOpen(curTick());
        refreshCurrent();
        auto closeWaiters = takeWaiters(prefix.closeWaiters);
        maybeComplete(prefix);
        runWaiters(std::move(closeWaiters));
    }
    if (_table.inflight() <= 1) {
        cont();
        return;
    }
    const EpochId target = _table.current().id - 1;
    ensureFlushedUpTo(target, FlushCause::Drain, std::move(cont));
}

bool
EpochArbiter::fullyPersisted()
{
    _table.retirePersisted();
    const Epoch &cur = _table.current();
    return _table.inflight() == 1 && !cur.closed &&
           cur.linesLive == 0 && cur.flushesInFlight == 0 &&
           cur.logWritesPending == 0;
}

// ---------------------------------------------------------------------
// Conflict-resolution interface
// ---------------------------------------------------------------------

void
EpochArbiter::prepareClosedEpoch(EpochId epoch, FlushCause cause,
                                 InlineFunction<void(EpochId)> cont)
{
    Epoch *e = _table.find(epoch);
    if (!e || e->closed) {
        cont(epoch);
        return;
    }
    simAssert(e->id == _table.current().id, name(),
              ": only the current epoch can be ongoing");
    if (_pc.config().splitOngoing) {
        splitNow(cause, std::move(cont));
    } else {
        // Deadlock-prone: wait for the programmer's barrier to close
        // the epoch naturally (§3.3 discussion).
        e->closeWaiters.push_back(
            [cont = std::move(cont), epoch]() mutable { cont(epoch); });
    }
}

void
EpochArbiter::splitNow(FlushCause cause,
                       InlineFunction<void(EpochId)> cont)
{
    if (!_table.canOpen()) {
        // Waiter first; see barrier() for the ordering rationale.
        _retireWaiters.push_back(
            [this, cause, cont = std::move(cont)]() mutable {
                splitNow(cause, std::move(cont));
            });
        demandHeadroom(cause);
        return;
    }
    Epoch &prefix = _table.closeCurrentAndOpen(curTick());
    refreshCurrent();
    ++statSplits;
    const EpochId prefixId = prefix.id;
    tracef("Epoch", *this, "split: prefix ", prefixId, ", remainder ",
           _table.current().id);
    if (_pc.observer())
        _pc.observer()->onSplit(_core, prefixId, _table.current().id);
    auto closeWaiters = takeWaiters(prefix.closeWaiters);
    maybeComplete(prefix);
    runWaiters(std::move(closeWaiters));
    cont(prefixId);
}

void
EpochArbiter::demandHeadroom(FlushCause cause)
{
    Epoch *head = _table.oldest();
    if (!head || !head->closed)
        return;
    ensureFlushedUpTo(head->id, cause, {});
}

void
EpochArbiter::ensureFlushedUpTo(EpochId target, FlushCause cause,
                                InlineCallback onPersisted)
{
    Epoch *e = _table.find(target);
    if (!e || e->persisted()) {
        if (onPersisted)
            onPersisted();
        return;
    }
    simAssert(e->closed, name(), ": flush target ", target,
              " is still ongoing");
    const bool conflictCause = cause == FlushCause::IntraThread ||
                               cause == FlushCause::InterThread ||
                               cause == FlushCause::Replacement;
    for (EpochId i = _table.headId(); i <= target; ++i) {
        Epoch &up = _table.at(i);
        if (up.flushCause == FlushCause::None)
            up.flushCause = cause;
        if (conflictCause)
            up.conflicted = true;
    }
    if (!_flushDemanded || target > _flushTarget) {
        _flushTarget = target;
        _flushDemanded = true;
    }
    if (onPersisted)
        e->persistWaiters.push_back(std::move(onPersisted));
    tryAdvance();
}

bool
EpochArbiter::recordDependence(EpochId depEpoch, const IdtEntry &src)
{
    Epoch *e = mustFind(depEpoch);
    simAssert(!e->persisted(), name(),
              ": dependence recorded on a persisted epoch");
    if (e->depRegs.add(src)) {
        ++statIdtDepRecorded;
        return true;
    }
    ++statIdtOverflow;
    return false;
}

bool
EpochArbiter::recordInform(EpochId srcEpoch, const IdtEntry &dependent)
{
    Epoch *e = _table.find(srcEpoch);
    simAssert(e && !e->persisted(), name(),
              ": inform recorded on a persisted epoch");
    if (e->informRegs.add(dependent))
        return true;
    ++statIdtOverflow;
    return false;
}

void
EpochArbiter::onSourcePersisted(const IdtEntry &src)
{
    for (EpochId i = _table.headId(); i < _table.nextId(); ++i)
        _table.at(i).depRegs.remove(src);
    tryAdvance();
}

// ---------------------------------------------------------------------
// Flush machinery
// ---------------------------------------------------------------------

void
EpochArbiter::maybeComplete(Epoch &e)
{
    if (!e.readyToComplete())
        return;
    e.state = EpochState::Completed;
    tryAdvance();
}

void
EpochArbiter::tryAdvance()
{
    prof::ScopedPhase profPhase(prof::Phase::PersistArbiter);
    _table.retirePersisted();
    Epoch *head = _table.oldest();
    if (!head || head->persisted() || head->state == EpochState::Flushing)
        return;
    const bool demanded = _flushDemanded && head->id <= _flushTarget;
    const bool proactive = _pc.config().proactiveFlush &&
                           head->state == EpochState::Completed;
    if (!demanded && !proactive)
        return;
    if (head->state != EpochState::Completed)
        return; // waiting for close / store drain
    // IDT: persist only after every recorded source epoch (§4.2).
    bool blocked = false;
    for (std::size_t i = 0; i < head->depRegs.entries().size();) {
        const IdtEntry dep = head->depRegs.entries()[i];
        if (_pc.arbiter(dep.core).isPersisted(dep.epoch)) {
            head->depRegs.remove(dep);
            continue;
        }
        pullSource(*head, dep);
        blocked = true;
        ++i;
    }
    if (blocked)
        return;
    startFlush(*head);
}

void
EpochArbiter::pullSource(Epoch &e, const IdtEntry &src)
{
    for (const auto &sent : e.pullsSent) {
        if (sent == src)
            return;
    }
    e.pullsSent.push_back(src);
    EpochArbiter *remote = &_pc.arbiter(src.core);
    const EpochId srcEpoch = src.epoch;
    ++_pc.statProtocolMessages;
    _l1->ni().sendControl(_pc.l1(src.core).nodeId(), [remote, srcEpoch] {
        remote->ensureFlushedUpTo(srcEpoch, FlushCause::InterThread, {});
    });
}

void
EpochArbiter::startFlush(Epoch &e)
{
    prof::ScopedPhase profPhase(prof::Phase::PersistArbiter);
    simAssert(e.state == EpochState::Completed, name(),
              ": flush of a non-completed epoch");
    simAssert(e.flushesInFlight == 0, name(),
              ": in-flight flushes before the flush started");
    e.state = EpochState::Flushing;
    e.flushStartTick = curTick();
    if (e.flushCause == FlushCause::None)
        e.flushCause = FlushCause::Proactive;
    tracef("Flush", *this, "flush of epoch ", e.id, " starts (",
           e.linesLive, " lines, cause ",
           static_cast<int>(e.flushCause), ")");
    switch (e.flushCause) {
      case FlushCause::IntraThread:
        ++statFlushIntra;
        break;
      case FlushCause::InterThread:
        ++statFlushInter;
        break;
      case FlushCause::Replacement:
        ++statFlushReplacement;
        break;
      case FlushCause::Proactive:
        ++statFlushProactive;
        break;
      case FlushCause::Barrier:
        ++statFlushBarrier;
        break;
      case FlushCause::Drain:
        ++statFlushDrain;
        break;
      case FlushCause::None:
        break;
    }
    statEpochLines.sample(static_cast<std::uint64_t>(e.linesLive));
    issueCheckpoint(e);
    maybeBeginBankPhase(e);
}

void
EpochArbiter::issueCheckpoint(Epoch &e)
{
    const unsigned n = _pc.config().checkpointLines;
    if (n == 0)
        return;
    const EpochId id = e.id;
    e.checkpointPending += n;
    for (unsigned i = 0; i < n; ++i) {
        ++statCheckpointLines;
        _l1->issueNvmWrite(_undoLog.nextCheckpointLine(), _core, id,
                           /*isLog=*/true,
                           [this, id] { onCheckpointPersisted(id); });
    }
}

void
EpochArbiter::issueLogWrite(EpochId epoch)
{
    Epoch *e = mustFind(epoch);
    ++e->logWritesPending;
    ++statLogWrites;
    _l1->issueNvmWrite(_undoLog.nextLogLine(), _core, epoch,
                       /*isLog=*/true,
                       [this, epoch] { onLogWritePersisted(epoch); });
}

void
EpochArbiter::maybeBeginBankPhase(Epoch &e)
{
    if (e.state != EpochState::Flushing || e.bankPhaseStarted)
        return;
    // Undo semantics: old values must be durable before new data flushes.
    if (e.logWritesPending > 0)
        return;
    beginBankPhase(e);
}

void
EpochArbiter::beginBankPhase(Epoch &e)
{
    e.bankPhaseStarted = true;
    if (e.linesLive == 0 && e.flushesInFlight == 0) {
        ++statTrivialEpochs;
        maybeFinishFlush(e);
        return;
    }
    e.usedHandshake = true;
    e.bankAcksPending = _pc.numBanks();
    flushWalk(e.id);
}

void
EpochArbiter::flushWalk(EpochId id)
{
    // Step 1 (§4.1): flush this epoch's L1-resident lines into the LLC.
    // Snapshot (not take): each writeback moves its own engine entry.
    _l1->flushEngine().snapshot(_core, id, _flushWalkLines);
    const Tick ready = _l1->flushLines(_flushWalkLines,
                                       _pc.config().invalidatingFlush,
                                       BarrierConfig::kFlushIssueInterval);
    if (trace::probing()) [[unlikely]] {
        trace::span(curTick(), ready, _l1->name(),
                    "flush walk e" + std::to_string(id), "Flush");
    }
    // Step 2: broadcast FlushEpoch once the L1 bucket of the epoch is
    // empty. A line whose same-epoch fill or upgrade was still in flight
    // when the walk passed it is not yet writable back; walk again.
    scheduleIn(ready - curTick(), [this, id] {
        if (_l1->flushEngine().count(_core, id) != 0) {
            flushWalk(id);
            return;
        }
        const CoreId core = _core;
        for (unsigned b = 0; b < _pc.numBanks(); ++b) {
            cache::LlcBank *bank = &_pc.bank(b);
            ++_pc.statProtocolMessages;
            _l1->ni().sendControl(bank->nodeId(), [bank, core, id] {
                bank->handleFlushEpoch(core, id);
            });
        }
    });
}

void
EpochArbiter::onBankAck(EpochId epoch)
{
    prof::ScopedPhase profPhase(prof::Phase::PersistArbiter);
    Epoch *e = mustFind(epoch);
    simAssert(e->state == EpochState::Flushing && e->bankAcksPending > 0,
              name(), ": unexpected BankAck");
    --e->bankAcksPending;
    maybeFinishFlush(*e);
}

void
EpochArbiter::onFlushIssued(EpochId epoch)
{
    prof::ScopedPhase profPhase(prof::Phase::PersistArbiter);
    ++mustFind(epoch)->flushesInFlight;
}

void
EpochArbiter::onLinePersisted(EpochId epoch)
{
    prof::ScopedPhase profPhase(prof::Phase::PersistArbiter);
    Epoch *e = mustFind(epoch);
    simAssert(e->flushesInFlight > 0 && e->linesLive > 0, name(),
              ": flush-ack accounting underflow");
    --e->flushesInFlight;
    --e->linesLive;
}

void
EpochArbiter::onLogWritePersisted(EpochId epoch)
{
    prof::ScopedPhase profPhase(prof::Phase::PersistArbiter);
    Epoch *e = mustFind(epoch);
    simAssert(e->logWritesPending > 0, name(), ": log-ack underflow");
    --e->logWritesPending;
    maybeBeginBankPhase(*e);
}

void
EpochArbiter::onCheckpointPersisted(EpochId epoch)
{
    prof::ScopedPhase profPhase(prof::Phase::PersistArbiter);
    Epoch *e = mustFind(epoch);
    simAssert(e->checkpointPending > 0, name(),
              ": checkpoint-ack underflow");
    --e->checkpointPending;
    maybeFinishFlush(*e);
}

void
EpochArbiter::maybeFinishFlush(Epoch &e)
{
    if (e.state != EpochState::Flushing || !e.bankPhaseStarted ||
        e.bankAcksPending != 0 || e.checkpointPending != 0 ||
        e.logWritesPending != 0) {
        return;
    }
    declarePersisted(e);
}

void
EpochArbiter::declarePersisted(Epoch &e)
{
    prof::ScopedPhase profPhase(prof::Phase::PersistArbiter);
    simAssert(e.linesLive == 0 && e.flushesInFlight == 0, name(),
              ": epoch declared persisted with live lines");
    e.state = EpochState::Persisted;
    tracef("Flush", *this, "epoch ", e.id, " persisted");
    ++statEpochsPersisted;
    if (e.conflicted)
        ++statEpochsConflicted;
    statFlushLatency.sample(curTick() - e.flushStartTick);
    if (trace::probing()) [[unlikely]] {
        // The whole lifecycle (open .. persisted) and the flush phase
        // within it; recorded at close, when both endpoints are known.
        trace::span(e.openTick, curTick(), name(),
                    "epoch " + std::to_string(e.id), "Epoch");
        if (e.flushStartTick != kTickNever) {
            trace::span(e.flushStartTick, curTick(), name(),
                        "flush " + std::to_string(e.id), "Flush");
        }
    }

    const EpochId id = e.id;
    const CoreId core = _core;
    const bool handshake = e.usedHandshake;
    // The messages below are only scheduled, so e's inform registers
    // are still intact when the loop reads them.
    const std::vector<IdtEntry> &informs = e.informRegs.entries();
    auto waiters = takeWaiters(e.persistWaiters);

    // Step 4 (§4.1): PersistCMP broadcast updates bank-side state.
    if (handshake) {
        for (unsigned b = 0; b < _pc.numBanks(); ++b) {
            cache::LlcBank *bank = &_pc.bank(b);
            ++_pc.statProtocolMessages;
            _l1->ni().sendControl(bank->nodeId(), [bank, core, id] {
                bank->handlePersistCmp(core, id);
            });
        }
    }
    if (_pc.observer())
        _pc.observer()->onEpochPersisted(core, id, curTick());

    // Inform dependents listed in the inform registers (§4.2).
    for (const IdtEntry &d : informs) {
        EpochArbiter *dep = &_pc.arbiter(d.core);
        const IdtEntry src{core, id};
        ++_pc.statProtocolMessages;
        _l1->ni().sendControl(_pc.l1(d.core).nodeId(),
                              [dep, src] { dep->onSourcePersisted(src); });
    }

    // NOTE: the retire below (or a serviced waiter opening a new
    // epoch) may recycle e's ring slot; use only the copies above.
    _table.retirePersisted();
    serviceRetireWaiters();
    runWaiters(std::move(waiters));
    tryAdvance();
}

void
EpochArbiter::removeLiveLine(EpochId epoch)
{
    Epoch *e = mustFind(epoch);
    simAssert(e->linesLive > 0, name(), ": live-line underflow");
    --e->linesLive;
}

void
EpochArbiter::debugDump(std::ostream &os)
{
    os << name() << ": flushDemanded=" << _flushDemanded
       << " target=" << _flushTarget
       << " retireWaiters=" << _retireWaiters.size() << " window:";
    for (EpochId i = _table.headId(); i < _table.nextId(); ++i) {
        const Epoch &e = _table.at(i);
        const char *st = "?";
        switch (e.state) {
          case EpochState::Ongoing:
            st = "ongoing";
            break;
          case EpochState::Completed:
            st = "completed";
            break;
          case EpochState::Flushing:
            st = "FLUSHING";
            break;
          case EpochState::Persisted:
            st = "persisted";
            break;
        }
        os << " [" << e.id << " " << st << (e.closed ? "/closed" : "")
           << " lines=" << e.linesLive << " fif=" << e.flushesInFlight
           << " acks=" << e.bankAcksPending
           << " logs=" << e.logWritesPending
           << " ckpt=" << e.checkpointPending
           << " deps=" << e.depRegs.size()
           << " waiters=" << e.persistWaiters.size()
           << " closeW=" << e.closeWaiters.size() << "]";
    }
    os << "\n";
}

std::vector<InlineCallback>
EpochArbiter::takeWaiters(std::vector<InlineCallback> &list)
{
    std::vector<InlineCallback> taken;
    if (list.empty())
        return taken;
    if (!_spareWaiters.empty()) {
        taken.swap(_spareWaiters.back());
        _spareWaiters.pop_back();
    }
    taken.swap(list);
    return taken;
}

void
EpochArbiter::runWaiters(std::vector<InlineCallback> &&waiters)
{
    if (waiters.capacity() == 0)
        return;
    for (auto &w : waiters)
        w();
    waiters.clear();
    _spareWaiters.push_back(std::move(waiters));
}

void
EpochArbiter::serviceRetireWaiters()
{
    prof::ScopedPhase profPhase(prof::Phase::PersistArbiter);
    while (!_retireWaiters.empty() && _table.canOpen()) {
        auto w = std::move(_retireWaiters.front());
        _retireWaiters.erase(_retireWaiters.begin());
        w();
    }
    // A serviced waiter may have refilled the window (its barrier or
    // split consumed the freed slot). Keep the flush pipe moving for
    // the waiters still queued, or they would strand forever.
    if (!_retireWaiters.empty())
        demandHeadroom(FlushCause::Barrier);
}

} // namespace persim::persist
