#include "cache/l1_cache.hh"

#include <utility>

#include "cache/llc_bank.hh"
#include "nvm/memory_controller.hh"
#include "persist/persist_controller.hh"
#include "prof/phase.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace persim::cache
{

L1Cache::L1Cache(const std::string &name, EventQueue &eq, noc::Mesh &mesh,
                 unsigned nodeId, unsigned x, unsigned y, CoreId core,
                 const L1Config &cfg, persist::PersistController &pc)
    : SimObject(name, eq),
      _core(core),
      _cfg(cfg),
      _pc(pc),
      _stats(name),
      _ni(name + ".ni", mesh, nodeId, x, y),
      _array(name + ".array", cfg.geometry),
      _mshrs(cfg.mshrs),
      _flushEngine(name + ".flushEngine"),
      _loads(&_stats, "loads", "load accesses"),
      _stores(&_stats, "stores", "store accesses"),
      _hits(&_stats, "hits", "accesses served without the LLC"),
      _misses(&_stats, "misses", "accesses sent to the home bank"),
      _writebacksDirty(&_stats, "writebacksDirty", "dirty writebacks"),
      _writebacksClean(&_stats, "writebacksClean",
                       "clean eviction notices"),
      _downgrades(&_stats, "downgrades", "remote-recall downgrades"),
      _invalidations(&_stats, "invalidations", "invalidations received"),
      _mshrDefers(&_stats, "mshrDefers", "accesses deferred on full MSHRs")
{
}

void
L1Cache::stagePop()
{
    prof::ScopedPhase profPhase(prof::Phase::L1Access);
    StagedAccess s = _staged.pop();
    accessStage2(s.addr, s.isWrite, std::move(s.onComplete));
}

void
L1Cache::accessStage2(Addr addr, bool isWrite,
                      InlineCallback onComplete)
{
    if (_mshrs.has(addr)) {
        ++_misses;
        _mshrs.merge(addr,
                     PendingAccess{isWrite, _core, std::move(onComplete)});
        return;
    }
    CacheLine *line = _array.find(addr);
    if (line && (!isWrite || line->state() == CoherenceState::Modified ||
                 line->state() == CoherenceState::Exclusive)) {
        ++_hits;
        if (isWrite) {
            performStore(addr, std::move(onComplete));
        } else {
            _array.touch(*line);
            onComplete();
        }
        return;
    }
    ++_misses;
    PendingAccess acc{isWrite, _core, std::move(onComplete)};
    if (_mshrs.full()) {
        ++_mshrDefers;
        _deferred.push_back([this, addr, isWrite,
                             acc = std::move(acc)]() mutable {
            accessStage2(addr, isWrite, std::move(acc.onComplete));
        });
        return;
    }
    // An upgrade leaves the present (Shared) copy in a transient state:
    // pin it so capacity evictions cannot victimize it — its eviction
    // notice would race the grant and corrupt the directory.
    if (line)
        line->setPinned(true);
    _mshrs.allocate(addr, isWrite, std::move(acc));
    probeMshrEpisode();
    sendMiss(addr, isWrite, PendingAccess{isWrite, _core, {}});
}

void
L1Cache::prefetchExclusive(Addr addr)
{
    prof::ScopedPhase profPhase(prof::Phase::L1Access);
    addr = lineAlign(addr);
    scheduleIn(_cfg.accessLatency, [this, addr] {
        if (_mshrs.has(addr) || _mshrs.full())
            return;
        CacheLine *line = _array.find(addr);
        if (line && (line->state() == CoherenceState::Modified ||
                     line->state() == CoherenceState::Exclusive)) {
            return;
        }
        if (line)
            line->setPinned(true); // transient upgrade; see accessStage2
        _mshrs.allocate(addr, true, PendingAccess{false, _core, {}});
        probeMshrEpisode();
        sendMiss(addr, true, PendingAccess{true, _core, {}});
    });
}

void
L1Cache::sendMiss(Addr addr, bool isWrite, PendingAccess acc)
{
    (void)acc;
    LlcBank &bank = _pc.bank(homeBankOf(addr, _pc.numBanks()));
    LlcBank *bankPtr = &bank;
    CoreId core = _core;
    _ni.sendControl(bank.nodeId(), [bankPtr, addr, isWrite, core] {
        bankPtr->handleRequest(addr, isWrite, core);
    });
}

void
L1Cache::performStore(Addr addr, InlineCallback onComplete)
{
    CacheLine *line = _array.find(addr);
    simAssert(line, name(), ": performStore on absent line");
    // Fast path: no conflict possible (untagged line or same-epoch
    // coalescing) — perform in place without building the re-validating
    // continuation below, which is only needed when resolution may have
    // waited (and so flushed or dropped the line) before running it.
    if (_pc.tryFastStore(_core, *line)) {
        line->setState(CoherenceState::Modified);
        line->setDirty(true);
        _array.touch(*line);
        _pc.afterL1Store(_core, *line);
        onComplete();
        return;
    }
    _pc.beforeL1Store(
        _core, *line,
        [this, addr, onComplete = std::move(onComplete)]() mutable {
            // Conflict resolution may have flushed (and, with an
            // invalidating flush, dropped) the line; re-validate.
            CacheLine *l = _array.find(addr);
            if (!l || (l->state() != CoherenceState::Modified &&
                       l->state() != CoherenceState::Exclusive)) {
                std::vector<PendingAccess> q = _mshrs.takeSpare();
                q.push_back(PendingAccess{true, _core,
                                          std::move(onComplete)});
                replayNext(addr, std::move(q), 0);
                return;
            }
            l->setState(CoherenceState::Modified);
            l->setDirty(true);
            _array.touch(*l);
            _pc.afterL1Store(_core, *l);
            onComplete();
        });
}

void
L1Cache::handleFillGrant(Addr addr, CoherenceState state, CoreId tagCore,
                         EpochId tagEpoch)
{
    prof::ScopedPhase profPhase(prof::Phase::L1Access);
    CacheLine *line = _array.find(addr);
    if (!line) {
        CacheLine *victim = _array.victimFor(addr, false);
        if (!victim) {
            // Every way holds a transient (pinned) upgrade; their own
            // grants will unpin them shortly. The home bank keeps the
            // line busy until our Unblock, so retrying is safe.
            scheduleIn(8, [this, addr, state, tagCore, tagEpoch] {
                handleFillGrant(addr, state, tagCore, tagEpoch);
            });
            return;
        }
        if (victim->valid())
            writebackLine(*victim, WritebackKind::Eviction);
        line = &_array.fill(*victim, addr, state);
    } else {
        line->setState(state);
        line->setPinned(false); // the transient upgrade resolved
        _array.touch(*line);
    }
    if (tagCore != kNoCore) {
        // A same-epoch incarnation moved back into this L1 (the grant
        // logic already moved the flush-engine bucket); the L1 copy now
        // carries the persist obligation.
        line->setTag(tagCore, tagEpoch);
        line->setDirty(true);
    }
    replayNext(addr, _mshrs.release(addr), 0);
    probeMshrEpisode();
}

void
L1Cache::replayNext(Addr addr, std::vector<PendingAccess> queue,
                    std::size_t idx)
{
    prof::ScopedPhase profPhase(prof::Phase::L1Access);
    if (idx >= queue.size()) {
        _mshrs.recycle(std::move(queue));
        serviceDeferred();
        return;
    }
    PendingAccess &acc = queue[idx];
    CacheLine *line = _array.find(addr);

    if (!acc.isWrite) {
        if (line) {
            _array.touch(*line);
            auto done = std::move(acc.onComplete);
            if (done)
                done();
            replayNext(addr, std::move(queue), idx + 1);
        } else {
            goto resend;
        }
        return;
    }

    if (line && (line->state() == CoherenceState::Modified ||
                 line->state() == CoherenceState::Exclusive)) {
        performStore(addr,
                     [this, addr, done = std::move(acc.onComplete),
                      queue = std::move(queue), idx]() mutable {
                         if (done)
                             done();
                         replayNext(addr, std::move(queue), idx + 1);
                     });
        return;
    }

resend:
    // The line is absent (or insufficient for a write): re-enter the
    // miss path with every remaining access.
    bool anyWrite = false;
    for (std::size_t i = idx; i < queue.size(); ++i) {
        if (queue[i].isWrite) {
            anyWrite = true;
            break;
        }
    }
    if (_mshrs.has(addr)) {
        for (std::size_t i = idx; i < queue.size(); ++i)
            _mshrs.merge(addr, std::move(queue[i]));
        _mshrs.recycle(std::move(queue));
        return;
    }
    if (_mshrs.full()) {
        ++_mshrDefers;
        _deferred.push_back(
            [this, addr, queue = std::move(queue), idx]() mutable {
                replayNext(addr, std::move(queue), idx);
            });
        return;
    }
    ++_misses; // the replayed access goes back to the home bank
    if (line)
        line->setPinned(true); // transient upgrade; see accessStage2
    _mshrs.allocate(addr, anyWrite, std::move(queue[idx]));
    for (std::size_t i = idx + 1; i < queue.size(); ++i)
        _mshrs.merge(addr, std::move(queue[i]));
    _mshrs.recycle(std::move(queue));
    probeMshrEpisode();
    sendMiss(addr, anyWrite, PendingAccess{anyWrite, _core, {}});
}

void
L1Cache::probeMshrEpisode()
{
    if (!trace::probing()) [[likely]]
        return;
    if (_mshrs.size() == 0) {
        if (_mshrBusySince != kTickNever) {
            trace::span(_mshrBusySince, curTick(), name(), "mshr busy",
                        "Mshr");
            _mshrBusySince = kTickNever;
        }
    } else if (_mshrBusySince == kTickNever) {
        _mshrBusySince = curTick();
    }
}

void
L1Cache::serviceDeferred()
{
    prof::ScopedPhase profPhase(prof::Phase::L1Access);
    while (!_deferred.empty() && !_mshrs.full()) {
        auto fn = std::move(_deferred.front());
        _deferred.pop_front();
        fn();
    }
}

void
L1Cache::writebackLine(CacheLine &line, WritebackKind kind)
{
    simAssert(line.valid(), name(), ": writeback of invalid line");
    const Addr addr = _array.addrOf(line);
    LlcBank &bank = _pc.bank(homeBankOf(addr, _pc.numBanks()));
    const bool dirty = line.dirty();
    // Warm the bank set while the mesh-bandwidth work below runs; both
    // the inclusion probe and acceptWriteback() hit it.
    bank.array().prefetchSet(addr);

    // Charge mesh bandwidth; state transfers synchronously below.
    if (dirty) {
        ++_writebacksDirty;
        _ni.sendData(bank.nodeId(), [] {});
    } else {
        ++_writebacksClean;
        _ni.sendControl(bank.nodeId(), [] {});
    }

    CacheLine *llcLine = nullptr;
    if (dirty) {
        llcLine = bank.find(addr);
        simAssert(llcLine, name(), ": inclusion violated for 0x",
                  std::hex, addr, std::dec, " (state ",
                  int(line.state()), ", tagged ", line.tagged(),
                  ", epoch ", line.epochId(), ", kind ", int(kind), ")");
        llcLine->setDirty(true);
        if (line.tagged())
            _pc.onL1Writeback(_core, line, *llcLine, bank.bankIdx());
    }
    bank.acceptWriteback(_core, addr, dirty, kind, llcLine);

    switch (kind) {
      case WritebackKind::Eviction:
      case WritebackKind::DowngradeToInvalid:
        _array.invalidate(line);
        break;
      case WritebackKind::DowngradeToShared:
        line.setState(CoherenceState::Shared);
        line.setDirty(false);
        line.clearTag();
        break;
      case WritebackKind::FlushRetain:
        // clwb semantics: the line stays, clean, and KEEPS its epoch tag
        // until the epoch persists — a subsequent same-core store must
        // still detect the intra-thread conflict (§3.2). The stale tag
        // is cleared by the conflict-resolution path once persisted.
        line.setState(CoherenceState::Exclusive);
        line.setDirty(false);
        break;
    }
}

void
L1Cache::handleDowngrade(Addr addr, bool forWrite, unsigned bankNode,
                         InlineCallback replyAtBank)
{
    prof::ScopedPhase profPhase(prof::Phase::L1Access);
    scheduleIn(_cfg.accessLatency,
               [this, addr, forWrite, bankNode,
                replyAtBank = std::move(replyAtBank)]() mutable {
        CacheLine *line = _array.find(addr);
        bool hadDirty = false;
        if (line) {
            ++_downgrades;
            hadDirty = line->dirty();
            // State syncs here; the reply message below carries the data
            // (so the writeback itself must not double-charge the mesh).
            LlcBank &bank = _pc.bank(homeBankOf(addr, _pc.numBanks()));
            bank.array().prefetchSet(addr);
            CacheLine *llcLine = nullptr;
            if (hadDirty) {
                llcLine = bank.find(addr);
                simAssert(llcLine, name(), ": inclusion violated");
                llcLine->setDirty(true);
                if (line->tagged())
                    _pc.onL1Writeback(_core, *line, *llcLine,
                                      bank.bankIdx());
            }
            bank.acceptWriteback(_core, addr, hadDirty,
                                 forWrite ? WritebackKind::DowngradeToInvalid
                                          : WritebackKind::DowngradeToShared,
                                 llcLine);
            if (forWrite) {
                _array.invalidate(*line);
            } else {
                line->setState(CoherenceState::Shared);
                line->setDirty(false);
                line->clearTag();
            }
        }
        if (hadDirty)
            _ni.sendData(bankNode, std::move(replyAtBank));
        else
            _ni.sendControl(bankNode, std::move(replyAtBank));
    });
}

void
L1Cache::handleInvalidate(Addr addr, unsigned bankNode,
                          InlineCallback ackAtBank)
{
    prof::ScopedPhase profPhase(prof::Phase::L1Access);
    scheduleIn(1, [this, addr, bankNode,
                   ackAtBank = std::move(ackAtBank)]() mutable {
        CacheLine *line = _array.find(addr);
        if (line) {
            simAssert(line->state() == CoherenceState::Shared, name(),
                      ": invalidate hit a non-Shared line");
            ++_invalidations;
            _array.invalidate(*line);
        }
        _ni.sendControl(bankNode, std::move(ackAtBank));
    });
}

Tick
L1Cache::flushLines(const std::vector<Addr> &lines, bool invalidating,
                    Tick interval)
{
    prof::ScopedPhase profPhase(prof::Phase::L1Access);
    Tick offset = 0;
    for (Addr addr : lines) {
        scheduleIn(offset, [this, addr, invalidating] {
            CacheLine *line = _array.find(addr);
            // An absent or clean line has nothing to write back now:
            // either it was naturally written back since the snapshot
            // (its engine entry moved with it), or its same-epoch fill
            // or upgrade is still in flight (its entry stays, and the
            // arbiter walks again until the epoch's bucket is empty).
            if (!line || !line->dirty())
                return;
            writebackLine(*line, invalidating ? WritebackKind::Eviction
                                              : WritebackKind::FlushRetain);
        });
        offset += interval;
    }
    return curTick() + offset;
}

void
L1Cache::issueNvmWrite(Addr addr, CoreId core, EpochId epoch, bool isLog,
                       InlineCallback onAckHere)
{
    nvm::WriteReq req;
    req.addr = lineAlign(addr);
    req.core = core;
    req.epoch = epoch;
    req.isLog = isLog;
    req.replyTo = _ni.nodeId();
    req.onPersist = std::move(onAckHere);
    _pc.mcFor(addr).sendWrite(_ni, std::move(req));
}

} // namespace persim::cache
