#include "cache/llc_bank.hh"

#include <bit>
#include <memory>
#include <ostream>

#include "cache/l1_cache.hh"
#include "nvm/memory_controller.hh"
#include "persist/persist_controller.hh"
#include "prof/phase.hh"
#include "sim/logging.hh"

namespace persim::cache
{

namespace
{
/** Bit for @p core in a sharers mask. core < kMaxCores is enforced at
 * construction time (PersistController / SystemConfig), so the shift
 * cannot overflow the 64-bit mask. */
std::uint64_t
coreBit(CoreId core)
{
    return std::uint64_t{1} << core;
}
} // namespace

LlcBank::LlcBank(const std::string &name, EventQueue &eq, noc::Mesh &mesh,
                 unsigned nodeId, unsigned x, unsigned y, unsigned bankIdx,
                 const LlcBankConfig &cfg, persist::PersistController &pc)
    : SimObject(name, eq),
      _bankIdx(bankIdx),
      _cfg(cfg),
      _pc(pc),
      _stats(name),
      _ni(name + ".ni", mesh, nodeId, x, y),
      _array(name + ".array", cfg.geometry, cfg.setShift),
      _flushEngine(name + ".flushEngine"),
      _requests(&_stats, "requests", "requests received from L1s"),
      _readHits(&_stats, "readGrants", "read grants sent"),
      _writeHits(&_stats, "writeGrants", "write (ownership) grants sent"),
      _missesToMemory(&_stats, "missesToMemory", "fills from NVRAM"),
      _evictions(&_stats, "evictions", "LLC victim evictions"),
      _evictionsDirty(&_stats, "evictionsDirty",
                      "dirty (untagged) victims written to NVRAM"),
      _recalls(&_stats, "recalls", "owner-L1 recalls"),
      _invsSent(&_stats, "invalidationsSent",
                "sharer invalidations sent"),
      _flushEpochMsgs(&_stats, "flushEpochMsgs",
                      "FlushEpoch messages processed"),
      _bankAcksSent(&_stats, "bankAcksSent", "BankAck messages sent"),
      _persistCmpSeen(&_stats, "persistCmpSeen",
                      "PersistCMP broadcasts received"),
      _linesFlushed(&_stats, "linesFlushed",
                    "epoch lines flushed to memory"),
      _victimRetries(&_stats, "victimRetries",
                     "miss fills retried because all ways were pinned"),
      _pinWaits(&_stats, "pinWaits",
                "requests that blocked on a pinned line"),
      _flushSkipsPinned(&_stats, "flushSkipsPinned",
                        "invalidating flushes that kept a pinned line")
{
}

// ---------------------------------------------------------------------
// Request path
// ---------------------------------------------------------------------

void
LlcBank::handleRequest(Addr addr, bool isWrite, CoreId core)
{
    prof::ScopedPhase profPhase(prof::Phase::LlcBank);
    ++_requests;
    addr = lineAlign(addr);
    // The tag probe happens in lookupStage, accessLatency ticks (and
    // several host-side events) from now — start the set's tag lines
    // toward the host caches while that work retires.
    _array.prefetchSet(addr);
    LineEntry &e = _lines.insertOrFind(addr);
    const bool wasIdle = e.txns.empty();
    e.txns.pushBack(_txnPool, _txnPool.alloc(Txn{addr, isWrite, core}));
    ++e.txnCount;
    if (wasIdle) {
        ++_busyLineCount;
        beginIfIdle(addr);
    }
}

const LlcBank::LineEntry &
LlcBank::activeEntry(Addr addr) const
{
    const LineEntry *e = _lines.find(addr);
    simAssert(e && !e->txns.empty(), name(),
              ": no active transaction for line 0x", std::hex, addr,
              std::dec);
    return *e;
}

LlcBank::Txn
LlcBank::activeTxnFor(Addr addr) const
{
    return _txnPool.at(activeEntry(addr).txns.head);
}

void
LlcBank::beginIfIdle(Addr addr)
{
    // activeTxnFor re-resolves at fire time: the queue entry must still
    // exist, and the checked lookup turns a protocol bug into a panic
    // that names this bank and the address.
    scheduleIn(_cfg.accessLatency,
               [this, addr] { lookupStage(activeTxnFor(addr)); });
}

void
LlcBank::addPinWaiter(Addr addr, InlineCallback cb)
{
    const std::uint32_t node = _waiterPool.alloc(std::move(cb));
    _lines.insertOrFind(addr).waiters.pushBack(_waiterPool, node);
}

void
LlcBank::lookupStage(Txn txn)
{
    prof::ScopedPhase profPhase(prof::Phase::LlcBank);
    CacheLine *line = _array.find(txn.addr);
    if (line && line->pinned()) {
        // An eviction owns the line right now; retry once it is done.
        ++_pinWaits;
        addPinWaiter(txn.addr, [this, txn] { lookupStage(txn); });
        return;
    }
    if (line) {
        line->setPinned(true);
        hitPath(txn);
    } else {
        missPath(txn);
    }
}

void
LlcBank::hitPath(Txn txn)
{
    CacheLine *line = _array.find(txn.addr);
    simAssert(line, name(), ": hitPath lost the line");
    simAssert(line->owner() != txn.core, name(),
              ": request from the current owner");
    if (line->owner() != kNoCore) {
        ++_recalls;
        const CoreId owner = line->owner();
        L1Cache *ownerL1 = &_pc.l1(owner);
        const unsigned myNode = _ni.nodeId();
        _ni.sendControl(ownerL1->nodeId(),
                        [this, txn, ownerL1, myNode] {
                            ownerL1->handleDowngrade(
                                txn.addr, txn.isWrite, myNode,
                                [this, txn] { resolveConflictStage(txn); });
                        });
        return;
    }
    resolveConflictStage(txn);
}

void
LlcBank::resolveConflictStage(Txn txn)
{
    prof::ScopedPhase profPhase(prof::Phase::LlcBank);
    simAssert(_array.find(txn.addr), name(),
              ": line vanished before conflict resolution");
    _pc.resolveBankAccess(_bankIdx, txn.core, txn.isWrite, txn.addr,
                          [this, txn] { proceedStage(txn); });
}

void
LlcBank::proceedStage(Txn txn)
{
    prof::ScopedPhase profPhase(prof::Phase::LlcBank);
    CacheLine *line = _array.find(txn.addr);
    simAssert(line, name(), ": line vanished before grant");
    if (!txn.isWrite) {
        grantRead(txn);
        return;
    }
    const std::uint64_t invMask = line->sharers() & ~coreBit(txn.core);
    if (invMask == 0) {
        grantWrite(txn);
        return;
    }
    // The ack count lives in the line's entry: txn is its active
    // transaction until finish().
    activeEntry(txn.addr).invsPending =
        static_cast<std::uint32_t>(std::popcount(invMask));
    const unsigned myNode = _ni.nodeId();
    for (unsigned c = 0; c < kMaxCores; ++c) {
        if (!(invMask & (std::uint64_t{1} << c)))
            continue;
        ++_invsSent;
        L1Cache *sharer = &_pc.l1(static_cast<CoreId>(c));
        _ni.sendControl(
            sharer->nodeId(), [this, txn, sharer, myNode] {
                sharer->handleInvalidate(txn.addr, myNode, [this, txn] {
                    if (--activeEntry(txn.addr).invsPending == 0)
                        grantWrite(txn);
                });
            });
    }
}

void
LlcBank::grantWrite(Txn txn)
{
    CacheLine *line = _array.find(txn.addr);
    simAssert(line, name(), ": line vanished at write grant");
    if (_pc.writeGrantNeedsResolve(_bankIdx, txn.core, txn.addr)) {
        // The requester's epoch advanced while this transaction was in
        // flight; resolve the (new) intra-thread conflict and retry.
        _pc.resolveBankAccess(_bankIdx, txn.core, txn.isWrite, txn.addr,
                              [this, txn] { grantWrite(txn); });
        return;
    }
    ++_writeHits;
    persist::IdtEntry tag =
        _pc.onBankGrantWrite(_bankIdx, txn.core, *line);
    line->setOwner(txn.core);
    line->setSharers(0);
    _array.touch(*line);
    L1Cache *req = &_pc.l1(txn.core);
    const unsigned myNode = _ni.nodeId();
    // The line stays pinned/busy until the requester confirms the fill
    // (Unblock, as in Ruby's MESI protocols): the mesh is unordered, so
    // without it an eviction could race ahead of the grant and break
    // inclusion.
    _ni.sendData(req->nodeId(), [this, req, txn, tag, myNode] {
        req->handleFillGrant(txn.addr, CoherenceState::Modified, tag.core,
                             tag.epoch);
        req->ni().sendControl(myNode, [this, txn] { finish(txn); });
    });
}

void
LlcBank::grantRead(Txn txn)
{
    CacheLine *line = _array.find(txn.addr);
    simAssert(line, name(), ": line vanished at read grant");
    ++_readHits;
    const bool exclusive = line->sharers() == 0 &&
                           line->owner() == kNoCore && !line->tagged();
    CoherenceState granted;
    if (exclusive) {
        line->setOwner(txn.core);
        granted = CoherenceState::Exclusive;
    } else {
        line->setSharers(line->sharers() | coreBit(txn.core));
        granted = CoherenceState::Shared;
    }
    _array.touch(*line);
    L1Cache *req = &_pc.l1(txn.core);
    const unsigned myNode = _ni.nodeId();
    _ni.sendData(req->nodeId(), [this, req, txn, granted, myNode] {
        req->handleFillGrant(txn.addr, granted, kNoCore, kNoEpoch);
        req->ni().sendControl(myNode, [this, txn] { finish(txn); });
    });
}

void
LlcBank::missPath(Txn txn)
{
    prof::ScopedPhase profPhase(prof::Phase::LlcBank);
    CacheLine *line = _array.find(txn.addr);
    if (line) {
        // Extremely defensive: inclusion means nobody else fills, but a
        // retried miss may observe a line filled by an earlier stage.
        if (line->pinned()) {
            ++_pinWaits;
            addPinWaiter(txn.addr, [this, txn] { lookupStage(txn); });
            return;
        }
        line->setPinned(true);
        hitPath(txn);
        return;
    }
    CacheLine *victim =
        _array.victimFor(txn.addr, _pc.config().avoidTaggedVictims);
    if (!victim) {
        ++_victimRetries;
        scheduleIn(LlcBankConfig::kPinnedRetryInterval,
                   [this, txn] { missPath(txn); });
        return;
    }
    if (victim->valid()) {
        victim->setPinned(true);
        const Addr vaddr = victim->addr();
        ++_evictions;
        evictVictim(vaddr, [this, txn] { missPath(txn); });
        return;
    }
    victim->setPinned(true); // claim the invalid way for our fill
    ++_missesToMemory;
    nvm::MemoryController *mc = &_pc.mcFor(txn.addr);
    nvm::ReadReq req;
    req.addr = txn.addr;
    req.replyTo = _ni.nodeId();
    req.onData = [this, txn, victim] { fillAndGrant(txn, victim); };
    _ni.sendControl(mc->nodeId(), [mc, req = std::move(req)]() mutable {
        mc->handleRead(std::move(req));
    });
}

void
LlcBank::fillAndGrant(Txn txn, CacheLine *way)
{
    prof::ScopedPhase profPhase(prof::Phase::LlcBank);
    simAssert(!way->valid(), name(), ": fill way got claimed");
    _array.fill(*way, txn.addr, CoherenceState::Shared);
    way->setPinned(true);
    if (txn.isWrite)
        grantWrite(txn);
    else
        grantRead(txn);
}

void
LlcBank::finish(Txn txn)
{
    prof::ScopedPhase profPhase(prof::Phase::LlcBank);
    unpin(txn.addr);
    // unpin may have run waiters that mutated the table; re-resolve.
    LineEntry *e = _lines.find(txn.addr);
    simAssert(e && !e->txns.empty(), name(),
              ": finish without an active transaction for line 0x",
              std::hex, txn.addr, std::dec);
    _txnPool.release(e->txns.popFront(_txnPool));
    --e->txnCount;
    if (!e->txns.empty()) {
        beginIfIdle(txn.addr);
        return;
    }
    --_busyLineCount;
    if (e->waiters.empty())
        _lines.erase(txn.addr);
}

void
LlcBank::unpin(Addr addr)
{
    CacheLine *line = _array.find(addr);
    if (line)
        line->setPinned(false);
    drainPinWaiters(addr);
}

void
LlcBank::drainPinWaiters(Addr addr)
{
    prof::ScopedPhase profPhase(prof::Phase::LlcBank);
    LineEntry *e = _lines.find(addr);
    if (!e || e->waiters.empty())
        return;
    // Detach the chain first: waiters re-enter the bank and may insert
    // into (and rehash) the table or queue new waiters on this line.
    const ListRef chain = e->waiters;
    e->waiters = ListRef{};
    if (e->txns.empty())
        _lines.erase(addr);
    std::uint32_t n = chain.head;
    while (n != WaiterPool::kNil) {
        const std::uint32_t next = _waiterPool.next(n);
        InlineCallback cb = std::move(_waiterPool.at(n));
        _waiterPool.release(n);
        cb();
        n = next;
    }
}

std::size_t
LlcBank::testPinWaiters(Addr addr) const
{
    const LineEntry *e = _lines.find(lineAlign(addr));
    if (!e)
        return 0;
    std::size_t count = 0;
    for (std::uint32_t n = e->waiters.head; n != WaiterPool::kNil;
         n = _waiterPool.next(n)) {
        ++count;
    }
    return count;
}

// ---------------------------------------------------------------------
// Eviction (with persist-ordering constraints, §2.1/§3.2)
// ---------------------------------------------------------------------

void
LlcBank::evictVictim(Addr vaddr, InlineCallback cont)
{
    prof::ScopedPhase profPhase(prof::Phase::LlcBank);
    CacheLine *line = _array.find(vaddr);
    simAssert(line && line->pinned(), name(),
              ": eviction lost its victim");

    if (line->owner() != kNoCore) {
        ++_recalls;
        L1Cache *ownerL1 = &_pc.l1(line->owner());
        const unsigned myNode = _ni.nodeId();
        _ni.sendControl(ownerL1->nodeId(),
                        [this, vaddr, ownerL1, myNode,
                         cont = std::move(cont)]() mutable {
            ownerL1->handleDowngrade(
                vaddr, /*forWrite=*/true, myNode,
                [this, vaddr, cont = std::move(cont)]() mutable {
                    evictVictim(vaddr, std::move(cont));
                });
        });
        return;
    }
    if (line->sharers() != 0) {
        const std::uint64_t mask = line->sharers();
        auto remaining = std::make_shared<unsigned>(std::popcount(mask));
        const unsigned myNode = _ni.nodeId();
        auto shared_cont =
            std::make_shared<InlineCallback>(std::move(cont));
        for (unsigned c = 0; c < kMaxCores; ++c) {
            if (!(mask & (std::uint64_t{1} << c)))
                continue;
            ++_invsSent;
            L1Cache *sharer = &_pc.l1(static_cast<CoreId>(c));
            _ni.sendControl(sharer->nodeId(), [this, vaddr, sharer, myNode,
                                               remaining, shared_cont] {
                sharer->handleInvalidate(
                    vaddr, myNode, [this, vaddr, remaining, shared_cont] {
                        if (--*remaining == 0) {
                            CacheLine *l = _array.find(vaddr);
                            simAssert(l, name(), ": victim vanished");
                            l->setSharers(0);
                            evictVictim(vaddr,
                                        std::move(*shared_cont));
                        }
                    });
            });
        }
        return;
    }
    if (line->tagged()) {
        // Replacement conflict: epochs up to the victim's must persist
        // before this line may leave the volatile domain.
        _pc.beforeLlcEviction(
            _bankIdx, *line,
            [this, vaddr, cont = std::move(cont)]() mutable {
                evictVictim(vaddr, std::move(cont));
            });
        return;
    }
    if (line->dirty()) {
        ++_evictionsDirty;
        // Untagged dirty data persists naturally, with no ordering
        // constraint and nobody waiting for the ack.
        nvm::MemoryController *mc = &_pc.mcFor(vaddr);
        nvm::WriteReq req;
        req.addr = vaddr;
        req.replyTo = _ni.nodeId();
        _ni.sendData(mc->nodeId(), [mc, req = std::move(req)]() mutable {
            mc->handleWrite(std::move(req));
        });
    }
    _array.invalidate(*line);
    // Wake requests that blocked on the pinned victim.
    drainPinWaiters(vaddr);
    cont();
}

// ---------------------------------------------------------------------
// Synchronous writeback acceptance
// ---------------------------------------------------------------------

void
LlcBank::acceptWriteback(CoreId fromCore, Addr addr, bool dirty,
                         WritebackKind kind, CacheLine *line)
{
    prof::ScopedPhase profPhase(prof::Phase::LlcBank);
    (void)dirty; // the caller already merged dirty data and moved tags
    if (!line)
        line = _array.find(addr);
    simAssert(line, name(), ": writeback for absent line (inclusion)");
    switch (kind) {
      case WritebackKind::Eviction:
      case WritebackKind::DowngradeToInvalid:
        if (line->owner() == fromCore)
            line->setOwner(kNoCore);
        line->setSharers(line->sharers() & ~coreBit(fromCore));
        break;
      case WritebackKind::DowngradeToShared:
        if (line->owner() == fromCore)
            line->setOwner(kNoCore);
        line->setSharers(line->sharers() | coreBit(fromCore));
        break;
      case WritebackKind::FlushRetain:
        break;
    }
    _array.touch(*line);
}

// ---------------------------------------------------------------------
// Epoch-flush protocol
// ---------------------------------------------------------------------

LlcBank::FlushJob *
LlcBank::findFlushJob(CoreId core, EpochId epoch)
{
    for (FlushJob &job : _flushJobs) {
        if (job.core == core && job.epoch == epoch)
            return &job;
    }
    return nullptr;
}

void
LlcBank::handleFlushEpoch(CoreId core, EpochId epoch)
{
    prof::ScopedPhase profPhase(prof::Phase::LlcBank);
    ++_flushEpochMsgs;
    std::vector<Addr> &lines = _flushWalkLines;
    _flushEngine.takeAll(core, epoch, lines);
    FlushJob *job = findFlushJob(core, epoch);
    if (!job) {
        _flushJobs.push_back(FlushJob{core, epoch, 0, false});
        job = &_flushJobs.back();
    }
    simAssert(!job->walked, name(), ": duplicate FlushEpoch");
    job->outstanding += static_cast<std::uint32_t>(lines.size());

    const Tick interval = persist::BarrierConfig::kFlushIssueInterval;
    Tick offset = 0;
    for (Addr addr : lines) {
        scheduleIn(offset, [this, core, epoch, addr] {
            ++_linesFlushed;
            _pc.arbiter(core).onFlushIssued(epoch);
            nvm::MemoryController *mc = &_pc.mcFor(addr);
            nvm::WriteReq req;
            req.addr = addr;
            req.core = core;
            req.epoch = epoch;
            req.replyTo = _ni.nodeId();
            req.onPersist = [this, core, epoch, addr] {
                onFlushLineAck(core, epoch, addr);
            };
            _ni.sendData(mc->nodeId(),
                         [mc, req = std::move(req)]() mutable {
                             mc->handleWrite(std::move(req));
                         });
        });
        offset += interval;
    }
    scheduleIn(offset, [this, core, epoch] {
        FlushJob *walkJob = findFlushJob(core, epoch);
        simAssert(walkJob, name(), ": flush job vanished before walk");
        walkJob->walked = true;
        maybeBankAck(core, epoch);
    });
}

void
LlcBank::onFlushLineAck(CoreId core, EpochId epoch, Addr addr)
{
    prof::ScopedPhase profPhase(prof::Phase::LlcBank);
    CacheLine *line = _array.find(addr);
    if (line && line->epochCore() == core && line->epochId() == epoch) {
        line->clearTag();
        line->setDirty(false);
        if (_pc.config().invalidatingFlush) {
            if (line->pinned()) {
                // An in-flight transaction or eviction owns the line;
                // invalidating it under them would break the pin
                // contract, so the flush leaves it cached.
                ++_flushSkipsPinned;
            } else if (line->owner() == kNoCore && line->sharers() == 0) {
                // clflush semantics: the flushed line leaves the
                // hierarchy.
                _array.invalidate(*line);
            }
        }
    }
    _pc.arbiter(core).onLinePersisted(epoch);
    FlushJob *job = findFlushJob(core, epoch);
    simAssert(job, name(), ": stray flush ack");
    simAssert(job->outstanding > 0, name(), ": ack underflow");
    --job->outstanding;
    maybeBankAck(core, epoch);
}

void
LlcBank::maybeBankAck(CoreId core, EpochId epoch)
{
    FlushJob *job = findFlushJob(core, epoch);
    if (!job || !job->walked || job->outstanding != 0)
        return;
    *job = _flushJobs.back();
    _flushJobs.pop_back();
    ++_bankAcksSent;

    persist::EpochArbiter *arb = &_pc.arbiter(core);
    _ni.sendControl(_pc.l1(core).nodeId(),
                    [arb, epoch] { arb->onBankAck(epoch); });

    if (!_pc.config().useArbiter) {
        // §4.1 strawman: every bank also broadcasts its completion to
        // every other bank — O(n^2) messages per flushed epoch.
        for (unsigned b = 0; b < _pc.numBanks(); ++b) {
            if (b == _bankIdx)
                continue;
            _ni.sendControl(_pc.bank(b).nodeId(), [] {});
        }
    }
}

void
LlcBank::debugDump(std::ostream &os)
{
    if (_lines.empty() && _flushJobs.empty())
        return;
    os << name() << ":";
    _lines.forEach([&](Addr addr, const LineEntry &e) {
        if (!e.txns.empty()) {
            const Txn &front = _txnPool.at(e.txns.head);
            os << " busy[0x" << std::hex << addr << std::dec << "]x"
               << e.txnCount << "(core " << front.core
               << (front.isWrite ? " W" : " R") << ")";
        }
        if (!e.waiters.empty()) {
            os << " pinWait[0x" << std::hex << addr << std::dec << "]x"
               << testPinWaiters(addr);
        }
    });
    for (const FlushJob &job : _flushJobs) {
        os << " flushJob[core " << job.core << " epoch " << job.epoch
           << "] out=" << job.outstanding << " walked=" << job.walked;
    }
    os << "\n";
}

void
LlcBank::handlePersistCmp(CoreId core, EpochId epoch)
{
    prof::ScopedPhase profPhase(prof::Phase::LlcBank);
    (void)core;
    (void)epoch;
    ++_persistCmpSeen;
}

} // namespace persim::cache
