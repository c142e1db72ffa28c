#include "persist/persist_controller.hh"

#include <utility>

#include "cache/l1_cache.hh"
#include "cache/llc_bank.hh"
#include "noc/network_interface.hh"
#include "nvm/memory_controller.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace persim::persist
{

PersistController::PersistController(const std::string &name,
                                     EventQueue &eq,
                                     const BarrierConfig &cfg,
                                     unsigned numCores)
    : SimObject(name, eq),
      statGroup(name),
      statIntraConflicts(&statGroup, "intraConflicts",
                         "intra-thread epoch conflicts (§3.2)"),
      statInterConflicts(&statGroup, "interConflicts",
                         "inter-thread epoch conflicts (§3.1)"),
      statReplacementConflicts(&statGroup, "replacementConflicts",
                               "replacement epoch conflicts"),
      statIdtResolutions(&statGroup, "idtResolutions",
                         "inter-thread conflicts absorbed by IDT"),
      statOnlineFlushWaits(&statGroup, "onlineFlushWaits",
                           "requests that waited for an online flush"),
      statStealsClean(&statGroup, "stealsClean",
                      "incarnations stolen before their flush"),
      statStealsInFlight(&statGroup, "stealsInFlight",
                         "incarnations stolen with a flush in flight"),
      statProtocolMessages(&statGroup, "protocolMessages",
                           "flush-protocol control messages"),
      statConflictWait(&statGroup, "conflictWait",
                       "cycles a conflicting request waited online"),
      _cfg(cfg)
{
    // The sharers bitmask (and `1 << core` in the banks) is 64 bits
    // wide; a larger system would silently alias core ids.
    simAssert(numCores <= kMaxCores, name, ": numCores (", numCores,
              ") exceeds kMaxCores (", kMaxCores, ")");
    _arbiters.reserve(numCores);
    for (unsigned c = 0; c < numCores; ++c) {
        _arbiters.push_back(std::make_unique<EpochArbiter>(
            name + ".arbiter[" + std::to_string(c) + "]", eq, *this,
            static_cast<CoreId>(c)));
    }
}

PersistController::~PersistController() = default;

void
PersistController::connect(std::vector<cache::L1Cache *> l1s,
                           std::vector<cache::LlcBank *> banks,
                           std::vector<nvm::MemoryController *> mcs,
                           noc::Mesh *mesh)
{
    simAssert(l1s.size() == _arbiters.size(),
              "one L1 per core expected");
    simAssert(!mcs.empty(), "at least one memory controller expected");
    _l1s = std::move(l1s);
    _banks = std::move(banks);
    _mcs = std::move(mcs);
    _mesh = mesh;
    for (std::size_t c = 0; c < _arbiters.size(); ++c)
        _arbiters[c]->setL1(_l1s[c]);
}

nvm::MemoryController &
PersistController::mcFor(Addr addr)
{
    return *_mcs[nvm::mcIndexFor(addr,
                                 static_cast<unsigned>(_mcs.size()))];
}

// ---------------------------------------------------------------------
// L1-side hooks
// ---------------------------------------------------------------------

void
PersistController::beforeL1Store(CoreId core, cache::CacheLine &line,
                                 InlineCallback cont)
{
    if (!_cfg.enabled) {
        cont();
        return;
    }
    resolveL1StoreConflict(core, l1(core).array().addrOf(line),
                           std::move(cont));
}

void
PersistController::resolveL1StoreConflict(CoreId core, Addr addr,
                                          InlineCallback cont)
{
    // Fixpoint: each round may wait for a flush, during which other
    // stores or third-party splits can change the line's tag or advance
    // the core's current epoch; re-check until the store may proceed.
    cache::CacheLine *line = l1(core).find(addr);
    if (!line || !line->tagged()) {
        cont();
        return;
    }
    // An L1 line carries a tag only for the owning core's own epochs.
    simAssert(line->epochCore() == core,
              "L1 line tagged by another core");
    const EpochId cur = arbiter(core).currentEpoch();
    simAssert(line->epochId() <= cur,
              "L1 line tagged by a future epoch");
    if (line->epochId() == cur) {
        cont(); // coalescing within the current epoch (§2.1)
        return;
    }
    const EpochId old = line->epochId();
    if (arbiter(core).isPersisted(old)) {
        // A clwb-retained line keeps its tag until the epoch persists;
        // the stale tag ends here and the store starts a fresh
        // incarnation.
        simAssert(!line->dirty(), "stale epoch tag on a dirty L1 line");
        line->clearTag();
        cont();
        return;
    }
    // Intra-thread conflict (§3.2): epochs up to the line's must persist
    // before this store may overwrite the value.
    ++statIntraConflicts;
    ++statOnlineFlushWaits;
    const Tick began = curTick();
    arbiter(core).ensureFlushedUpTo(
        old, FlushCause::IntraThread,
        [this, core, addr, began, cont = std::move(cont)]() mutable {
            statConflictWait.sample(curTick() - began);
            if (trace::probing()) [[unlikely]] {
                trace::span(began, curTick(), name(),
                            detail::concat("intra-thread core ", core,
                                           " store 0x", std::hex, addr),
                            "Conflict");
            }
            resolveL1StoreConflict(core, addr, std::move(cont));
        });
}

void
PersistController::afterL1StoreTagNew(CoreId core, cache::CacheLine &line,
                                      Epoch &e)
{
    line.setTag(core, e.id);
    const Addr addr = l1(core).array().addrOf(line);
    l1(core).flushEngine().addLine(core, e.id, addr);
    ++e.linesLive;
    if (_observer)
        _observer->onStoreTagged(core, e.id, addr);
    if (_cfg.logging) {
        // First modification of the line in this epoch: persist the old
        // value to the undo log (§5.2.1).
        arbiter(core).issueLogWrite(e.id);
    }
}

void
PersistController::foreignIncarnation(CoreId core,
                                      const cache::CacheLine &line,
                                      EpochId epoch)
{
    panic("store performed over a foreign incarnation: line 0x", std::hex,
          l1(core).array().addrOf(line), std::dec, " tagged (core ",
          line.epochCore(), ", epoch ", line.epochId(),
          ") but store is (core ", core, ", epoch ", epoch, ")");
}

void
PersistController::onL1Writeback(CoreId core,
                                 const cache::CacheLine &l1Line,
                                 cache::CacheLine &llcLine,
                                 unsigned bankIdx)
{
    simAssert(_cfg.enabled, "tagged writeback with persistence off");
    simAssert(l1Line.epochCore() == core,
              "writeback of a foreign incarnation");
    simAssert(!llcLine.tagged(),
              "two incarnations of one line (LLC already tagged)");
    const Addr addr = l1(core).array().addrOf(l1Line);
    const bool present =
        l1(core).flushEngine().removeLine(core, l1Line.epochId(), addr);
    simAssert(present, "L1 incarnation missing from its flush engine");
    bank(bankIdx).flushEngine().addLine(core, l1Line.epochId(), addr);
    llcLine.setTag(core, l1Line.epochId());
}

// ---------------------------------------------------------------------
// Bank-side hooks
// ---------------------------------------------------------------------

void
PersistController::toArbiter(unsigned fromNode, CoreId core,
                             InlineCallback atArbiter)
{
    ++statProtocolMessages;
    _mesh->send(fromNode, l1(core).nodeId(), noc::kControlBytes,
                std::move(atArbiter));
}

void
PersistController::resolveBankAccess(unsigned bankIdx, CoreId reqCore,
                                     bool isWrite, Addr addr,
                                     InlineCallback cont)
{
    if (!_cfg.enabled) {
        cont();
        return;
    }
    cache::CacheLine *line = bank(bankIdx).find(addr);
    if (!line || !line->tagged()) {
        cont();
        return;
    }
    const CoreId srcCore = line->epochCore();
    const EpochId srcEpoch = line->epochId();
    const unsigned bankNode = bank(bankIdx).nodeId();

    if (srcCore == reqCore) {
        const EpochId reqEpoch = arbiter(reqCore).currentEpoch();
        if (!isWrite || srcEpoch == reqEpoch ||
            arbiter(reqCore).isPersisted(srcEpoch)) {
            cont(); // reads never conflict intra-thread (§3.2); a
                    // same-epoch write transfers at grant time; a
                    // persisted tag is stale and is cleared at grant.
            return;
        }
        simAssert(srcEpoch < reqEpoch,
                  "line tagged by a future epoch of the requester");
        (void)reqEpoch;
        // Intra-thread conflict detected at the bank (store miss path).
        ++statIntraConflicts;
        ++statOnlineFlushWaits;
        toArbiter(bankNode, reqCore,
                  [this, reqCore, srcEpoch, bankNode,
                   cont = std::move(cont)]() mutable {
                      arbiter(reqCore).ensureFlushedUpTo(
                          srcEpoch, FlushCause::IntraThread,
                          [this, reqCore, bankNode,
                           cont = std::move(cont)]() mutable {
                              ++statProtocolMessages;
                              _mesh->send(l1(reqCore).nodeId(), bankNode,
                                          noc::kControlBytes,
                                          std::move(cont));
                          });
                  });
        return;
    }

    // Inter-thread conflict (§3.1). First make sure the source epoch is
    // closed (splitting an ongoing epoch per §3.3), then resolve.
    ++statInterConflicts;
    if (trace::probing()) [[unlikely]] {
        trace::span(curTick(), curTick(), name(),
                    detail::concat("inter-thread core ", reqCore,
                                   isWrite ? " store 0x" : " load 0x",
                                   std::hex, addr, std::dec, " hits core ",
                                   srcCore, " epoch ", srcEpoch),
                    "Conflict");
    }
    toArbiter(bankNode, srcCore,
              [this, reqCore, isWrite, srcCore, srcEpoch, bankIdx,
               cont = std::move(cont)]() mutable {
                  arbiter(srcCore).prepareClosedEpoch(
                      srcEpoch, FlushCause::InterThread,
                      [this, reqCore, isWrite, srcCore, bankIdx,
                       cont = std::move(cont)](EpochId closed) mutable {
                          resolveInterThreadClosed(reqCore, isWrite,
                                                   srcCore, closed,
                                                   bankIdx,
                                                   std::move(cont));
                      });
              });
}

void
PersistController::resolveInterThreadClosed(CoreId reqCore, bool isWrite,
                                            CoreId srcCore,
                                            EpochId srcEpoch,
                                            unsigned bankIdx,
                                            InlineCallback cont)
{
    EpochArbiter &srcArb = arbiter(srcCore);
    auto replyToBank = [this, srcCore, bankIdx,
                        cont = std::move(cont)]() mutable {
        ++statProtocolMessages;
        _mesh->send(l1(srcCore).nodeId(), bank(bankIdx).nodeId(),
                    noc::kControlBytes, std::move(cont));
    };
    if (srcArb.isPersisted(srcEpoch)) {
        replyToBank();
        return;
    }
    if (_cfg.idt) {
        // The requesting operation will complete in (and therefore
        // belongs to) the requester's current ongoing epoch.
        (void)isWrite;
        const EpochId depEpoch = arbiter(reqCore).currentEpoch();
        const bool infOk =
            srcArb.recordInform(srcEpoch, IdtEntry{reqCore, depEpoch});
        const bool depOk =
            infOk && arbiter(reqCore).recordDependence(
                         depEpoch, IdtEntry{srcCore, srcEpoch});
        if (infOk && depOk) {
            ++statIdtResolutions;
            if (_observer) {
                _observer->onDependence(reqCore, depEpoch, srcCore,
                                        srcEpoch);
            }
            // The request proceeds immediately; the source still flushes
            // — but offline, off the critical path (Figure 4b).
            srcArb.ensureFlushedUpTo(srcEpoch, FlushCause::InterThread,
                                     {});
            // Charge the register-update notification to the dependent.
            toArbiter(l1(srcCore).nodeId(), reqCore, [] {});
            replyToBank();
            return;
        }
        // Register overflow: fall back to the LB online flush.
    }
    ++statOnlineFlushWaits;
    srcArb.ensureFlushedUpTo(srcEpoch, FlushCause::InterThread,
                             std::move(replyToBank));
}

bool
PersistController::writeGrantNeedsResolve(unsigned bankIdx,
                                          CoreId reqCore, Addr addr)
{
    if (!_cfg.enabled)
        return false;
    cache::CacheLine *line = bank(bankIdx).find(addr);
    if (!line || !line->tagged() || line->epochCore() != reqCore)
        return false;
    // A split may have advanced the requester's epoch between conflict
    // resolution and the grant; an unpersisted same-core tag from an
    // older epoch is an intra-thread conflict that must resolve first.
    return line->epochId() != arbiter(reqCore).currentEpoch() &&
           !arbiter(reqCore).isPersisted(line->epochId());
}

IdtEntry
PersistController::onBankGrantWrite(unsigned bankIdx, CoreId reqCore,
                                    cache::CacheLine &line)
{
    const IdtEntry none{kNoCore, kNoEpoch};
    if (!_cfg.enabled || !line.tagged())
        return none;
    const CoreId srcCore = line.epochCore();
    const EpochId srcEpoch = line.epochId();

    if (arbiter(srcCore).isPersisted(srcEpoch)) {
        // Stale tag (the epoch persisted while the request was in
        // flight): the line carries no obligation any more.
        line.clearTag();
        return none;
    }
    const Addr addr = bank(bankIdx).array().addrOf(line);

    if (srcCore == reqCore) {
        const EpochId reqEpoch = arbiter(reqCore).currentEpoch();
        simAssert(srcEpoch == reqEpoch,
                  "unresolved same-core tag at write grant (the bank "
                  "must re-resolve via writeGrantNeedsResolve)");
        // The same-epoch incarnation moves back into the writer's L1.
        const bool present = bank(bankIdx).flushEngine().removeLine(
            srcCore, srcEpoch, addr);
        simAssert(present, "LLC tag without a flush-engine entry");
        l1(reqCore).flushEngine().addLine(srcCore, srcEpoch, addr);
        line.clearTag();
        return IdtEntry{srcCore, srcEpoch};
    }

    // Inter-thread overwrite: the new epoch steals the incarnation. The
    // persist-order edge src -> dep was recorded (IDT) or the source was
    // flushed online before we got here; if the old incarnation's flush
    // is already in flight it still persists with the old tags.
    const EpochId reqEpoch = arbiter(reqCore).currentEpoch();
    const bool present =
        bank(bankIdx).flushEngine().removeLine(srcCore, srcEpoch, addr);
    if (present) {
        ++statStealsClean;
        arbiter(srcCore).removeLiveLine(srcEpoch);
    } else {
        ++statStealsInFlight;
    }
    if (_observer) {
        _observer->onSteal(srcCore, srcEpoch, reqCore, reqEpoch, addr,
                           !present);
    }
    line.clearTag();
    return none;
}

void
PersistController::beforeLlcEviction(unsigned bankIdx,
                                     cache::CacheLine &victim,
                                     InlineCallback cont)
{
    simAssert(_cfg.enabled && victim.tagged(),
              "replacement conflict without a tagged victim");
    ++statReplacementConflicts;
    ++statOnlineFlushWaits;
    const CoreId core = victim.epochCore();
    const EpochId epoch = victim.epochId();
    const unsigned bankNode = bank(bankIdx).nodeId();
    toArbiter(bankNode, core,
              [this, core, epoch, bankNode,
               cont = std::move(cont)]() mutable {
                  arbiter(core).prepareClosedEpoch(
                      epoch, FlushCause::Replacement,
                      [this, core, bankNode,
                       cont = std::move(cont)](EpochId closed) mutable {
                          arbiter(core).ensureFlushedUpTo(
                              closed, FlushCause::Replacement,
                              [this, core, bankNode,
                               cont = std::move(cont)]() mutable {
                                  ++statProtocolMessages;
                                  _mesh->send(l1(core).nodeId(), bankNode,
                                              noc::kControlBytes,
                                              std::move(cont));
                              });
                      });
              });
}

// ---------------------------------------------------------------------
// Drain / stats
// ---------------------------------------------------------------------

void
PersistController::drainAll(InlineCallback cont)
{
    if (!_cfg.enabled) {
        cont();
        return;
    }
    auto remaining = std::make_shared<unsigned>(
        static_cast<unsigned>(_arbiters.size()));
    auto done = std::make_shared<InlineCallback>(std::move(cont));
    for (auto &arb : _arbiters) {
        arb->drain([this, remaining, done] {
            if (--*remaining == 0) {
                for (auto &a : _arbiters) {
                    simAssert(a->fullyPersisted(), a->name(),
                              ": not fully persisted after drain");
                }
                (*done)();
            }
        });
    }
}

void
PersistController::collectStatGroups(
    std::vector<const StatGroup *> &out) const
{
    out.push_back(&statGroup);
    for (const auto &arb : _arbiters)
        out.push_back(&arb->statGroup);
}

} // namespace persim::persist
