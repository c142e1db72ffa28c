#include "model/system.hh"

#include <bit>
#include <string>
#include <utility>

#include "prof/phase.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace persim::model
{

namespace
{

/** Trivial workload for cores with nothing assigned. */
class IdleWorkload : public cpu::Workload
{
  public:
    cpu::MemOp next(Tick) override { return cpu::MemOp::halt(); }
};

} // namespace

System::System(const SystemConfig &cfg) : _cfg(cfg)
{
    _cfg.validate();
    const unsigned n = _cfg.numCores;

    _mesh = std::make_unique<noc::Mesh>("mesh", _eq, _cfg.mesh);
    _pc = std::make_unique<persist::PersistController>("persist", _eq,
                                                       _cfg.barrier, n);
    if (_cfg.checkOrdering) {
        _checker =
            std::make_unique<OrderingChecker>(n, _cfg.keepPersistLog);
        _pc->setObserver(_checker.get());
    }

    // Tile layout: core/L1 node = i, bank node = n + i, MC node = 2n + j.
    const unsigned cols = _cfg.mesh.cols;
    for (unsigned i = 0; i < n; ++i) {
        const unsigned x = i % cols;
        const unsigned y = i / cols;
        _l1s.push_back(std::make_unique<cache::L1Cache>(
            "l1[" + std::to_string(i) + "]", _eq, *_mesh, i, x, y,
            static_cast<CoreId>(i), _cfg.l1, *_pc));
        _banks.push_back(std::make_unique<cache::LlcBank>(
            "llc[" + std::to_string(i) + "]", _eq, *_mesh, n + i, x, y, i,
            _cfg.llcBank, *_pc));
    }

    // Memory controllers at the mesh corners (Figure 2).
    const unsigned cornerX[4] = {0, _cfg.mesh.cols - 1, 0,
                                 _cfg.mesh.cols - 1};
    const unsigned cornerY[4] = {0, 0, _cfg.mesh.rows - 1,
                                 _cfg.mesh.rows - 1};
    nvm::NvramConfig nvramCfg = _cfg.nvram;
    nvramCfg.bankShift = static_cast<unsigned>(
        std::bit_width(_cfg.numMemControllers) - 1);
    for (unsigned j = 0; j < _cfg.numMemControllers; ++j) {
        auto mc = std::make_unique<nvm::MemoryController>(
            "mc[" + std::to_string(j) + "]", _eq, *_mesh, 2 * n + j,
            cornerX[j], cornerY[j], nvramCfg);
        if (_checker)
            mc->setObserver(_checker.get());
        _mcs.push_back(std::move(mc));
    }

    std::vector<cache::L1Cache *> l1Ptrs;
    std::vector<cache::LlcBank *> bankPtrs;
    std::vector<nvm::MemoryController *> mcPtrs;
    for (auto &l : _l1s)
        l1Ptrs.push_back(l.get());
    for (auto &b : _banks)
        bankPtrs.push_back(b.get());
    for (auto &m : _mcs)
        mcPtrs.push_back(m.get());
    _pc->connect(std::move(l1Ptrs), std::move(bankPtrs),
                 std::move(mcPtrs), _mesh.get());

    _workloads.resize(n);
}

System::~System() = default;

void
System::setWorkload(CoreId core, std::unique_ptr<cpu::Workload> workload)
{
    simAssert(core < _cfg.numCores, "setWorkload: core out of range");
    simAssert(!_ran, "setWorkload after run()");
    _workloads[core] = std::move(workload);
}

void
System::buildCores()
{
    cpu::CoreConfig ccfg;
    ccfg.writeBufferEntries = _cfg.writeBufferEntries;
    ccfg.autoBarrierEvery = _cfg.autoBarrierEvery;
    ccfg.persistEnabled = _cfg.barrier.enabled;
    ccfg.writeThrough = _cfg.writeThrough;
    for (unsigned i = 0; i < _cfg.numCores; ++i) {
        if (!_workloads[i])
            _workloads[i] = std::make_unique<IdleWorkload>();
        _cores.push_back(std::make_unique<cpu::Core>(
            "core[" + std::to_string(i) + "]", _eq,
            static_cast<CoreId>(i), ccfg, _l1s[i].get(),
            &_pc->arbiter(static_cast<CoreId>(i)), _workloads[i].get()));
    }
}

SimResult
System::run()
{
    simAssert(!_ran, "System::run() may only be called once");
    _ran = true;
    buildCores();

    // Interval sampling exists only when this thread is tracing with a
    // counter window: it rides the run loop (no events, no queue
    // residue), so the untraced machine is bit-for-bit unaffected.
    if (trace::Recorder *rec = trace::current();
        rec && rec->counterWindow() > 0) {
        _sampler =
            std::make_unique<IntervalSampler>(*this,
                                              rec->counterWindow());
    }

    // Base host-time phase for the whole dispatch loop: any sample
    // that lands outside a deeper component scope is event-queue
    // machinery, not "other".
    prof::ScopedPhase profPhase(prof::Phase::EventLoop);

    SimResult res;
    unsigned running = _cfg.numCores;
    bool drained = false;

    for (auto &core : _cores) {
        core->setOnDone([this, &running, &res, &drained] {
            if (--running != 0)
                return;
            res.execTicks = _eq.now();
            _pc->drainAll([this, &res, &drained] {
                res.drainTicks = _eq.now();
                drained = true;
            });
        });
        core->start();
    }

    // The watchdog poll is amortized to one relaxed load every 8192
    // events — far below the noise floor of the dispatch loop, and
    // the cadence (tens of microseconds of host time) is much finer
    // than any realistic RunnerOptions::jobTimeoutMs deadline.
    auto cancelled = [this](std::uint64_t events) {
        return (events & 8191u) == 0 && _cancel &&
               _cancel->load(std::memory_order_relaxed);
    };
    std::uint64_t events = 0;
    if (_sampler) {
        while (!_eq.empty() && events < _cfg.maxEvents &&
               _eq.now() <= _cfg.maxTicks) {
            if (cancelled(events))
                throw SimCancelled("cancelled by watchdog at tick " +
                                   std::to_string(_eq.now()));
            _eq.runNext();
            ++events;
            if (_eq.now() >= _sampler->nextDue())
                _sampler->sample(_eq.now());
        }
        _sampler->sample(_eq.now()); // close the trailing window
    } else {
        while (!_eq.empty() && events < _cfg.maxEvents &&
               _eq.now() <= _cfg.maxTicks) {
            if (cancelled(events))
                throw SimCancelled("cancelled by watchdog at tick " +
                                   std::to_string(_eq.now()));
            _eq.runNext();
            ++events;
        }
    }
    res.events = events;

    if (!_eq.empty()) {
        res.timedOut = true;
        warn("system: simulation hit its safety limit at tick ",
             _eq.now(), " after ", events, " events");
    }
    res.completed = (running == 0) && drained && !res.timedOut;
    res.deadlocked = !res.timedOut && running != 0;
    if (res.deadlocked) {
        res.execTicks = _eq.now();
        res.drainTicks = _eq.now();
    }

    if (_checker) {
        if (res.completed)
            _checker->finalize();
        res.violations = _checker->violations();
    }
    for (auto &w : _workloads)
        res.transactions += w->transactions();
    return res;
}

std::vector<const StatGroup *>
System::statGroups() const
{
    std::vector<const StatGroup *> out;
    out.push_back(&_mesh->stats());
    _pc->collectStatGroups(out);
    for (auto &m : _mcs)
        out.push_back(&m->stats());
    for (auto &l : _l1s)
        out.push_back(&l->stats());
    for (auto &b : _banks)
        out.push_back(&b->stats());
    for (auto &c : _cores)
        out.push_back(&c->stats());
    if (_sampler)
        out.push_back(&_sampler->stats());
    return out;
}

void
System::debugDump(std::ostream &os)
{
    for (unsigned c = 0; c < _cfg.numCores; ++c)
        _pc->arbiter(static_cast<CoreId>(c)).debugDump(os);
    for (auto &b : _banks)
        b->debugDump(os);
}

} // namespace persim::model
