/**
 * @file
 * The System facade: build, run, and inspect one simulated machine.
 *
 * This is persimmon's primary public API:
 *
 * @code
 *   SystemConfig cfg = SystemConfig::paperTable1();
 *   applyPersistencyModel(cfg, PersistencyModel::BufferedEpoch,
 *                         persist::BarrierKind::LBPP);
 *   System sys(cfg);
 *   sys.setWorkload(0, workload::makeMicroBenchmark(...));
 *   ...
 *   SimResult res = sys.run();
 * @endcode
 */

#ifndef PERSIM_MODEL_SYSTEM_HH
#define PERSIM_MODEL_SYSTEM_HH

#include <atomic>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "cache/l1_cache.hh"
#include "cache/llc_bank.hh"
#include "cpu/core.hh"
#include "cpu/workload_iface.hh"
#include "model/interval_stats.hh"
#include "model/ordering_checker.hh"
#include "model/system_config.hh"
#include "noc/mesh.hh"
#include "nvm/memory_controller.hh"
#include "persist/persist_controller.hh"
#include "sim/event_queue.hh"

namespace persim::model
{

/** Outcome of one simulation run. */
struct SimResult
{
    /** Every core halted and its write buffer drained. */
    bool completed = false;

    /** The event queue drained with cores still unfinished (§3.3). */
    bool deadlocked = false;

    /** Hit the maxTicks / maxEvents safety limit. */
    bool timedOut = false;

    /** Tick at which the last core finished (the paper's exec time). */
    Tick execTicks = 0;

    /** Tick at which the end-of-run persist drain finished. */
    Tick drainTicks = 0;

    /** Events executed. */
    std::uint64_t events = 0;

    /** Ordering-checker violations (empty on a correct run). */
    std::vector<std::string> violations;

    /** Sum of completed application transactions over all workloads. */
    std::uint64_t transactions = 0;

    /** Transactions per million cycles (Figure 11's metric). */
    double
    throughput() const
    {
        return execTicks == 0
                   ? 0.0
                   : static_cast<double>(transactions) * 1e6 /
                         static_cast<double>(execTicks);
    }
};

/**
 * One simulated machine: cores, L1s, banked LLC, mesh, NVRAM, and the
 * configured persist-barrier machinery.
 */
class System
{
  public:
    explicit System(const SystemConfig &cfg);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Assign @p workload to @p core (before run()). */
    void setWorkload(CoreId core, std::unique_ptr<cpu::Workload> workload);

    /** Build the cores, run to completion, drain, and check. */
    SimResult run();

    /**
     * Host-side cancellation: run() polls @p flag every few thousand
     * events and throws SimCancelled once it reads true. The check is
     * observability in reverse — it reads host state but can only
     * abort the run, never reorder events, so a run that is not
     * cancelled is bit-for-bit identical with or without a flag.
     * nullptr (the default) disables the poll. The flag must outlive
     * run().
     */
    void setCancelFlag(const std::atomic<bool> *flag) { _cancel = flag; }

    const SystemConfig &config() const { return _cfg; }
    EventQueue &eventQueue() { return _eq; }
    noc::Mesh &mesh() { return *_mesh; }
    persist::PersistController &persistController() { return *_pc; }
    cache::L1Cache &l1(CoreId core) { return *_l1s[core]; }
    cache::LlcBank &bank(unsigned idx) { return *_banks[idx]; }
    nvm::MemoryController &mc(unsigned idx) { return *_mcs[idx]; }
    cpu::Core &core(CoreId id) { return *_cores[id]; }
    OrderingChecker *checker() { return _checker.get(); }

    /**
     * Every StatGroup in deterministic construction order: the one way
     * stats leave the machine (exp::statGroupsToJson for structured
     * export, StatGroup::dump for text). Core groups exist only after
     * run().
     */
    std::vector<const StatGroup *> statGroups() const;

    /** Dump live machine state (windows, bank queues) for diagnosis. */
    void debugDump(std::ostream &os);

  private:
    void buildCores();

    SystemConfig _cfg;
    EventQueue _eq;
    std::unique_ptr<noc::Mesh> _mesh;
    std::unique_ptr<persist::PersistController> _pc;
    std::unique_ptr<OrderingChecker> _checker;
    std::vector<std::unique_ptr<nvm::MemoryController>> _mcs;
    std::vector<std::unique_ptr<cache::L1Cache>> _l1s;
    std::vector<std::unique_ptr<cache::LlcBank>> _banks;
    std::vector<std::unique_ptr<cpu::Workload>> _workloads;
    std::vector<std::unique_ptr<cpu::Core>> _cores;
    /** Present only while tracing with a counter window (see run()). */
    std::unique_ptr<IntervalSampler> _sampler;
    /** Watchdog flag polled by run(); see setCancelFlag(). */
    const std::atomic<bool> *_cancel = nullptr;
    bool _ran = false;
};

} // namespace persim::model

#endif // PERSIM_MODEL_SYSTEM_HH
