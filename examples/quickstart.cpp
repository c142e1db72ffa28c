/**
 * @file
 * Quickstart: build the paper's Table 1 machine, run the hash
 * micro-benchmark under Buffered Epoch Persistency with the LB++
 * barrier, and print headline numbers plus the ordering-checker verdict.
 *
 *   $ ./examples/quickstart [opsPerThread]
 */

#include <cstdio>
#include <cstdlib>
#include <exception>

#include "exp/stats_export.hh"
#include "model/system.hh"
#include "workload/workload_factory.hh"

using namespace persim;

int
main(int argc, char **argv)
{
    const std::uint64_t ops = argc > 1 ? std::atoll(argv[1]) : 200;
    try {
        // 1. Configure the machine (Table 1 defaults) and pick a
        //    persistency model + barrier implementation.
        model::SystemConfig cfg = model::SystemConfig::paperTable1();
        applyPersistencyModel(cfg,
                              model::PersistencyModel::BufferedEpoch,
                              persist::BarrierKind::LBPP);
        std::printf("system: %s\n", cfg.describe().c_str());

        // 2. Build the system and attach one workload per core.
        model::System sys(cfg);
        workload::MicroConfig mc;
        mc.kind = workload::MicroKind::Hash;
        mc.numThreads = cfg.numCores;
        mc.opsPerThread = ops;
        auto workloads = workload::makeMicroWorkloads(mc);
        for (unsigned t = 0; t < cfg.numCores; ++t)
            sys.setWorkload(static_cast<CoreId>(t),
                            std::move(workloads[t]));

        // 3. Run to completion (the end-of-run drain persists every
        //    outstanding epoch) and inspect the result.
        model::SimResult res = sys.run();
        std::printf("completed:            %s\n",
                    res.completed ? "yes" : "NO");
        std::printf("transactions:         %llu\n",
                    static_cast<unsigned long long>(res.transactions));
        std::printf("execution time:       %.3f Mcycles\n",
                    res.execTicks / 1e6);
        std::printf("throughput:           %.1f txn/Mcycle\n",
                    res.throughput());
        std::printf("persist drain:        +%.3f Mcycles\n",
                    (res.drainTicks - res.execTicks) / 1e6);
        std::printf("ordering violations:  %zu\n",
                    res.violations.size());

        // 4. Pull a few interesting counters out of the stat tree.
        const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
        std::printf("intra-thread conflicts: %.0f\n",
                    exp::sumStat(stats, {"persist", "intraConflicts"}));
        std::printf("inter-thread conflicts: %.0f\n",
                    exp::sumStat(stats, {"persist", "interConflicts"}));
        std::printf("IDT resolutions:        %.0f\n",
                    exp::sumStat(stats, {"persist", "idtResolutions"}));
        return res.completed && res.violations.empty() ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
