/**
 * @file
 * Buffered Strict Persistency in bulk mode (§5.2): transparent
 * whole-program checkpointing of an unmodified multi-threaded
 * application.
 *
 * The "application" is the ssca2 stand-in (write-intensive, fine-grained
 * sharing — the paper's stress case). The hardware persistence engine
 * slices execution into epochs of N dynamic stores, undo-logs first
 * writes, checkpoints register state per epoch, and the LB++ barrier
 * keeps persists off the critical path. The example contrasts LB and
 * LB++ overheads against a No-Persistency run — Figure 14 in miniature.
 *
 *   $ ./examples/checkpoint_bsp [opsPerThread] [epochSize]
 */

#include <cstdio>
#include <cstdlib>
#include <exception>

#include "exp/stats_export.hh"
#include "model/system.hh"
#include "workload/workload_factory.hh"

using namespace persim;

namespace
{

model::SimResult
runOnce(model::PersistencyModel pm, persist::BarrierKind bk,
        std::uint64_t ops, unsigned epochSize, double *logWrites,
        double *checkpointLines)
{
    model::SystemConfig cfg = model::SystemConfig::paperTable1();
    applyPersistencyModel(cfg, pm, bk, epochSize);
    model::System sys(cfg);
    auto workloads = workload::makeSyntheticWorkloads(
        "ssca2", cfg.numCores, ops, /*seed=*/7);
    for (unsigned t = 0; t < cfg.numCores; ++t)
        sys.setWorkload(static_cast<CoreId>(t), std::move(workloads[t]));
    model::SimResult res = sys.run();
    if (logWrites) {
        const exp::JsonValue stats = exp::statGroupsToJson(sys.statGroups());
        *logWrites =
            exp::sumStat(stats, {"persist.arbiter[*]", "logWrites"});
        *checkpointLines =
            exp::sumStat(stats, {"persist.arbiter[*]", "checkpointLines"});
    }
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::uint64_t ops = argc > 1 ? std::atoll(argv[1]) : 5000;
    const unsigned epochSize =
        argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 1000;
    try {
        std::printf("BSP bulk-mode checkpointing of 'ssca2' (%llu "
                    "ops/thread, %u-store epochs)\n",
                    static_cast<unsigned long long>(ops), epochSize);

        model::SimResult np =
            runOnce(model::PersistencyModel::NoPersistency,
                    persist::BarrierKind::None, ops, 0, nullptr,
                    nullptr);
        std::printf("NP baseline:    %8.3f Mcycles\n",
                    np.execTicks / 1e6);

        model::SimResult lb =
            runOnce(model::PersistencyModel::BufferedStrict,
                    persist::BarrierKind::LB, ops, epochSize, nullptr,
                    nullptr);
        std::printf("BSP with LB:    %8.3f Mcycles  (%.2fx NP)\n",
                    lb.execTicks / 1e6,
                    double(lb.execTicks) / double(np.execTicks));

        double logs = 0, ckpts = 0;
        model::SimResult pp =
            runOnce(model::PersistencyModel::BufferedStrict,
                    persist::BarrierKind::LBPP, ops, epochSize, &logs,
                    &ckpts);
        std::printf("BSP with LB++:  %8.3f Mcycles  (%.2fx NP)\n",
                    pp.execTicks / 1e6,
                    double(pp.execTicks) / double(np.execTicks));
        std::printf("  undo-log line writes:   %.0f\n", logs);
        std::printf("  checkpointed reg lines: %.0f\n", ckpts);
        std::printf("  ordering violations:    %zu\n",
                    pp.violations.size());

        // BSP logs every epoch's first writes: no undo-log traffic
        // means the logging path never ran.
        const bool ok = np.completed && lb.completed && pp.completed &&
                        pp.violations.empty() && logs > 0;
        std::printf("%s\n", ok ? "OK" : "FAILED");
        return ok ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
