/**
 * @file
 * persim_cli — command-line driver for one-off simulations.
 *
 *   persim_cli --workload hash --model BEP --barrier LB++ --ops 500
 *   persim_cli --workload ssca2 --model BSP --epoch-size 1000 --stats
 *
 * Workloads: the Table 2 micros (hash, queue, rbtree, sdg, sps) and the
 * synthetic suite stand-ins (canneal, dedup, freqmine, barnes,
 * cholesky, radix, intruder, ssca2, vacation).
 *
 * The flags fill one exp::ExperimentSpec, which builds the machine and
 * its workloads exactly as a sweep cell does; --json writes the run in
 * the sweep's per-job schema (JobOutcome::toJson).
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <string>

#include "flags.hh"

#include "exp/runner.hh"
#include "exp/spec.hh"
#include "exp/stats_export.hh"
#include "model/recovery.hh"
#include "model/system.hh"
#include "sim/logging.hh"

using namespace persim;

namespace
{

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --workload NAME   hash|queue|rbtree|sdg|sps or a synthetic\n"
        "                    preset (canneal, ..., vacation). Default\n"
        "                    hash.\n"
        "  --model M         NP|SP|EP|BEP|BSP (default BEP for micros,\n"
        "                    BSP for synthetics)\n"
        "  --barrier B       LB|LB+IDT|LB+PF|LB++ (default LB++)\n"
        "  --ops N           operations per thread (default 300)\n"
        "  --cores N         cores (default 32; power of two)\n"
        "  --epoch-size N    BSP hardware epoch size (default 10000)\n"
        "  --seed N          workload seed (default 1)\n"
        "  --stats           dump the full stat tree\n"
        "  --json FILE       write the run as JSON in persim_sweep's\n"
        "                    per-job schema (id, spec, result, groups)\n"
        "  --debug-state     dump live machine state after the run\n"
        "  --check-recovery  record the persist log and verify crash\n"
        "                    recoverability at every point\n"
        "  --help\n",
        argv0);
}

/** The value in @p kinds whose toString() is @p name. */
template <typename Kind>
Kind
byName(const char *what, const std::string &name,
       std::initializer_list<Kind> kinds)
{
    for (Kind kind : kinds) {
        if (name == toString(kind))
            return kind;
    }
    persim::fatal("unknown ", what, " '", name, "'");
}

} // namespace

int
main(int argc, char **argv)
{
    exp::ExperimentSpec spec;
    spec.sweep = "cli";
    std::string modelName;
    std::string barrierName = "LB++";
    bool printStats = false;
    std::string jsonFile;
    bool debugState = false;
    bool checkRecovery = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--workload")
            spec.workload = value("--workload");
        else if (arg == "--model")
            modelName = value("--model");
        else if (arg == "--barrier")
            barrierName = value("--barrier");
        else if (arg == "--ops")
            spec.ops = tools::parseNum("--ops", value("--ops"));
        else if (arg == "--cores")
            spec.cores = tools::parseNumU32("--cores", value("--cores"));
        else if (arg == "--epoch-size")
            spec.epochSize =
                tools::parseNumU32("--epoch-size", value("--epoch-size"));
        else if (arg == "--seed")
            spec.seed = tools::parseNum("--seed", value("--seed"));
        else if (arg == "--stats")
            printStats = true;
        else if (arg == "--json")
            jsonFile = value("--json");
        else if (arg == "--debug-state")
            debugState = true;
        else if (arg == "--check-recovery")
            checkRecovery = true;
        else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    try {
        using model::PersistencyModel;
        using persist::BarrierKind;
        if (modelName.empty())
            modelName = spec.isMicro() ? "BEP" : "BSP";
        spec.pm = byName("persistency model", modelName,
                         {PersistencyModel::NoPersistency,
                          PersistencyModel::Strict, PersistencyModel::Epoch,
                          PersistencyModel::BufferedEpoch,
                          PersistencyModel::BufferedStrict});
        // ASCII spellings of the '+' names.
        if (barrierName == "LBIDT")
            barrierName = "LB+IDT";
        else if (barrierName == "LBPF")
            barrierName = "LB+PF";
        else if (barrierName == "LBPP")
            barrierName = "LB++";
        spec.barrier = byName("barrier", barrierName,
                              {BarrierKind::LB, BarrierKind::LBIDT,
                               BarrierKind::LBPF, BarrierKind::LBPP});
        spec.configLabel = barrierName;

        model::SystemConfig cfg = spec.toSystemConfig();
        cfg.keepPersistLog = checkRecovery;
        model::System sys(cfg);
        auto workloads = spec.buildWorkloads();
        for (unsigned t = 0; t < spec.cores; ++t)
            sys.setWorkload(static_cast<CoreId>(t),
                            std::move(workloads[t]));

        std::printf("%s | %s | %s | %llu ops/thread | seed %llu\n",
                    spec.workload.c_str(), modelName.c_str(),
                    barrierName.c_str(),
                    static_cast<unsigned long long>(spec.ops),
                    static_cast<unsigned long long>(spec.seed));
        std::printf("%s\n", cfg.describe().c_str());

        model::SimResult res = sys.run();

        std::printf("completed=%d deadlocked=%d timedOut=%d\n",
                    res.completed, res.deadlocked, res.timedOut);
        std::printf("exec %.3f Mcycles, drain +%.3f Mcycles, %llu "
                    "events\n",
                    res.execTicks / 1e6,
                    (res.drainTicks - res.execTicks) / 1e6,
                    static_cast<unsigned long long>(res.events));
        std::printf("transactions %llu (%.1f txn/Mcycle)\n",
                    static_cast<unsigned long long>(res.transactions),
                    res.throughput());
        std::printf("ordering violations: %zu\n", res.violations.size());
        for (std::size_t i = 0;
             i < res.violations.size() && i < 5; ++i)
            std::printf("  %s\n", res.violations[i].c_str());

        if (checkRecovery && sys.checker()) {
            model::RecoveryAnalysis ra(sys.checker()->log(), spec.cores);
            const std::size_t bad = ra.firstInconsistency();
            if (bad > ra.logSize()) {
                std::printf("recovery: consistent at every crash point "
                            "(%zu durable writes)\n",
                            ra.logSize());
            } else {
                std::printf("recovery: INCONSISTENT at crash point %zu\n",
                            bad);
            }
        }
        if (debugState)
            sys.debugDump(std::cout);
        if (printStats) {
            for (const StatGroup *g : sys.statGroups())
                g->dump(std::cout);
        }
        if (!jsonFile.empty()) {
            exp::JobOutcome outcome;
            outcome.spec = spec;
            outcome.ok = true;
            outcome.attempts = 1;
            outcome.result = res;
            outcome.statTree = exp::statGroupsToJson(sys.statGroups());
            std::ofstream os(jsonFile);
            if (!os)
                persim::fatal("cannot write ", jsonFile);
            outcome.toJson(true).write(os, 2);
            os << '\n';
            std::printf("wrote %s\n", jsonFile.c_str());
        }
        return res.completed && res.violations.empty() ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
