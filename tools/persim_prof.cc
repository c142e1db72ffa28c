/**
 * @file
 * persim_prof — render and compare `persim_sweep --prof-out` profiles.
 *
 *   persim_prof report FILE [--jobs N]     sorted phase table +
 *                                          counters summary
 *   persim_prof collapse FILE              collapsed-stack lines for
 *                                          flamegraph.pl / speedscope
 *   persim_prof diff A B [--threshold PP]  per-phase share deltas;
 *                                          exit 1 when any |delta|
 *                                          exceeds the threshold
 *
 * A profile is a host-time document (prof/profile.hh): which simulator
 * component the wall clock went to (SIGPROF phase samples) and what the
 * hardware did while it went (perf_event / getrusage counters). report
 * answers "where is the time", collapse feeds standard flamegraph
 * tooling, and diff turns two profiles into a regression gate — run it
 * before/after an optimization and let the exit code fail the build
 * when a phase's share of the samples moved more than the threshold.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "flags.hh"

#include "exp/json.hh"
#include "prof/profile.hh"
#include "sim/logging.hh"

using namespace persim;
using namespace persim::prof;

namespace
{

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s <command> ...\n"
        "  report FILE [--jobs N]   phase table sorted by samples, "
        "counter\n"
        "                           summary, and the N most expensive "
        "jobs\n"
        "                           (default 5; 0 hides the job "
        "table)\n"
        "  collapse FILE            collapsed-stack output "
        "('persim;<phase>\n"
        "                           <count>' per line) for "
        "flamegraph.pl or\n"
        "                           speedscope\n"
        "  diff A B [--threshold PP]\n"
        "                           per-phase sample-share deltas "
        "between two\n"
        "                           profiles, in percentage points; "
        "exit 1\n"
        "                           when any |delta| > PP (default "
        "2.0)\n"
        "  --help\n",
        argv0);
}

SweepProfile
loadProfile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read ", path);
    std::ostringstream text;
    text << in.rdbuf();
    return SweepProfile::fromJson(exp::JsonValue::parse(text.str()));
}

/** Phase indices of @p counts ordered by descending sample count. */
std::array<std::size_t, kPhaseCount>
sortedPhases(const PhaseCounts &counts)
{
    std::array<std::size_t, kPhaseCount> order;
    for (std::size_t i = 0; i < kPhaseCount; ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
        return counts.samples[a] > counts.samples[b];
    });
    return order;
}

double
pct(std::uint64_t part, std::uint64_t total)
{
    return total > 0
               ? 100.0 * static_cast<double>(part) /
                     static_cast<double>(total)
               : 0.0;
}

void
printCounters(const CounterReading &c)
{
    std::printf("counters: %s\n", c.source.c_str());
    if (c.perfValid) {
        std::printf("  cycles        %14llu\n",
                    static_cast<unsigned long long>(c.cycles));
        std::printf("  instructions  %14llu  (IPC %.2f)\n",
                    static_cast<unsigned long long>(c.instructions),
                    c.ipc());
        std::printf("  llcMisses     %14llu\n",
                    static_cast<unsigned long long>(c.llcMisses));
        std::printf("  branchMisses  %14llu\n",
                    static_cast<unsigned long long>(c.branchMisses));
    }
    if (c.rusageValid) {
        std::printf("  userSec       %14.3f\n", c.userSec);
        std::printf("  sysSec        %14.3f\n", c.sysSec);
        std::printf("  minorFaults   %14llu\n",
                    static_cast<unsigned long long>(c.minorFaults));
        std::printf("  majorFaults   %14llu\n",
                    static_cast<unsigned long long>(c.majorFaults));
        std::printf("  ctxSwitches   %11llu vol, %llu invol\n",
                    static_cast<unsigned long long>(c.volCtxSwitches),
                    static_cast<unsigned long long>(c.involCtxSwitches));
    }
    std::printf("  wallSec       %14.3f\n", c.wallSec);
}

int
cmdReport(const std::string &path, std::size_t topJobs)
{
    const SweepProfile p = loadProfile(path);
    const std::uint64_t total = p.phases.total();

    std::printf("profile:  %s\n", path.c_str());
    std::printf("sweep:    %s\n", p.sweep.c_str());
    std::printf("period:   %u usec (%.0f Hz)\n", p.periodUsec,
                p.periodUsec > 0 ? 1e6 / p.periodUsec : 0.0);
    if (p.loadAvg1 >= 0.0)
        std::printf("host:     %u cpus, loadavg1 %.2f\n", p.hostCpus,
                    p.loadAvg1);
    else
        std::printf("host:     %u cpus\n", p.hostCpus);
    std::printf("samples:  %llu attributed + %llu off-thread\n",
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(p.unattributed));
    std::printf("\n%-16s %10s %7s\n", "phase", "samples", "share");
    for (std::size_t i : sortedPhases(p.phases)) {
        if (p.phases.samples[i] == 0)
            continue;
        std::printf("%-16s %10llu %6.1f%%\n",
                    phaseName(static_cast<Phase>(i)),
                    static_cast<unsigned long long>(p.phases.samples[i]),
                    pct(p.phases.samples[i], total));
    }
    // Machine-parseable: CI greps this line against its floor.
    std::printf("\nnamed-phase attribution: %.1f%%\n",
                100.0 * p.attributionRatio());
    std::printf("\n");
    printCounters(p.counters);

    if (topJobs > 0 && !p.jobs.empty()) {
        std::vector<const JobProfile *> byCost;
        byCost.reserve(p.jobs.size());
        for (const JobProfile &j : p.jobs)
            byCost.push_back(&j);
        std::stable_sort(byCost.begin(), byCost.end(),
                         [](const JobProfile *a, const JobProfile *b) {
            return a->phases.total() > b->phases.total();
        });
        std::printf("\ntop jobs by samples (%zu of %zu):\n",
                    std::min(topJobs, byCost.size()), byCost.size());
        for (std::size_t i = 0;
             i < byCost.size() && i < topJobs; ++i) {
            const JobProfile &j = *byCost[i];
            const std::size_t hot = sortedPhases(j.phases)[0];
            std::printf("  %-28s %8llu  (top %s %.0f%%)\n",
                        j.id.c_str(),
                        static_cast<unsigned long long>(
                            j.phases.total()),
                        phaseName(static_cast<Phase>(hot)),
                        pct(j.phases.samples[hot], j.phases.total()));
        }
    }
    return 0;
}

int
cmdCollapse(const std::string &path)
{
    const SweepProfile p = loadProfile(path);
    // One synthetic frame under a common root: flamegraph.pl and
    // speedscope both accept "name;name count" collapsed stacks.
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
        if (p.phases.samples[i] == 0)
            continue;
        std::printf("persim;%s %llu\n",
                    phaseName(static_cast<Phase>(i)),
                    static_cast<unsigned long long>(
                        p.phases.samples[i]));
    }
    if (p.unattributed > 0)
        std::printf("persim;[off-thread] %llu\n",
                    static_cast<unsigned long long>(p.unattributed));
    return 0;
}

int
cmdDiff(const std::string &pathA, const std::string &pathB,
        double thresholdPp)
{
    const SweepProfile a = loadProfile(pathA);
    const SweepProfile b = loadProfile(pathB);
    const std::uint64_t totalA = a.phases.total();
    const std::uint64_t totalB = b.phases.total();

    std::printf("before:  %s (%llu samples)\n", pathA.c_str(),
                static_cast<unsigned long long>(totalA));
    std::printf("after:   %s (%llu samples)\n", pathB.c_str(),
                static_cast<unsigned long long>(totalB));
    std::printf("\n%-16s %8s %8s %8s\n", "phase", "before", "after",
                "delta");

    // Order by |share delta| so the table leads with what moved.
    std::array<std::size_t, kPhaseCount> order;
    for (std::size_t i = 0; i < kPhaseCount; ++i)
        order[i] = i;
    auto delta = [&](std::size_t i) {
        return pct(b.phases.samples[i], totalB) -
               pct(a.phases.samples[i], totalA);
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t x, std::size_t y) {
        return std::abs(delta(x)) > std::abs(delta(y));
    });

    bool exceeded = false;
    for (std::size_t i : order) {
        if (a.phases.samples[i] == 0 && b.phases.samples[i] == 0)
            continue;
        const double d = delta(i);
        const bool flag = std::abs(d) > thresholdPp;
        exceeded = exceeded || flag;
        std::printf("%-16s %7.1f%% %7.1f%% %+7.1fpp%s\n",
                    phaseName(static_cast<Phase>(i)),
                    pct(a.phases.samples[i], totalA),
                    pct(b.phases.samples[i], totalB), d,
                    flag ? "  <-- exceeds threshold" : "");
    }
    if (a.counters.rusageValid && b.counters.rusageValid)
        std::printf("\ncpuSec: %.3f -> %.3f (%+.1f%%)\n",
                    a.counters.userSec + a.counters.sysSec,
                    b.counters.userSec + b.counters.sysSec,
                    a.counters.userSec + a.counters.sysSec > 0.0
                        ? 100.0 * ((b.counters.userSec +
                                    b.counters.sysSec) /
                                       (a.counters.userSec +
                                        a.counters.sysSec) -
                                   1.0)
                        : 0.0);
    if (a.counters.perfValid && b.counters.perfValid)
        std::printf("cycles: %llu -> %llu, IPC %.2f -> %.2f\n",
                    static_cast<unsigned long long>(a.counters.cycles),
                    static_cast<unsigned long long>(b.counters.cycles),
                    a.counters.ipc(), b.counters.ipc());
    std::printf("\n%s (threshold %.1fpp)\n",
                exceeded ? "REGRESSION: phase shares moved"
                         : "OK: phase shares stable",
                thresholdPp);
    return exceeded ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
        std::strcmp(argv[1], "-h") == 0) {
        usage(argv[0]);
        return argc < 2 ? 2 : 0;
    }
    const std::string cmd = argv[1];
    try {
        if (cmd == "report") {
            if (argc < 3)
                fatal("report: missing FILE");
            std::size_t topJobs = 5;
            for (int i = 3; i < argc; ++i) {
                if (std::strcmp(argv[i], "--jobs") == 0 &&
                    i + 1 < argc)
                    topJobs = tools::parseNum("--jobs", argv[++i]);
                else
                    fatal("report: unknown option ", argv[i]);
            }
            return cmdReport(argv[2], topJobs);
        }
        if (cmd == "collapse") {
            if (argc != 3)
                fatal("collapse: expected exactly one FILE");
            return cmdCollapse(argv[2]);
        }
        if (cmd == "diff") {
            if (argc < 4)
                fatal("diff: expected two FILEs");
            double threshold = 2.0;
            for (int i = 4; i < argc; ++i) {
                if (std::strcmp(argv[i], "--threshold") == 0 &&
                    i + 1 < argc)
                    threshold = std::strtod(argv[++i], nullptr);
                else
                    fatal("diff: unknown option ", argv[i]);
            }
            return cmdDiff(argv[2], argv[3], threshold);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "persim_prof: %s\n", e.what());
        return 2;
    }
    usage(argv[0]);
    return 2;
}
