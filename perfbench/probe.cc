/**
 * @file
 * perfbench_probe — the benchmark's in-process view of the simulator.
 *
 * Does what persim_sweep cannot, through the simulator's public entry
 * points only (exp::figureSweep, ExperimentSpec::toSystemConfig and
 * buildWorkloads, model::System), and prints one compact JSON object on
 * stdout. The grids themselves are timed by running persim_sweep.
 *
 *   setup  build every cell's System and workloads --reps times without
 *          running them; report each pass's per-cell construction times
 *   cells  run every cell through System directly, once with the
 *          ordering checker on and once off; report both run() times
 *          and the heap allocations made inside run() with it on
 *   clock  the host core's clock in GHz, fastest of --reps samples
 *   info   build provenance (build type, IPO, compiler)
 *
 * Grid flags: --figure N [--only PATTERN] [--ops N] [--cores N]
 * [--seed N] [--jobs N]; setup and clock also take --reps N.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "exp/figures.hh"
#include "exp/json.hh"
#include "exp/spec.hh"
#include "model/system.hh"

using namespace persim;

namespace
{

// Heap allocations made by this thread while tlCountAllocs is set. The
// probe sets it around System::run only, so construction and stat
// export do not count.
thread_local bool tlCountAllocs = false;
thread_local std::uint64_t tlAllocs = 0;

void *
countedAlloc(std::size_t n, std::size_t align)
{
    if (tlCountAllocs)
        ++tlAllocs;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(n ? n : 1)
                  : std::aligned_alloc(align, (n + align - 1) / align *
                                                  align);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n, 0); }
void *operator new[](std::size_t n) { return countedAlloc(n, 0); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

struct Args
{
    std::string mode;
    int figure = 0;
    std::string only;
    std::uint64_t ops = 0;
    unsigned cores = 32;
    std::uint64_t seed = 1;
    unsigned jobs = 1;
    unsigned reps = 1;
};

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "perfbench_probe: %s\n", msg.c_str());
    std::exit(2);
}

std::uint64_t
parseNum(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || v[0] == '-')
        usageError(flag + " wants a non-negative integer, got '" + v +
                   "'");
    return n;
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usageError("usage: perfbench_probe setup|cells|clock|info "
                   "[flags]");
    Args a;
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usageError(flag + " needs a value");
        const std::string v = argv[++i];
        if (flag == "--figure")
            a.figure = static_cast<int>(parseNum(flag, v));
        else if (flag == "--only")
            a.only = v;
        else if (flag == "--ops")
            a.ops = parseNum(flag, v);
        else if (flag == "--cores")
            a.cores = static_cast<unsigned>(parseNum(flag, v));
        else if (flag == "--seed")
            a.seed = parseNum(flag, v);
        else if (flag == "--jobs")
            a.jobs = static_cast<unsigned>(parseNum(flag, v));
        else if (flag == "--reps")
            a.reps = static_cast<unsigned>(parseNum(flag, v));
        else
            usageError("unknown flag '" + flag + "'");
    }
    if (a.jobs == 0)
        a.jobs = 1;
    return a;
}

/** The grid persim_sweep --figure/--only/--ops/--cores/--seed runs. */
exp::Sweep
gridFor(const Args &a)
{
    exp::Sweep sweep = exp::figureSweep(a.figure, a.ops, a.cores, a.seed);
    if (!a.only.empty()) {
        std::erase_if(sweep.jobs, [&](const exp::ExperimentSpec &s) {
            return s.id().find(a.only) == std::string::npos;
        });
    }
    if (sweep.jobs.empty())
        usageError("the grid is empty");
    return sweep;
}

exp::JsonValue
resultToJson(const model::SimResult &r)
{
    exp::JsonValue out = exp::JsonValue::object();
    out["completed"] = exp::JsonValue(r.completed);
    out["deadlocked"] = exp::JsonValue(r.deadlocked);
    out["timedOut"] = exp::JsonValue(r.timedOut);
    out["violations"] = exp::JsonValue(r.violations.size());
    return out;
}

void
runSetup(const Args &a)
{
    const exp::Sweep sweep = gridFor(a);
    exp::JsonValue passes = exp::JsonValue::array();
    for (unsigned r = 0; r < a.reps; ++r) {
        exp::JsonValue cellsMs = exp::JsonValue::array();
        for (const exp::ExperimentSpec &spec : sweep.jobs) {
            const auto start = Clock::now();
            model::System sys(spec.toSystemConfig());
            auto workloads = spec.buildWorkloads();
            for (std::size_t t = 0; t < workloads.size(); ++t)
                sys.setWorkload(static_cast<CoreId>(t),
                                std::move(workloads[t]));
            cellsMs.push(exp::JsonValue(msSince(start)));
        }
        passes.push(std::move(cellsMs));
    }
    exp::JsonValue out = exp::JsonValue::object();
    out["cells"] = exp::JsonValue(sweep.jobs.size());
    out["passesMs"] = std::move(passes);
    out.write(std::cout, 0);
    std::cout << '\n';
}

struct CellRun
{
    model::SimResult result;
    double runMs = 0.0;
    std::uint64_t allocs = 0;
    std::string error;
};

CellRun
runCell(const exp::ExperimentSpec &spec, bool check)
{
    CellRun cell;
    try {
        model::SystemConfig cfg = spec.toSystemConfig();
        cfg.checkOrdering = check;
        model::System sys(cfg);
        auto workloads = spec.buildWorkloads();
        for (std::size_t t = 0; t < workloads.size(); ++t)
            sys.setWorkload(static_cast<CoreId>(t),
                            std::move(workloads[t]));
        const auto start = Clock::now();
        tlAllocs = 0;
        tlCountAllocs = true;
        cell.result = sys.run();
        tlCountAllocs = false;
        cell.runMs = msSince(start);
        cell.allocs = tlAllocs;
    } catch (const std::exception &e) {
        tlCountAllocs = false;
        cell.error = e.what();
    }
    return cell;
}

void
runCells(const Args &a)
{
    const exp::Sweep sweep = gridFor(a);
    std::vector<CellRun> on(sweep.jobs.size());
    std::vector<CellRun> off(sweep.jobs.size());
    std::atomic<std::size_t> next{0};
    // Each cell runs with the checker on and off back to back, in
    // alternating order, so host speed drifts cancel in the pair.
    auto worker = [&] {
        for (std::size_t i = next++; i < on.size(); i = next++) {
            const bool onFirst = i % 2 == 0;
            CellRun first = runCell(sweep.jobs[i], onFirst);
            CellRun second = runCell(sweep.jobs[i], !onFirst);
            on[i] = std::move(onFirst ? first : second);
            off[i] = std::move(onFirst ? second : first);
        }
    };
    std::vector<std::thread> threads;
    for (unsigned w = 1; w < a.jobs; ++w)
        threads.emplace_back(worker);
    worker();
    for (std::thread &t : threads)
        t.join();

    exp::JsonValue jobs = exp::JsonValue::array();
    for (std::size_t i = 0; i < on.size(); ++i) {
        exp::JsonValue j = resultToJson(on[i].result);
        j["id"] = exp::JsonValue(sweep.jobs[i].id());
        j["completed"] = exp::JsonValue(on[i].result.completed &&
                                        off[i].result.completed);
        j["ok"] = exp::JsonValue(on[i].error.empty() &&
                                 off[i].error.empty());
        j["error"] = exp::JsonValue(on[i].error + off[i].error);
        j["runMs"] = exp::JsonValue(on[i].runMs);
        j["runMsNoCheck"] = exp::JsonValue(off[i].runMs);
        j["allocs"] = exp::JsonValue(on[i].allocs);
        jobs.push(std::move(j));
    }
    exp::JsonValue out = exp::JsonValue::object();
    out["workers"] = exp::JsonValue(a.jobs);
    out["jobs"] = std::move(jobs);
    out.write(std::cout, 0);
    std::cout << '\n';
}

/**
 * The host core's clock, from the fastest of --reps timed runs of a
 * dependent multiply-add chain. Each step is one imul (3 cycles) and one
 * add (1 cycle) on x86-64, whatever else shares the core, so the step
 * time follows the clock and not cache or SMT contention.
 */
void
runClock(const Args &a)
{
    constexpr std::uint64_t kSteps = 200000;
    constexpr double kCyclesPerStep = 4.0;
    std::uint64_t x = 1;
    double bestNs = 0.0;
    for (unsigned r = 0; r < a.reps; ++r) {
        const auto start = Clock::now();
        for (std::uint64_t i = 0; i < kSteps; ++i)
            x = x * 0x9E3779B97F4A7C15ull + 1;
        const double ns = msSince(start) * 1e6 / kSteps;
        if (r == 0 || ns < bestNs)
            bestNs = ns;
    }
    exp::JsonValue out = exp::JsonValue::object();
    out["ghz"] = exp::JsonValue(kCyclesPerStep / bestNs);
    // Printed so the chain cannot be optimised away.
    out["chain"] = exp::JsonValue(x & 0xff);
    out.write(std::cout, 0);
    std::cout << '\n';
}

void
printInfo()
{
    exp::JsonValue out = exp::JsonValue::object();
    out["buildType"] = exp::JsonValue(PERFBENCH_BUILD_TYPE);
    out["ipo"] = exp::JsonValue(static_cast<bool>(PERFBENCH_IPO));
    out["compiler"] = exp::JsonValue(__VERSION__);
    out.write(std::cout, 0);
    std::cout << '\n';
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    try {
        if (a.mode == "info")
            printInfo();
        else if (a.mode == "setup")
            runSetup(a);
        else if (a.mode == "cells")
            runCells(a);
        else if (a.mode == "clock")
            runClock(a);
        else
            usageError("unknown mode '" + a.mode + "'");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_probe: %s\n", e.what());
        return 1;
    }
    return 0;
}
