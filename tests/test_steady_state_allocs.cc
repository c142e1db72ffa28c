/**
 * @file
 * Steady-state allocation regression test.
 *
 * Replaces the global operator new with a per-thread counter (as
 * perfbench/probe.cc does) and runs two cells through model::System,
 * once at N ops per thread and once at 4N. Warm-up growth (pools,
 * rings and tables reaching their working size) is the same in both
 * runs, so the allocations made inside run() over the extra 3N ops
 * measure what the simulator allocates per simulated op once warm. It
 * must stay under 1% of those ops. A second check counts the blocks
 * the callback arena takes at paper scale: requests to the memory
 * controllers wait in the controllers' pools, so no closure on the NVM
 * path spills. This file is its own executable because the operator
 * replacement is program-wide.
 */

#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "exp/figures.hh"
#include "exp/spec.hh"
#include "model/system.hh"
#include "nvm/memory_controller.hh"
#include "sim/inline_callback.hh"

namespace
{

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

namespace persim
{
namespace
{

constexpr unsigned kCores = 4;

struct CellRun
{
    std::uint64_t allocs = 0;
    std::uint64_t ops = 0;
};

/** Cell @p id of figure @p figure, or nullopt (and a failure). */
std::optional<exp::ExperimentSpec>
findCell(int figure, const std::string &id, std::uint64_t ops,
         unsigned cores)
{
    const exp::Sweep sweep = exp::figureSweep(figure, ops, cores, 1);
    for (const exp::ExperimentSpec &s : sweep.jobs) {
        if (s.id() == id)
            return s;
    }
    ADD_FAILURE() << "no cell " << id << " in figure " << figure;
    return std::nullopt;
}

/** Run @p id of figure @p figure at @p ops per thread, counting allocs
 * made inside System::run() only. */
CellRun
runCell(int figure, const std::string &id, std::uint64_t ops)
{
    const auto spec = findCell(figure, id, ops, kCores);
    if (!spec)
        return {};
    model::System sys(spec->toSystemConfig());
    auto workloads = spec->buildWorkloads();
    for (std::size_t t = 0; t < workloads.size(); ++t)
        sys.setWorkload(static_cast<CoreId>(t), std::move(workloads[t]));
    tlAllocs = 0;
    tlCountAllocs = true;
    const model::SimResult r = sys.run();
    tlCountAllocs = false;
    EXPECT_TRUE(r.completed) << id;
    EXPECT_TRUE(r.violations.empty()) << id;
    CellRun run;
    run.allocs = tlAllocs;
    for (CoreId c = 0; c < kCores; ++c)
        run.ops += sys.core(c).committedOps();
    return run;
}

void
expectFlatAllocs(int figure, const std::string &id, std::uint64_t n)
{
    const CellRun small = runCell(figure, id, n);
    const CellRun large = runCell(figure, id, 4 * n);
    ASSERT_GT(large.ops, small.ops) << id;
    const std::uint64_t extraOps = large.ops - small.ops;
    const std::uint64_t extraAllocs =
        large.allocs > small.allocs ? large.allocs - small.allocs : 0;
    EXPECT_LE(extraAllocs * 100, extraOps)
        << id << ": " << small.allocs << " allocs in run() at " << n
        << " ops/thread (" << small.ops << " ops), " << large.allocs
        << " at " << 4 * n << " (" << large.ops << " ops)";
}

TEST(SteadyStateAllocs, Fig11QueueLbPlusPlus)
{
    expectFlatAllocs(11, "queue/LB++/s1", 100);
}

TEST(SteadyStateAllocs, Fig14CannealLb)
{
    expectFlatAllocs(14, "canneal/LB/s1", 1000);
}

TEST(SteadyStateAllocs, NvmPathTakesNoArenaBlocks)
{
    // The arena is per thread and never returns blocks, so count on a
    // fresh thread. A request captured by value (its callback inside)
    // spills twice, at delivery and at completion: this cell then
    // takes about 6,000 blocks.
    std::uint64_t blocks = 0;
    std::thread worker([&] {
        const auto spec = findCell(14, "radix/LB/s1", 2500, 32);
        if (!spec)
            return;
        model::System sys(spec->toSystemConfig());
        auto workloads = spec->buildWorkloads();
        for (std::size_t t = 0; t < workloads.size(); ++t)
            sys.setWorkload(static_cast<CoreId>(t),
                            std::move(workloads[t]));
        const std::uint64_t before =
            detail::CallbackArena::blocksAllocated();
        const model::SimResult r = sys.run();
        blocks = detail::CallbackArena::blocksAllocated() - before;
        EXPECT_TRUE(r.completed);
        EXPECT_TRUE(r.violations.empty());
        for (unsigned j = 0; j < sys.config().numMemControllers; ++j) {
            EXPECT_EQ(sys.mc(j).writeReqs().live(), 0u) << "mc " << j;
            EXPECT_EQ(sys.mc(j).readReqs().live(), 0u) << "mc " << j;
        }
    });
    worker.join();
    EXPECT_LE(blocks, 32u);
}

} // namespace
} // namespace persim
