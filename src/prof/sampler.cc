#include "prof/sampler.hh"

#include <csignal>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>

#include <sys/time.h>

namespace persim::prof
{

namespace
{

/**
 * Registry of every ThreadBlock ever attached. Blocks are never freed
 * while the process lives (they are ~100 bytes each and a sweep
 * attaches one per worker thread), so aggregation from the monitor or
 * after run() can never chase a dangling pointer even after the
 * worker threads have exited.
 */
std::mutex gRegistryMutex;
std::deque<std::unique_ptr<detail::ThreadBlock>> gBlocks;

std::atomic<std::uint64_t> gUnattributed{0};
bool gRunning = false;
struct sigaction gOldAction;

/**
 * The counting step, shared by the SIGPROF handler and testTick().
 * Async-signal-safe: one TLS load, one bounds check, one lock-free
 * relaxed fetch_add.
 */
inline void
recordSample()
{
    if (detail::ThreadBlock *b = detail::tlBlock) {
        unsigned char p = b->phase.load(std::memory_order_relaxed);
        if (p >= kPhaseCount)
            p = 0;
        b->samples[p].fetch_add(1, std::memory_order_relaxed);
    } else {
        gUnattributed.fetch_add(1, std::memory_order_relaxed);
    }
}

extern "C" void
onSigprof(int)
{
    recordSample();
}

} // namespace

std::uint64_t
PhaseCounts::total() const
{
    std::uint64_t n = 0;
    for (std::uint64_t s : samples)
        n += s;
    return n;
}

std::uint64_t
PhaseCounts::attributed() const
{
    return total() - samples[static_cast<std::size_t>(Phase::Other)];
}

bool
Sampler::start(unsigned periodUsec)
{
    if (gRunning || periodUsec == 0)
        return false;
    attachThread();
    resetCounts();

    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onSigprof;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    if (sigaction(SIGPROF, &sa, &gOldAction) != 0)
        return false;

    itimerval tv;
    tv.it_interval.tv_sec = periodUsec / 1000000;
    tv.it_interval.tv_usec = periodUsec % 1000000;
    tv.it_value = tv.it_interval;
    if (setitimer(ITIMER_PROF, &tv, nullptr) != 0) {
        sigaction(SIGPROF, &gOldAction, nullptr);
        return false;
    }
    gRunning = true;
    return true;
}

void
Sampler::stop()
{
    if (!gRunning)
        return;
    itimerval off;
    std::memset(&off, 0, sizeof(off));
    setitimer(ITIMER_PROF, &off, nullptr);
    sigaction(SIGPROF, &gOldAction, nullptr);
    gRunning = false;
}

bool
Sampler::running()
{
    return gRunning;
}

void
Sampler::attachThread()
{
    if (detail::tlBlock)
        return;
    auto block = std::make_unique<detail::ThreadBlock>();
    detail::ThreadBlock *raw = block.get();
    {
        std::lock_guard<std::mutex> lock(gRegistryMutex);
        gBlocks.push_back(std::move(block));
    }
    detail::tlBlock = raw;
}

void
Sampler::detachThread()
{
    detail::tlBlock = nullptr;
}

PhaseCounts
Sampler::totalCounts()
{
    PhaseCounts out;
    std::lock_guard<std::mutex> lock(gRegistryMutex);
    for (const auto &b : gBlocks)
        for (std::size_t i = 0; i < kPhaseCount; ++i)
            out.samples[i] +=
                b->samples[i].load(std::memory_order_relaxed);
    return out;
}

std::uint64_t
Sampler::unattributedSamples()
{
    return gUnattributed.load(std::memory_order_relaxed);
}

void
Sampler::resetCounts()
{
    std::lock_guard<std::mutex> lock(gRegistryMutex);
    for (const auto &b : gBlocks)
        for (std::size_t i = 0; i < kPhaseCount; ++i)
            b->samples[i].store(0, std::memory_order_relaxed);
    gUnattributed.store(0, std::memory_order_relaxed);
}

void
Sampler::testTick()
{
    recordSample();
}

} // namespace persim::prof
