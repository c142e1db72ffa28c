/**
 * @file
 * The sampling half of the host-time profiler: a POSIX interval timer
 * (ITIMER_PROF / SIGPROF) whose handler attributes each tick to the
 * interrupted thread's current phase tag (prof/phase.hh).
 *
 * Safety rules (see DESIGN.md §3d):
 *   - the handler touches only the interrupted thread's own
 *     ThreadBlock (lock-free relaxed atomics) or one global atomic
 *     for unattached threads — no locks, no allocation, no libc I/O;
 *   - thread blocks are allocated by attachThread() on the profiled
 *     thread *before* any sample can land on it, and are owned by a
 *     process-lifetime registry so aggregation never races thread
 *     exit;
 *   - ITIMER_PROF counts process CPU time and the kernel delivers
 *     SIGPROF to a currently running thread, so a multi-worker sweep
 *     gets a statistically fair per-thread breakdown with one timer
 *     (the classic profil(3)/gprof discipline — which also means the
 *     sampler must not run in a -pg build, where gprof owns SIGPROF).
 *
 * Tests drive the same counting step deterministically through
 * testTick() instead of a timer.
 */

#ifndef PERSIM_PROF_SAMPLER_HH
#define PERSIM_PROF_SAMPLER_HH

#include <array>
#include <cstdint>

#include "prof/phase.hh"

namespace persim::prof
{

/** Per-phase sample counts (index by static_cast<size_t>(Phase)). */
struct PhaseCounts
{
    std::array<std::uint64_t, kPhaseCount> samples{};

    std::uint64_t total() const;

    /** Samples attributed to a named phase (everything but Other). */
    std::uint64_t attributed() const;

    std::uint64_t
    operator[](Phase p) const
    {
        return samples[static_cast<std::size_t>(p)];
    }
};

/**
 * Process-wide sampler control. All static: there is at most one
 * interval timer per process, so a second concurrent start() fails.
 */
class Sampler
{
  public:
    /**
     * Install the SIGPROF handler and arm ITIMER_PROF at @p periodUsec
     * microseconds of process CPU time per sample. Also attaches the
     * calling thread and zeroes all counters. Returns false (and does
     * nothing) when a sampler is already running or the timer cannot
     * be armed.
     */
    static bool start(unsigned periodUsec);

    /** Disarm the timer and restore the previous SIGPROF action. */
    static void stop();

    static bool running();

    /**
     * Give the calling thread a profiling block (idempotent), making
     * its phase scopes live. Must run on the profiled thread before
     * work starts; the SIGPROF handler null-checks, so a thread that
     * never attaches just accrues unattributed samples.
     */
    static void attachThread();

    /** Make the calling thread's scopes inert again (block persists). */
    static void detachThread();

    /** Sum over every thread attached since the last reset/start. */
    static PhaseCounts totalCounts();

    /** Samples that landed on threads without a block since start. */
    static std::uint64_t unattributedSamples();

    /** Zero every registered block and the unattributed counter. */
    static void resetCounts();

    /**
     * Deterministic test hook: run exactly the SIGPROF handler's
     * counting step on the calling thread, as if a timer tick had
     * landed right now.
     */
    static void testTick();
};

} // namespace persim::prof

#endif // PERSIM_PROF_SAMPLER_HH
