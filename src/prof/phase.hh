/**
 * @file
 * Host-time phase tags: the cheap half of the sampling profiler.
 *
 * Every hot component (event loop, L1 access, LLC bank, flush engine,
 * persist arbiter, NoC, NVM, workload gen, stat export) opens a
 * ScopedPhase at its entry points. A scope writes the component's
 * phase id into a thread-local slot and restores the enclosing phase
 * on exit — two relaxed byte stores when the profiler is attached to
 * the thread, one inlined thread-local load and a predictable branch
 * when it is not (the same guard discipline as trace::probing(); the
 * disabled cost is part of perfbench's unprofiled wall_s).
 *
 * The expensive half lives in prof/sampler.hh: a POSIX interval timer
 * whose async-signal-safe SIGPROF handler reads the tag and bumps a
 * per-thread, per-phase sample counter. Simulated time is never
 * touched — the profiler observes the host, exactly like
 * exp/telemetry, and therefore cannot perturb determinism.
 */

#ifndef PERSIM_PROF_PHASE_HH
#define PERSIM_PROF_PHASE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace persim::prof
{

/**
 * Simulator phases a host-time sample can be attributed to. "Other"
 * covers everything outside an instrumented scope (system
 * construction, JSON writing outside statExport, libc).
 */
enum class Phase : unsigned char
{
    Other = 0,
    /** System::run dispatch loop (event-queue machinery itself). */
    EventLoop,
    /** Workload generators (MemOp production, trace replay decode). */
    WorkloadGen,
    /** L1 access path: staged access, fills, downgrades, flush walks. */
    L1Access,
    /** LLC bank request/flush/writeback machinery. */
    LlcBank,
    /** FlushEngine bucket maintenance (add/remove/takeAll). */
    FlushEngine,
    /** Epoch arbiter: barriers, IDT, flush orchestration, persists. */
    PersistArbiter,
    /** Mesh route walk + link reservation. */
    Noc,
    /** Memory controller + NVRAM service. */
    Nvm,
    /** Stat-tree export and sweep JSON assembly. */
    StatExport,
};

/** Number of distinct Phase values (Other included). */
inline constexpr std::size_t kPhaseCount = 10;

/** Stable camelCase name of @p p; doubles as the JSON key. */
const char *phaseName(Phase p);

namespace detail
{

/**
 * Per-thread profiling block. The phase slot is written only by the
 * owning thread's scopes; the sample counters are written only by the
 * SIGPROF handler running *on* the owning thread. Relaxed atomics make
 * the cross-thread reads (live monitor, aggregation) well-defined, and
 * fetch_add/load are lock-free on every supported target, so the
 * handler stays async-signal-safe.
 */
struct ThreadBlock
{
    std::atomic<unsigned char> phase{0};
    std::atomic<std::uint64_t> samples[kPhaseCount] = {};
};

/**
 * The calling thread's block; nullptr until Sampler::attachThread.
 * constinit: read directly, not through a TLS init wrapper.
 */
extern constinit thread_local ThreadBlock *tlBlock;

} // namespace detail

/**
 * True when the calling thread has an attached profiling block (phase
 * scopes are live). Mirrors trace::probing().
 */
inline bool profiling() { return detail::tlBlock != nullptr; }

/**
 * RAII phase tag. Enter at a component's host-time entry point;
 * nested scopes restore the enclosing phase, so a bank handler that
 * calls into the flush engine attributes the inner samples to
 * FlushEngine and the rest to LlcBank.
 */
class ScopedPhase
{
  public:
    explicit ScopedPhase(Phase p)
    {
        if (detail::ThreadBlock *b = detail::tlBlock) [[unlikely]] {
            _block = b;
            _prev = b->phase.load(std::memory_order_relaxed);
            b->phase.store(static_cast<unsigned char>(p),
                           std::memory_order_relaxed);
        }
    }

    ~ScopedPhase()
    {
        if (_block) [[unlikely]]
            _block->phase.store(_prev, std::memory_order_relaxed);
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    detail::ThreadBlock *_block = nullptr;
    unsigned char _prev = 0;
};

} // namespace persim::prof

#endif // PERSIM_PROF_PHASE_HH
