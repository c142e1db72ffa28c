/**
 * @file
 * Structured observability probes: duration spans and counter samples,
 * captured by a per-thread Recorder and exported by the
 * Chrome/Perfetto writer in src/exp.
 *
 * Every span carries a category (kCategories); a Recorder captures the
 * categories it was built with (persim_sweep --trace-flags).
 *
 * Probes compile in but are near-free when no Recorder is attached:
 * every probe (trace::span, trace::counter, trace::probing) starts with
 * an inlined thread-local load and branch, and the span is only built
 * when a Recorder is attached to the thread. perfbench's untraced
 * wall_s includes that disabled-path cost.
 */

#ifndef PERSIM_SIM_TRACE_HH
#define PERSIM_SIM_TRACE_HH

#include <array>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace persim
{

namespace trace
{

/**
 * Every span category. A Recorder's flag list names a subset of these,
 * or "all"; any other name is a fatal error.
 */
inline constexpr std::array<std::string_view, 6> kCategories = {
    "Epoch", "Flush", "Exec", "Mshr", "NvmQ", "Conflict"};

/**
 * One completed duration span on a component track.
 *
 * Spans are recorded at close time, when both endpoints are known:
 * an epoch span opens when the epoch is created in the EpochTable and
 * closes at PersistCMP; an MSHR span covers one busy episode; an NVM
 * write-queue span covers one non-empty residency episode; a conflict
 * span covers a conflicting request's wait. Overlapping spans on one
 * track are legal (epochs of one core overlap by design — that overlap
 * IS the paper's claim); the exporter splays them onto parallel lanes
 * so Perfetto renders them as overlapping bars.
 */
struct Span
{
    Tick begin;
    Tick end;
    /** Component track, e.g. "persist.arbiter[3]" or "l1[0]". */
    std::string track;
    /** Span label, e.g. "epoch 42". */
    std::string name;
    /** Category (one of kCategories); gates the span. */
    std::string cat;
};

/** One sample on a named counter track (rendered as ph:"C"). */
struct Counter
{
    Tick tick;
    /** Counter track name, e.g. "epochsInFlight". */
    std::string track;
    double value;
};

/**
 * In-memory capture of spans and counter samples for structured export
 * (the Chrome-tracing exporter in src/exp).
 *
 * A Recorder is attached to the *current thread*: every simulation runs
 * its event loop on one thread, so a per-thread recorder captures
 * exactly one System's event stream even when a sweep runs many
 * Systems concurrently.
 */
class Recorder
{
  public:
    /**
     * @param flagsCsv Comma-separated categories (kCategories), or
     *        "all". An unknown category is a fatal error naming the
     *        known set.
     * @param counterWindow Interval-stat sampling window in ticks; 0
     *        disables the windowed sampler (System::run consults this
     *        through trace::current()).
     */
    explicit Recorder(const std::string &flagsCsv,
                      Tick counterWindow = 0);

    bool wants(const char *flag) const;

    /** Record a completed span if its category is wanted. */
    void
    addSpan(Span s)
    {
        if (wants(s.cat.c_str()))
            _spans.push_back(std::move(s));
    }

    void addCounter(Counter c) { _counters.push_back(std::move(c)); }

    const std::vector<Span> &spans() const { return _spans; }
    const std::vector<Counter> &counters() const { return _counters; }

    Tick counterWindow() const { return _counterWindow; }

  private:
    bool _all = false;
    std::vector<std::string> _flags;
    std::vector<Span> _spans;
    std::vector<Counter> _counters;
    Tick _counterWindow = 0;
};

namespace detail
{
/**
 * The current thread's recorder; read inline by every probe. constinit
 * lets other TUs read the slot directly instead of through the
 * compiler's TLS init wrapper.
 */
extern constinit thread_local Recorder *tlRecorder;
} // namespace detail

/** Attach @p r to the current thread (replacing any previous one). */
void attachRecorder(Recorder *r);

/** Detach the current thread's recorder (no-op when none attached). */
void detachRecorder();

/** The recorder attached to the current thread; nullptr when none. */
inline Recorder *current() { return detail::tlRecorder; }

/**
 * True when a recorder is capturing on this thread. Probe call sites
 * that build span names (string concatenation) must guard on this so
 * the disabled path stays a load-test-branch.
 */
inline bool probing() { return detail::tlRecorder != nullptr; }

/**
 * Record a completed duration span [begin, end] on @p track.
 * No-op (one inlined branch) unless a recorder is attached.
 */
inline void
span(Tick begin, Tick end, const std::string &track, std::string name,
     const char *cat)
{
    if (Recorder *r = detail::tlRecorder) [[unlikely]]
        r->addSpan(Span{begin, end, track, std::move(name), cat});
}

/** Record one counter sample. No-op unless a recorder is attached. */
inline void
counter(Tick tick, const char *track, double value)
{
    if (Recorder *r = detail::tlRecorder) [[unlikely]]
        r->addCounter(Counter{tick, track, value});
}

} // namespace trace

} // namespace persim

#endif // PERSIM_SIM_TRACE_HH
