/**
 * @file
 * Parallel sweep execution.
 *
 * Every Persimmon System is single-threaded and deterministic, so a
 * sweep is embarrassingly parallel: the runner hands each job its own
 * System on one worker thread and collects results by job index. The
 * output is therefore byte-identical no matter how many workers run it
 * or how the jobs interleave.
 *
 * Scheduling is one shared job index: each worker takes the next grid
 * index until the grid runs out, so a one-worker sweep runs (and
 * reports) its cells in grid order and the cells running at one time
 * are adjacent in the grid. Simulated cells vary wildly in cost (a
 * 10K-epoch BSP run is orders of magnitude longer than an NP
 * baseline), so taking jobs one at a time — not static partitioning —
 * is what keeps all cores busy until the tail.
 *
 * Jobs are isolated: an exception inside one job (bad config, panic,
 * fatal, failed simAssert — all of which throw) is caught, retried up
 * to maxAttempts times with bounded exponential backoff, and recorded
 * as a failed outcome; it never takes down the sweep. The attempt
 * loop in SweepRunner::run is the only way a cell runs; each attempt
 * is one runJob call on a worker thread.
 *
 * The watchdog (RunnerOptions::jobTimeoutMs) covers cells that never
 * throw: a polling thread tracks every attempt's deadline and flips a
 * per-job cancel flag that System::run polls, so a runaway cell
 * becomes a failed outcome (error "timeout") instead of a stuck
 * sweep. The same thread prints the --progress line; it runs only
 * when one of the two is on. A hang with no watchdog ends only by an
 * external kill of the process.
 *
 * Nothing survives the death of the process itself (OOM kill, ctrl-C,
 * reboot): a killed sweep is simply rerun. The paper grids finish in
 * minutes, so a resume path would guard little.
 */

#ifndef PERSIM_EXP_RUNNER_HH
#define PERSIM_EXP_RUNNER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exp/json.hh"
#include "exp/spec.hh"
#include "exp/telemetry.hh"
#include "model/system.hh"
#include "prof/profile.hh"
#include "sim/trace.hh"

namespace persim::exp
{

/** Result of running one ExperimentSpec (successfully or not). */
struct JobOutcome
{
    std::size_t index = 0;
    ExperimentSpec spec;

    /** The job ran to the end without throwing. */
    bool ok = false;

    /** Attempts used (> 1 means at least one retry happened). */
    unsigned attempts = 0;

    /** Exception text of the last failed attempt (failed jobs only). */
    std::string error;

    /**
     * The last attempt was cancelled by the watchdog (error is
     * "timeout"). Never serialized on its own — the error string is
     * the deterministic record; this flag feeds telemetry's TimedOut
     * state.
     */
    bool timedOut = false;

    model::SimResult result;

    /**
     * Structured StatGroup tree (statGroupsToJson); null when the run
     * kept no tree (RunnerOptions::keepStatTrees off) or failed.
     */
    JsonValue statTree;

    /**
     * Host wall-clock of the last attempt, milliseconds. Never included
     * in toJson(): deterministic output must not depend on the host.
     */
    double wallMs = 0.0;

    /**
     * Deterministic serialization (spec, status, result, stats).
     * Throws SimFatal when @p includeStats asks for the tree of an ok
     * cell that kept none, rather than write a document without it.
     */
    JsonValue toJson(bool includeStats = true) const;
};

/**
 * Run one attempt of @p spec synchronously on the calling thread.
 * Retries belong to SweepRunner::run.
 *
 * @param gridIndex Grid index of the job, used by the PERSIM_FAULT
 *                  injection hook (exp/fault.hh). SIZE_MAX (the
 *                  default) never matches an injection.
 * @param cancel    Watchdog flag handed to System::run, which throws
 *                  SimCancelled once it is set; SweepRunner::run then
 *                  records the failed attempt as "timeout". May be
 *                  nullptr.
 * @param keepStatTree Export the System's stat tree into
 *                  JobOutcome::statTree; off leaves it null and skips
 *                  the export (about 0.6 MB of heap per kept cell).
 */
JobOutcome runJob(const ExperimentSpec &spec,
                  std::size_t gridIndex = SIZE_MAX,
                  const std::atomic<bool> *cancel = nullptr,
                  bool keepStatTree = true);

/**
 * Sleep before the @p retry'th retry (1-based): the backoff starts at
 * 100 ms and doubles per retry up to a 5 s cap. An immediate
 * re-attempt would just re-hit whatever transient host condition (OOM
 * pressure, fd exhaustion) failed the last one.
 */
unsigned retryBackoffMs(unsigned retry);

/**
 * Run fn(jobIndex, workerId) for every index in [0, count) on
 * @p workers threads; a single worker runs on the calling thread. Each
 * worker takes the next unclaimed index, so one worker runs them in
 * order.
 */
void runJobs(unsigned workers, std::size_t count,
             const std::function<void(std::size_t jobIndex,
                                      unsigned workerId)> &fn);

/** Sweep execution options. */
struct RunnerOptions
{
    /** Worker threads (1 = serial). */
    unsigned jobs = 1;

    /**
     * Attempts per job (>= 1; retries happen only after a failure and
     * back off per retryBackoffMs()).
     */
    unsigned maxAttempts = 2;

    /**
     * Per-job wall-clock deadline in milliseconds, enforced per
     * attempt by a monitor thread; 0 disables the watchdog. A
     * timed-out attempt is recorded exactly like a thrown exception
     * (error "timeout", telemetry state "timed-out") and retried up
     * to maxAttempts. Enforcement is cooperative: System::run polls
     * the cancel flag between events.
     */
    unsigned jobTimeoutMs = 0;

    /**
     * Keep each cell's stat tree in its outcome. Turn it off only
     * when nothing reads the trees: a document without stats whose
     * figure table reads only SimResult. Off, memory stays flat as
     * cells finish instead of growing by a tree per cell.
     */
    bool keepStatTrees = true;

    /** Print "[done/total] id status" lines to stderr as jobs finish. */
    bool progress = true;

    /**
     * When non-empty: capture these span categories ("Epoch,Flush" or
     * "all"; see trace::kCategories) for the job whose spec id matches
     * traceJobId (or the first job when traceJobId is empty). Recorded
     * spans and counters are available from recorder() after run().
     */
    std::string traceFlags;
    std::string traceJobId;

    /**
     * Interval-stat sampling window (ticks) for the traced job; 0
     * disables the windowed sampler. Only meaningful with traceFlags
     * (the sampler hangs off the attached Recorder).
     */
    Tick counterWindow = 0;

    /**
     * Live telemetry: every 2 s, print a one-line state summary
     * (queued/running/retrying/done/failed counts, events/sec, RSS) to
     * stderr while the sweep runs, in addition to per-job progress.
     */
    bool liveProgress = false;

    /**
     * Host-time profiling: arm the SIGPROF phase sampler for the whole
     * sweep. The phase samples land in profile(); the deterministic
     * sweep JSON is untouched. Do not combine with -pg builds (gprof
     * owns ITIMER_PROF there).
     */
    bool prof = false;
};

/** Runs a Sweep and owns the optional trace capture. */
class SweepRunner
{
  public:
    explicit SweepRunner(RunnerOptions opts) : _opts(std::move(opts)) {}

    /** Run every job; outcomes are ordered by job index. */
    std::vector<JobOutcome> run(const Sweep &sweep);

    /**
     * The trace capture of the last run() — records, duration spans,
     * counter samples — for chromeTraceJson; nullptr before run(),
     * empty when traceFlags was empty.
     */
    const trace::Recorder *recorder() const { return _recorder.get(); }

    /** Host-side telemetry of the last run() (--timing-out). */
    const SweepTelemetry &telemetry() const { return _telemetry; }

    /**
     * Host-time profile of the last run() (--prof-out document);
     * empty unless RunnerOptions::prof was set.
     */
    const prof::SweepProfile &profile() const { return _profile; }

  private:
    RunnerOptions _opts;
    std::unique_ptr<trace::Recorder> _recorder;
    SweepTelemetry _telemetry;
    prof::SweepProfile _profile;
};

/**
 * Deterministic JSON document for a completed sweep: options-independent
 * (no worker count, no wall clock), so serial and parallel runs of the
 * same Sweep produce identical bytes.
 */
JsonValue sweepToJson(const Sweep &sweep,
                      const std::vector<JobOutcome> &outcomes,
                      bool includeStats = true);

} // namespace persim::exp

#endif // PERSIM_EXP_RUNNER_HH
