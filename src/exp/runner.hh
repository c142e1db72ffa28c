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
 * Scheduling is work-stealing: jobs are dealt round-robin into
 * per-worker deques; a worker pops from the back of its own deque and,
 * when empty, steals from the front of a victim's. Simulated cells vary
 * wildly in cost (a 10K-epoch BSP run is orders of magnitude longer
 * than an NP baseline), so stealing — not static partitioning — is
 * what keeps all cores busy until the tail.
 *
 * Jobs are isolated: an exception inside one job (bad config, panic,
 * bug) is caught, retried up to maxAttempts times with bounded
 * exponential backoff, and recorded as a failed outcome; it never
 * takes down the sweep. One attempt loop in SweepRunner::run serves
 * in-process and sandboxed cells alike; each attempt is one runJob or
 * runJobSandboxed call. Two optional layers harden that guarantee
 * against faults exceptions cannot catch:
 *
 *   - Watchdog (RunnerOptions::jobTimeoutMs): a polling thread tracks
 *     every attempt's deadline and flips a per-job cancel flag that
 *     System::run polls, so a runaway cell becomes a failed outcome
 *     (error "timeout") instead of a stuck sweep. The same thread
 *     prints the --progress line; it runs only when one of the two is
 *     on.
 *   - Sandbox isolation (RunnerOptions::isolate): each job forks into
 *     a child that streams its JobOutcome JSON back over a pipe, so a
 *     segfault/abort/OOM kills one cell (exit status and signal name
 *     recorded) instead of the whole process. The watchdog SIGKILLs
 *     over-deadline children.
 *
 * With RunnerOptions::journal set, every completed cell is appended
 * to a crash-safe journal (one fsync'd JSON line per job) so an
 * interrupted sweep can resume without re-running finished cells
 * (exp/journal.hh, persim_sweep --resume).
 */

#ifndef PERSIM_EXP_RUNNER_HH
#define PERSIM_EXP_RUNNER_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
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

class SweepJournal;

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

    /**
     * Sandbox child's exit status (isolated jobs that exited; -1
     * otherwise) and terminating signal name ("SIGSEGV", "" = none).
     * Serialized only for failed jobs, so a green isolated sweep is
     * byte-identical to an in-process one.
     */
    int exitCode = -1;
    std::string termSignal;

    model::SimResult result;

    /** Structured StatGroup tree (statGroupsToJson). */
    JsonValue statTree;

    /**
     * Host wall-clock of the last attempt, milliseconds. Never included
     * in toJson(): deterministic output must not depend on the host.
     */
    double wallMs = 0.0;

    /** Deterministic serialization (spec, status, result, stats). */
    JsonValue toJson(bool includeStats = true) const;
};

/**
 * Run one attempt of @p spec synchronously on the calling thread.
 * Retries belong to SweepRunner::run; a sandbox child calls this too.
 *
 * @param gridIndex Grid index of the job, used by the PERSIM_FAULT
 *                  injection hook (exp/fault.hh). SIZE_MAX (the
 *                  default) never matches an injection.
 * @param cancel    Watchdog flag handed to System::run, which throws
 *                  SimCancelled once it is set; SweepRunner::run then
 *                  records the failed attempt as "timeout". May be
 *                  nullptr.
 */
JobOutcome runJob(const ExperimentSpec &spec,
                  std::size_t gridIndex = SIZE_MAX,
                  const std::atomic<bool> *cancel = nullptr);

/**
 * Sleep before the @p retry'th retry (1-based): the backoff starts at
 * 100 ms and doubles per retry up to a 5 s cap. An immediate
 * re-attempt would just re-hit whatever transient host condition (OOM
 * pressure, fd exhaustion) failed the last one.
 */
unsigned retryBackoffMs(unsigned retry);

/**
 * Generic work-stealing index pool: runs fn(jobIndex) for every index
 * in [0, numJobs) across numWorkers threads. Exposed for tests; the
 * deques are mutex-guarded (contention is negligible next to the
 * milliseconds-to-minutes cost of one simulation job).
 */
class WorkStealingPool
{
  public:
    WorkStealingPool(unsigned numWorkers, std::size_t numJobs);

    /** Run all jobs; returns when every index has been executed. */
    void run(const std::function<void(std::size_t jobIndex,
                                      unsigned workerId)> &fn);

    /** Jobs executed by each worker (after run(); for tests/telemetry). */
    const std::vector<std::uint64_t> &executedPerWorker() const
    {
        return _executed;
    }

    /** Successful steals per worker (after run()). */
    const std::vector<std::uint64_t> &stealsPerWorker() const
    {
        return _steals;
    }

  private:
    struct WorkerDeque
    {
        std::mutex mutex;
        std::deque<std::size_t> jobs;
    };

    bool popOwn(unsigned worker, std::size_t &out);
    bool stealFrom(unsigned victim, std::size_t &out);

    unsigned _numWorkers;
    std::vector<std::unique_ptr<WorkerDeque>> _deques;
    std::vector<std::uint64_t> _executed;
    std::vector<std::uint64_t> _steals;
};

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
     * to maxAttempts. In-process enforcement is cooperative
     * (System::run polls between events); with isolate the child is
     * SIGKILLed, which also contains hangs inside a single event.
     */
    unsigned jobTimeoutMs = 0;

    /**
     * Fork every job into a sandbox child process (exp/sandbox.hh).
     * A crash (segfault, abort, OOM kill) becomes one failed cell
     * with the exit status / signal name in its outcome instead of a
     * dead sweep. Successful cells produce byte-identical sweep JSON
     * either way. Per-job tracing and phase samples do not cross the
     * fork, so --trace/--prof-out readouts cover only the parent.
     */
    bool isolate = false;

    /**
     * When set, every completed (ok) job is appended to this journal
     * as one fsync'd JSON line, enabling crash-safe resume
     * (exp/journal.hh). The runner only appends; opening, validating
     * and finalizing the journal is the caller's business.
     */
    std::shared_ptr<SweepJournal> journal;

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
     * counter samples — for writeChromeTrace; nullptr before run(),
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
