#include "exp/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <thread>

#include <signal.h>

#include "exp/fault.hh"
#include "exp/journal.hh"
#include "exp/sandbox.hh"
#include "exp/stats_export.hh"
#include "prof/phase.hh"
#include "prof/sampler.hh"
#include "sim/logging.hh"
#include "workload/trace/trace_capture.hh"

namespace persim::exp
{

namespace
{

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Polling-thread period: the watchdog's deadline resolution. */
constexpr unsigned kPollTickMs = 25;

/** Period of the --progress live line. */
constexpr unsigned kLiveIntervalMs = 2000;

/**
 * Phase-sampler period in microseconds of process CPU time. Prime, so
 * the sampler cannot phase-lock with any periodic simulator behavior.
 */
constexpr unsigned kProfPeriodUsec = 997;

} // namespace

JsonValue
JobOutcome::toJson(bool includeStats) const
{
    JsonValue out = JsonValue::object();
    out["id"] = JsonValue(spec.id());
    out["spec"] = spec.toJson();
    out["ok"] = JsonValue(ok);
    out["attempts"] = JsonValue(attempts);
    if (!ok)
        out["error"] = JsonValue(error);
    out["result"] = simResultToJson(result);
    if (includeStats)
        out["groups"] = statTree;
    return out;
}

unsigned
retryBackoffMs(unsigned retry)
{
    constexpr unsigned kBaseMs = 100;
    constexpr unsigned kCapMs = 5000;
    if (retry == 0)
        return 0;
    const unsigned shift = std::min(retry - 1, 20u);
    return std::min(kBaseMs << shift, kCapMs);
}

JobOutcome
runJob(const ExperimentSpec &spec, std::size_t gridIndex,
       const std::atomic<bool> *cancel)
{
    JobOutcome out;
    out.spec = spec;
    out.attempts = 1;
    const auto start = std::chrono::steady_clock::now();
    try {
        fault::maybeInject(gridIndex, cancel);
        const model::SystemConfig cfg = spec.toSystemConfig();
        model::System sys(cfg);
        sys.setCancelFlag(cancel);
        std::shared_ptr<workload::trace::TraceCaptureWriter> capture;
        auto workloads = spec.buildWorkloads(&capture);
        for (unsigned t = 0; t < cfg.numCores; ++t)
            sys.setWorkload(static_cast<CoreId>(t),
                            std::move(workloads[t]));
        out.result = sys.run();
        out.statTree = statGroupsToJson(sys.statGroups());
        // Captures are written only for completed runs, so a retried
        // attempt never leaves a partial trace behind.
        if (capture)
            capture->writeBinaryFile(spec.captureFile);
        out.ok = true;
    } catch (const std::exception &e) {
        out.error = e.what();
    } catch (...) {
        out.error = "unknown exception";
    }
    out.wallMs = msSince(start);
    return out;
}

// ---------------------------------------------------------------------
// WorkStealingPool
// ---------------------------------------------------------------------

WorkStealingPool::WorkStealingPool(unsigned numWorkers,
                                   std::size_t numJobs)
    : _numWorkers(numWorkers ? numWorkers : 1),
      _executed(_numWorkers, 0), _steals(_numWorkers, 0)
{
    _deques.reserve(_numWorkers);
    for (unsigned w = 0; w < _numWorkers; ++w)
        _deques.push_back(std::make_unique<WorkerDeque>());
    // Deal jobs round-robin so every worker starts with a local run
    // of the grid; imbalance is fixed dynamically by stealing.
    for (std::size_t j = 0; j < numJobs; ++j)
        _deques[j % _numWorkers]->jobs.push_back(j);
}

bool
WorkStealingPool::popOwn(unsigned worker, std::size_t &out)
{
    WorkerDeque &dq = *_deques[worker];
    std::lock_guard<std::mutex> lock(dq.mutex);
    if (dq.jobs.empty())
        return false;
    out = dq.jobs.back();
    dq.jobs.pop_back();
    return true;
}

bool
WorkStealingPool::stealFrom(unsigned victim, std::size_t &out)
{
    WorkerDeque &dq = *_deques[victim];
    std::lock_guard<std::mutex> lock(dq.mutex);
    if (dq.jobs.empty())
        return false;
    out = dq.jobs.front();
    dq.jobs.pop_front();
    return true;
}

void
WorkStealingPool::run(
    const std::function<void(std::size_t, unsigned)> &fn)
{
    auto workerLoop = [this, &fn](unsigned worker) {
        while (true) {
            std::size_t job;
            if (popOwn(worker, job)) {
                fn(job, worker);
                ++_executed[worker];
                continue;
            }
            bool stole = false;
            for (unsigned i = 1; i < _numWorkers && !stole; ++i) {
                const unsigned victim = (worker + i) % _numWorkers;
                if (stealFrom(victim, job)) {
                    fn(job, worker);
                    ++_executed[worker];
                    ++_steals[worker];
                    stole = true;
                }
            }
            if (!stole)
                return; // every deque empty: no new work is ever added
        }
    };

    if (_numWorkers == 1) {
        workerLoop(0);
        return;
    }
    std::vector<std::thread> threads;
    threads.reserve(_numWorkers);
    for (unsigned w = 0; w < _numWorkers; ++w)
        threads.emplace_back(workerLoop, w);
    for (auto &t : threads)
        t.join();
}

// ---------------------------------------------------------------------
// SweepRunner
// ---------------------------------------------------------------------

std::vector<JobOutcome>
SweepRunner::run(const Sweep &sweep)
{
    const std::size_t total = sweep.jobs.size();
    std::vector<JobOutcome> outcomes(total);
    _telemetry = SweepTelemetry{};

    // Which job (if any) records a trace.
    std::size_t traceIndex = SIZE_MAX;
    if (!_opts.traceFlags.empty()) {
        traceIndex = 0;
        if (!_opts.traceJobId.empty()) {
            traceIndex = SIZE_MAX;
            for (std::size_t i = 0; i < total; ++i) {
                if (sweep.jobs[i].id() == _opts.traceJobId) {
                    traceIndex = i;
                    break;
                }
            }
        }
    }

    std::atomic<std::size_t> done{0};
    std::atomic<std::uint64_t> doneEvents{0};
    std::mutex progressMutex;
    _recorder = std::make_unique<trace::Recorder>(_opts.traceFlags,
                                                  _opts.counterWindow);

    // Host-time profiling rides the whole sweep: one interval timer
    // and per-thread phase counters. Both observe the host only — the
    // deterministic sweep output cannot see whether profiling was on.
    _profile = prof::SweepProfile{};
    const bool profOn = _opts.prof;
    if (profOn)
        prof::Sampler::start(kProfPeriodUsec);
    // Each worker fills only its own jobs' entries.
    _telemetry.jobs.resize(total);

    // Host-side per-job state, shared with the polling thread.
    // attemptStartMs holds msSince(start)+1 for the running attempt
    // (0 = no attempt in flight, so the epoch itself can never read as
    // idle); cancel is the cooperative cancel handshake with
    // model::System; childPid names the live sandbox child (if any) so
    // an over-deadline job can be SIGKILLed.
    struct JobSlot
    {
        std::atomic<unsigned char> state{
            static_cast<unsigned char>(JobState::Queued)};
        std::atomic<std::uint64_t> attemptStartMs{0};
        std::atomic<bool> cancel{false};
        std::atomic<int> childPid{0};
    };
    std::vector<JobSlot> slots(total);

    const auto start = std::chrono::steady_clock::now();

    // Cancel every attempt that has outlived its deadline.
    auto fireDeadlines = [&](double nowMs) {
        const std::uint64_t limit = _opts.jobTimeoutMs;
        const std::uint64_t now = static_cast<std::uint64_t>(nowMs) + 1;
        for (JobSlot &slot : slots) {
            const std::uint64_t began =
                slot.attemptStartMs.load(std::memory_order_relaxed);
            if (began == 0 || now < began || now - began <= limit)
                continue;
            // Re-read before firing: if the worker moved on to a new
            // attempt between the check and the store, cancelling now
            // would shoot the fresh attempt.
            if (slot.attemptStartMs.load(std::memory_order_relaxed) !=
                began)
                continue;
            slot.cancel.store(true, std::memory_order_relaxed);
            const int pid = slot.childPid.load(std::memory_order_relaxed);
            if (pid > 0)
                ::kill(static_cast<pid_t>(pid), SIGKILL);
        }
    };

    // The --progress line reads only atomics and /proc: it cannot
    // touch any simulation state, so determinism is unaffected.
    auto printLiveLine = [&](double elapsed) {
        std::size_t counts[kJobStateCount] = {};
        for (const JobSlot &slot : slots)
            ++counts[slot.state.load(std::memory_order_relaxed)];
        // A sandbox child doing useful work is "running" as far as a
        // human watching progress is concerned.
        counts[static_cast<unsigned>(JobState::Running)] +=
            counts[static_cast<unsigned>(JobState::Isolated)];
        const double evPerSec =
            elapsed > 0.0
                ? static_cast<double>(doneEvents.load()) * 1e3 / elapsed
                : 0.0;
        // Live top-phase readout: which named phase owns the largest
        // share of host samples so far.
        char profLine[64] = "";
        if (profOn) {
            const prof::PhaseCounts pc = prof::Sampler::totalCounts();
            const std::uint64_t totalSamples = pc.total();
            std::size_t top = 0;
            for (std::size_t p = 1; p < prof::kPhaseCount; ++p)
                if (pc.samples[p] > pc.samples[top])
                    top = p;
            if (totalSamples > 0) {
                std::snprintf(
                    profLine, sizeof(profLine), " | top %s %.0f%%",
                    prof::phaseName(static_cast<prof::Phase>(top)),
                    100.0 * static_cast<double>(pc.samples[top]) /
                        static_cast<double>(totalSamples));
            }
        }
        std::lock_guard<std::mutex> lock(progressMutex);
        std::fprintf(
            stderr,
            "  -- %zu queued, %zu running, %zu retrying, "
            "%zu done, %zu failed, %zu timed-out | %.1f s | "
            "%.2f Mev/s | RSS %.1f MB (peak %.1f MB)%s\n",
            counts[static_cast<unsigned>(JobState::Queued)],
            counts[static_cast<unsigned>(JobState::Running)],
            counts[static_cast<unsigned>(JobState::Retrying)],
            counts[static_cast<unsigned>(JobState::Done)],
            counts[static_cast<unsigned>(JobState::Failed)],
            counts[static_cast<unsigned>(JobState::TimedOut)],
            elapsed / 1e3, evPerSec / 1e6,
            static_cast<double>(currentRssKb()) / 1024.0,
            static_cast<double>(peakRssKb()) / 1024.0, profLine);
    };

    // One polling thread serves the watchdog and the --progress line;
    // a sweep with neither starts no thread at all.
    std::atomic<bool> stopPolling{false};
    std::thread poller;
    if (_opts.jobTimeoutMs > 0 || _opts.liveProgress) {
        poller = std::thread([&] {
            double nextLineMs = kLiveIntervalMs;
            while (!stopPolling.load(std::memory_order_relaxed)) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(kPollTickMs));
                const double now = msSince(start);
                if (_opts.jobTimeoutMs > 0)
                    fireDeadlines(now);
                if (_opts.liveProgress && now >= nextLineMs) {
                    printLiveLine(now);
                    nextLineMs += kLiveIntervalMs;
                }
            }
        });
    }

    const unsigned maxAttempts = _opts.maxAttempts ? _opts.maxAttempts : 1;
    const JobState attemptState =
        _opts.isolate ? JobState::Isolated : JobState::Running;
    WorkStealingPool pool(_opts.jobs, total);
    pool.run([&](std::size_t index, unsigned worker) {
        const ExperimentSpec &spec = sweep.jobs[index];
        JobSlot &slot = slots[index];
        auto setState = [&slot](JobState s) {
            slot.state.store(static_cast<unsigned char>(s),
                             std::memory_order_relaxed);
        };

        // Tracing records in-process simulation events, which a
        // sandbox child cannot deliver back; --isolate sweeps run
        // untraced (persim_sweep refuses the combination up front).
        const bool tracing = !_opts.isolate && index == traceIndex;
        if (tracing)
            trace::attachRecorder(_recorder.get());

        // Worker threads attach lazily; the block persists across
        // this worker's jobs.
        if (profOn)
            prof::Sampler::attachThread();

        // The only retry loop. Backoff, the deadline clock and the
        // timeout verdict live here, outside the attempt, so they
        // survive any way a sandbox child can die.
        JobOutcome outcome;
        for (unsigned attempt = 1; attempt <= maxAttempts; ++attempt) {
            if (attempt > 1) {
                setState(JobState::Retrying);
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    retryBackoffMs(attempt - 1)));
            }
            // The deadline clock starts after the backoff sleep, so
            // the watchdog measures simulation time only.
            slot.cancel.store(false, std::memory_order_relaxed);
            slot.attemptStartMs.store(
                static_cast<std::uint64_t>(msSince(start)) + 1,
                std::memory_order_relaxed);
            setState(attemptState);
            outcome = _opts.isolate
                          ? runJobSandboxed(spec, index, &slot.childPid)
                          : runJob(spec, index, &slot.cancel);
            slot.attemptStartMs.store(0, std::memory_order_relaxed);
            outcome.attempts = attempt;
            if (!outcome.ok &&
                slot.cancel.load(std::memory_order_relaxed)) {
                // The watchdog fired during this attempt; a sandbox
                // child it SIGKILLed reports as a timeout, not as an
                // anonymous signal.
                outcome.timedOut = true;
                outcome.error = "timeout";
            }
            if (outcome.ok)
                break;
        }

        if (tracing)
            trace::detachRecorder();

        outcome.index = index;
        const JobState finalState =
            outcome.ok ? JobState::Done
                       : (outcome.timedOut ? JobState::TimedOut
                                           : JobState::Failed);
        setState(finalState);
        // Journal the cell before announcing it done: once a line is
        // fsync'd, a crash anywhere later cannot lose this result.
        if (_opts.journal && outcome.ok)
            _opts.journal->append(outcome);
        JobTelemetry &jt = _telemetry.jobs[index];
        jt.id = spec.id();
        jt.state = finalState;
        jt.isolated = _opts.isolate;
        jt.exitCode = outcome.exitCode;
        jt.termSignal = outcome.termSignal;
        jt.attempts = outcome.attempts;
        jt.worker = worker;
        jt.wallMs = outcome.wallMs;
        jt.events = outcome.result.events;
        jt.rssAfterKb = currentRssKb();
        doneEvents.fetch_add(outcome.result.events,
                             std::memory_order_relaxed);
        const std::size_t finished = done.fetch_add(1) + 1;
        if (_opts.progress) {
            std::lock_guard<std::mutex> lock(progressMutex);
            if (outcome.ok) {
                std::fprintf(stderr,
                             "  [%zu/%zu] %-28s ok    %8.3f Mcycles  "
                             "%7.0f ms  (w%u)\n",
                             finished, total, spec.id().c_str(),
                             outcome.result.execTicks / 1e6,
                             outcome.wallMs, worker);
            } else {
                std::fprintf(stderr,
                             "  [%zu/%zu] %-28s FAILED after %u "
                             "attempt(s): %s\n",
                             finished, total, spec.id().c_str(),
                             outcome.attempts, outcome.error.c_str());
            }
        }
        outcomes[index] = std::move(outcome);
    });
    if (poller.joinable()) {
        stopPolling.store(true);
        poller.join();
    }
    const double wallMs = msSince(start);
    if (profOn)
        prof::Sampler::stop();

    _telemetry.sweep = sweep.name;
    _telemetry.workers = _opts.jobs ? _opts.jobs : 1;
    _telemetry.wallMs = wallMs;
    _telemetry.peakRssKb = peakRssKb();
    _telemetry.hostCpus = hostCpuCount();
    _telemetry.loadAvg1 = loadAverage1();

    if (profOn) {
        _profile.sweep = sweep.name;
        _profile.periodUsec = kProfPeriodUsec;
        _profile.phases = prof::Sampler::totalCounts();
        _profile.unattributed = prof::Sampler::unattributedSamples();
    }
    return outcomes;
}

JsonValue
sweepToJson(const Sweep &sweep, const std::vector<JobOutcome> &outcomes,
            bool includeStats)
{
    prof::ScopedPhase profPhase(prof::Phase::StatExport);
    JsonValue out = JsonValue::object();
    out["sweep"] = JsonValue(sweep.name);
    out["jobCount"] = JsonValue(outcomes.size());
    std::size_t failed = 0;
    for (const JobOutcome &o : outcomes)
        failed += o.ok ? 0 : 1;
    out["failed"] = JsonValue(failed);
    JsonValue jobs = JsonValue::array();
    for (const JobOutcome &o : outcomes)
        jobs.push(o.toJson(includeStats));
    out["jobs"] = std::move(jobs);
    return out;
}

} // namespace persim::exp
