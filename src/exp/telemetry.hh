/**
 * @file
 * Live sweep telemetry: per-job state tracking, host RSS probes, and
 * the machine-readable host document behind persim_sweep's
 * --progress / --timing-out flags.
 *
 * Telemetry is strictly host-side observability: it reads the
 * simulation's outputs (events, wall clock) and /proc, never the
 * simulated machine, so it cannot perturb determinism. It is also
 * explicitly NON-deterministic (wall clock, RSS, worker ids) and so
 * lives in its own document, never in the sweep JSON. A profiled
 * sweep's phase samples and hardware counters live only in the
 * profile document (prof/profile.hh, --prof-out).
 */

#ifndef PERSIM_EXP_TELEMETRY_HH
#define PERSIM_EXP_TELEMETRY_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exp/json.hh"

namespace persim::exp
{

/**
 * Parse "<key>:   <n> kB" out of a /proc/self/status-shaped text.
 * Returns 0 when the key is absent, matches only as a prefix of a
 * longer key, or has a malformed (non-numeric) value. Exposed so the
 * parser is testable against canned snippets.
 */
std::uint64_t parseStatusKb(std::string_view text, std::string_view key);

/**
 * Current resident-set size of this process in kB (VmRSS from
 * /proc/self/status); 0 where /proc is unavailable.
 */
std::uint64_t currentRssKb();

/**
 * Peak resident-set size of this process in kB (VmHWM from
 * /proc/self/status); 0 where /proc is unavailable.
 */
std::uint64_t peakRssKb();

/** Online CPU count of this host (0 when unknown). */
unsigned hostCpuCount();

/** 1-minute load average from /proc/loadavg; < 0 when unavailable. */
double loadAverage1();

/** Lifecycle of one sweep job, as shown by --progress. */
enum class JobState : unsigned char
{
    Queued,
    Running,
    Retrying,
    Done,
    Failed,
    /** Final attempt cancelled by the per-job watchdog. */
    TimedOut,
};

/** Number of JobState values (size of per-state count arrays). */
inline constexpr std::size_t kJobStateCount = 6;

const char *jobStateName(JobState s);

/** Telemetry for one finished job. */
struct JobTelemetry
{
    std::string id;
    JobState state = JobState::Queued;
    unsigned attempts = 0;
    /** Worker thread that ran the job. */
    unsigned worker = 0;
    double wallMs = 0.0;
    /** Simulated events executed (0 for failed jobs). */
    std::uint64_t events = 0;
    /** Process RSS right after the job finished, kB. */
    std::uint64_t rssAfterKb = 0;

    JsonValue toJson() const;
};

/** Telemetry for a whole sweep run (--timing-out document). */
struct SweepTelemetry
{
    std::string sweep;
    unsigned workers = 0;
    double wallMs = 0.0;
    std::uint64_t peakRssKb = 0;
    /** Host shape: std::thread::hardware_concurrency(). */
    unsigned hostCpus = 0;
    /** 1-minute load average at the end of the run; < 0 = unknown. */
    double loadAvg1 = -1.0;

    std::vector<JobTelemetry> jobs;

    std::uint64_t totalEvents() const;
    std::size_t failedJobs() const;
    std::size_t retriedJobs() const;
    /** Jobs whose final attempt was cancelled by the watchdog. */
    std::size_t timedOutJobs() const;

    /** Simulated events per wall-clock second; 0 when wallMs is 0. */
    double eventsPerSec() const;

    JsonValue toJson() const;

    /** One-line human summary for the end of a sweep. */
    std::string summaryLine() const;
};

} // namespace persim::exp

#endif // PERSIM_EXP_TELEMETRY_HH
