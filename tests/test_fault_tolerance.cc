/**
 * @file
 * Tests for the sweep fault-tolerance layer: deterministic fault
 * injection (PERSIM_FAULT), the per-job watchdog, the retry loop and
 * its backoff, and the atomic replacement of the --out document.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "exp/fault.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "sim/logging.hh"

namespace persim
{

using exp::ExperimentSpec;
using exp::JobOutcome;
using exp::Sweep;

namespace
{

/** RAII PERSIM_FAULT setter so a failing test cannot leak the hook. */
class ScopedFault
{
  public:
    explicit ScopedFault(const char *value)
    {
        ::setenv("PERSIM_FAULT", value, 1);
    }
    ~ScopedFault() { ::unsetenv("PERSIM_FAULT"); }
};

ExperimentSpec
tinySpec(const char *config = "LB")
{
    ExperimentSpec spec;
    spec.workload = "hash";
    spec.configLabel = config;
    spec.barrier = persist::BarrierKind::LB;
    spec.cores = 4;
    spec.ops = 20;
    return spec;
}

Sweep
tinySweep(std::size_t jobs = 3)
{
    Sweep sweep;
    sweep.name = "fault-tolerance";
    const char *configs[] = {"LB", "LB+IDT", "LB+PF", "LB++", "NP"};
    for (std::size_t i = 0; i < jobs; ++i) {
        ExperimentSpec spec = tinySpec(configs[i % 5]);
        spec.seed = i; // distinct ids even past 5 jobs
        sweep.jobs.push_back(std::move(spec));
    }
    return sweep;
}

std::string
tempPath(const char *name)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     "persim_fault_tests";
    std::filesystem::create_directories(dir);
    return (dir / name).string();
}

} // namespace

// ---------------------------------------------------------------------
// Fault-injection hook
// ---------------------------------------------------------------------

TEST(Fault, ParsesKindAndIndex)
{
    const exp::fault::Spec t = exp::fault::parse("throw:3");
    EXPECT_EQ(t.kind, exp::fault::Kind::Throw);
    EXPECT_EQ(t.jobIndex, 3u);
    EXPECT_EQ(exp::fault::parse("hang:0").kind,
              exp::fault::Kind::Hang);
}

TEST(Fault, RejectsMalformedDirectives)
{
    EXPECT_THROW(exp::fault::parse("throw"), SimFatal);
    EXPECT_THROW(exp::fault::parse("throw:"), SimFatal);
    EXPECT_THROW(exp::fault::parse("throw:abc"), SimFatal);
    EXPECT_THROW(exp::fault::parse("oops:1"), SimFatal);
    EXPECT_THROW(exp::fault::parse("segv:12"), SimFatal);
    EXPECT_THROW(exp::fault::parse("abort:1"), SimFatal);
    // Indices that would wrap (to job 1) or name the never-matching
    // standalone index SIZE_MAX are refused, not truncated.
    EXPECT_THROW(exp::fault::parse("throw:18446744073709551617"), SimFatal);
    EXPECT_THROW(exp::fault::parse("throw:18446744073709551615"), SimFatal);
    EXPECT_EQ(exp::fault::parse("throw:18446744073709551614").jobIndex,
              SIZE_MAX - 1);
}

TEST(Fault, FromEnvRereadsEveryCall)
{
    ::unsetenv("PERSIM_FAULT");
    EXPECT_EQ(exp::fault::fromEnv().kind, exp::fault::Kind::None);
    {
        ScopedFault f("throw:7");
        const exp::fault::Spec s = exp::fault::fromEnv();
        EXPECT_EQ(s.kind, exp::fault::Kind::Throw);
        EXPECT_EQ(s.jobIndex, 7u);
    }
    EXPECT_EQ(exp::fault::fromEnv().kind, exp::fault::Kind::None);
}

TEST(Fault, StandaloneRunJobIsNeverFaulted)
{
    // Library callers use the default grid index (SIZE_MAX),
    // which must never match an injection directive.
    ScopedFault f("throw:0");
    const JobOutcome out = exp::runJob(tinySpec());
    EXPECT_TRUE(out.ok) << out.error;
}

TEST(Fault, InjectedThrowFailsOnlyThatCell)
{
    ScopedFault f("throw:1");
    Sweep sweep = tinySweep(3);
    exp::RunnerOptions opts;
    opts.jobs = 1;
    opts.maxAttempts = 1;
    opts.progress = false;
    exp::SweepRunner runner(opts);
    auto outcomes = runner.run(sweep);

    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_EQ(outcomes[1].error, "injected fault: throw");
    EXPECT_TRUE(outcomes[2].ok) << outcomes[2].error;
}

// ---------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------

TEST(Watchdog, CancelsHungJobAsTimeout)
{
    ScopedFault f("hang:0");
    Sweep sweep = tinySweep(2);
    exp::RunnerOptions opts;
    opts.jobs = 2;
    opts.maxAttempts = 1;
    opts.jobTimeoutMs = 200;
    opts.progress = false;
    exp::SweepRunner runner(opts);
    auto outcomes = runner.run(sweep);

    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_TRUE(outcomes[0].timedOut);
    EXPECT_EQ(outcomes[0].error, "timeout");
    EXPECT_TRUE(outcomes[1].ok) << outcomes[1].error;

    const exp::SweepTelemetry &tel = runner.telemetry();
    ASSERT_EQ(tel.jobs.size(), 2u);
    EXPECT_EQ(tel.jobs[0].state, exp::JobState::TimedOut);
    EXPECT_EQ(tel.timedOutJobs(), 1u);
    EXPECT_EQ(tel.failedJobs(), 1u);
}

TEST(Watchdog, FastJobsAreUntouched)
{
    Sweep sweep = tinySweep(3);
    exp::RunnerOptions opts;
    opts.jobs = 3;
    opts.jobTimeoutMs = 60000;
    opts.progress = false;
    exp::SweepRunner runner(opts);
    auto outcomes = runner.run(sweep);
    for (const JobOutcome &o : outcomes)
        EXPECT_TRUE(o.ok) << o.spec.id() << ": " << o.error;
}

// ---------------------------------------------------------------------
// Retry backoff
// ---------------------------------------------------------------------

TEST(Retry, BackoffDoublesFrom100MsUpTo5s)
{
    EXPECT_EQ(exp::retryBackoffMs(0), 0u);
    EXPECT_EQ(exp::retryBackoffMs(1), 100u);
    EXPECT_EQ(exp::retryBackoffMs(2), 200u);
    EXPECT_EQ(exp::retryBackoffMs(3), 400u);
    EXPECT_EQ(exp::retryBackoffMs(6), 3200u);
    EXPECT_EQ(exp::retryBackoffMs(7), 5000u);
    EXPECT_EQ(exp::retryBackoffMs(1000), 5000u);
}

TEST(Retry, BacksOffExponentiallyBetweenAttempts)
{
    Sweep sweep = tinySweep(1);
    sweep.jobs.front().workload = "no-such-workload";

    exp::RunnerOptions opts;
    opts.maxAttempts = 3;
    opts.progress = false;
    exp::SweepRunner runner(opts);
    const auto start = std::chrono::steady_clock::now();
    const auto outcomes = runner.run(sweep);
    const double elapsed = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();

    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_EQ(outcomes[0].attempts, 3u);
    EXPECT_FALSE(outcomes[0].error.empty());
    EXPECT_EQ(runner.telemetry().retriedJobs(), 1u);
    EXPECT_EQ(runner.telemetry().jobs[0].state, exp::JobState::Failed);
    EXPECT_GE(elapsed, 300.0) << "100 + 200 ms of backoff";
}

// ---------------------------------------------------------------------
// Atomic --out
// ---------------------------------------------------------------------

TEST(AtomicWrite, ReplacesFile)
{
    const std::string path = tempPath("atomic.json");
    exp::writeFileAtomic(path, "first\n");
    exp::writeFileAtomic(path, "second\n");
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(text, "second\n");
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

} // namespace persim
