/**
 * @file
 * Tests for the host-time profiler (src/prof): phase-tag scopes and
 * their nesting/disabled semantics, the deterministic fake-sampler
 * hook, the hardware counter fallback ladder, profile JSON
 * round-trips, the /proc/self/status parser behind the RSS probes,
 * and the runner integration (the sweep profile, determinism of the
 * sweep document under profiling).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>

#include "exp/figures.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "exp/telemetry.hh"
#include "prof/hw_counters.hh"
#include "prof/phase.hh"
#include "prof/profile.hh"
#include "prof/sampler.hh"

namespace persim
{

namespace
{

/** Samples counted on this thread for @p p since @p before. */
std::uint64_t
delta(const prof::PhaseCounts &before, prof::Phase p)
{
    return prof::Sampler::threadCounts().minus(before)[p];
}

} // namespace

TEST(ProfPhase, ScopeSetsAndRestoresTag)
{
    prof::Sampler::attachThread();
    prof::Sampler::resetCounts();
    const prof::PhaseCounts base = prof::Sampler::threadCounts();

    prof::Sampler::testTick(); // before any scope: Other
    {
        prof::ScopedPhase outer(prof::Phase::LlcBank);
        prof::Sampler::testTick();
        prof::Sampler::testTick();
    }
    prof::Sampler::testTick(); // scope closed: back to Other

    EXPECT_EQ(delta(base, prof::Phase::LlcBank), 2u);
    EXPECT_EQ(delta(base, prof::Phase::Other), 2u);
    prof::Sampler::detachThread();
}

TEST(ProfPhase, NestedScopeRestoresOuterTag)
{
    prof::Sampler::attachThread();
    prof::Sampler::resetCounts();
    const prof::PhaseCounts base = prof::Sampler::threadCounts();

    {
        prof::ScopedPhase outer(prof::Phase::EventLoop);
        prof::Sampler::testTick();
        {
            prof::ScopedPhase inner(prof::Phase::Nvm);
            prof::Sampler::testTick();
        }
        // The inner scope must restore EventLoop, not reset to Other.
        prof::Sampler::testTick();
    }

    EXPECT_EQ(delta(base, prof::Phase::EventLoop), 2u);
    EXPECT_EQ(delta(base, prof::Phase::Nvm), 1u);
    EXPECT_EQ(delta(base, prof::Phase::Other), 0u);
    prof::Sampler::detachThread();
}

TEST(ProfPhase, DetachedThreadScopesAreInert)
{
    prof::Sampler::attachThread();
    prof::Sampler::detachThread();
    EXPECT_FALSE(prof::profiling());

    // With no block attached, scopes must not touch any counter and
    // ticks land on the unattributed overflow instead.
    prof::Sampler::resetCounts();
    {
        prof::ScopedPhase scope(prof::Phase::FlushEngine);
        prof::Sampler::testTick();
    }
    EXPECT_EQ(prof::Sampler::totalCounts().total(), 0u);
    EXPECT_EQ(prof::Sampler::unattributedSamples(), 1u);
}

TEST(ProfPhase, FakeSamplerAttributesDeterministically)
{
    // Drive the exact handler counting step N times per phase and
    // check the ledger matches — no timers, no signals, no flakiness.
    prof::Sampler::attachThread();
    prof::Sampler::resetCounts();
    const prof::PhaseCounts base = prof::Sampler::threadCounts();

    constexpr unsigned kTicks[] = {3, 1, 4, 1, 5};
    const prof::Phase phases[] = {
        prof::Phase::EventLoop, prof::Phase::L1Access,
        prof::Phase::LlcBank, prof::Phase::Noc,
        prof::Phase::PersistArbiter};
    for (std::size_t i = 0; i < 5; ++i) {
        prof::ScopedPhase scope(phases[i]);
        for (unsigned t = 0; t < kTicks[i]; ++t)
            prof::Sampler::testTick();
    }

    const prof::PhaseCounts got = prof::Sampler::threadCounts();
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(got.minus(base)[phases[i]], kTicks[i]);
    EXPECT_EQ(got.minus(base).total(), 14u);
    EXPECT_EQ(got.minus(base).attributed(), 14u);
    prof::Sampler::detachThread();
}

TEST(ProfPhase, TotalCountsSumsAcrossThreads)
{
    prof::Sampler::resetCounts();
    prof::Sampler::attachThread();
    {
        prof::ScopedPhase scope(prof::Phase::WorkloadGen);
        prof::Sampler::testTick();
    }
    std::thread worker([] {
        prof::Sampler::attachThread();
        prof::ScopedPhase scope(prof::Phase::WorkloadGen);
        prof::Sampler::testTick();
        prof::Sampler::testTick();
        prof::Sampler::detachThread();
    });
    worker.join();
    EXPECT_EQ(prof::Sampler::totalCounts()[prof::Phase::WorkloadGen],
              3u);
    prof::Sampler::detachThread();
}

TEST(ProfPhase, PhaseNamesRoundTrip)
{
    for (std::size_t i = 0; i < prof::kPhaseCount; ++i) {
        const auto p = static_cast<prof::Phase>(i);
        prof::Phase back;
        ASSERT_TRUE(prof::phaseFromName(prof::phaseName(p), back));
        EXPECT_EQ(back, p);
    }
    prof::Phase ignored;
    EXPECT_FALSE(prof::phaseFromName("noSuchPhase", ignored));
}

TEST(ProfSampler, RealTimerAttributesBusyLoop)
{
    // Arm the real ITIMER_PROF sampler around a CPU-bound loop inside
    // one phase scope; with a 1 ms period and ~50 ms of spinning, at
    // least one SIGPROF tick must land in that phase.
    ASSERT_TRUE(prof::Sampler::start(1000));
    EXPECT_TRUE(prof::Sampler::running());
    EXPECT_FALSE(prof::Sampler::start(1000)) << "second start must fail";
    {
        prof::ScopedPhase scope(prof::Phase::StatExport);
        volatile std::uint64_t sink = 0;
        const prof::PhaseCounts base = prof::Sampler::threadCounts();
        while (prof::Sampler::threadCounts()
                   .minus(base)[prof::Phase::StatExport] == 0) {
            for (unsigned i = 0; i < 100000; ++i)
                sink = sink + i;
        }
    }
    prof::Sampler::stop();
    EXPECT_FALSE(prof::Sampler::running());
    EXPECT_GE(prof::Sampler::totalCounts()[prof::Phase::StatExport],
              1u);
    prof::Sampler::detachThread();
}

TEST(ProfCounters, FallbackLadderAlwaysYieldsAReading)
{
    prof::HwCounterGroup group;
    group.start();
    volatile std::uint64_t sink = 0;
    for (unsigned i = 0; i < 2000000; ++i)
        sink = sink + i;
    prof::CounterReading r = group.stop();

    // Whatever rung the host supports, the reading is source-tagged
    // and carries wall clock; perf and rusage values only when valid.
    EXPECT_FALSE(r.source.empty());
    EXPECT_GT(r.wallSec, 0.0);
    if (r.perfValid) {
        EXPECT_EQ(r.source.rfind("perf_event", 0), 0u);
        EXPECT_GT(r.cycles, 0u);
        EXPECT_GT(r.instructions, 0u);
        EXPECT_GT(r.ipc(), 0.0);
    } else {
        EXPECT_NE(r.source.find("unavailable"), std::string::npos)
            << "degraded source must say why: " << r.source;
    }
}

TEST(ProfCounters, NoPerfEnvForcesFallback)
{
    ::setenv("PERSIM_PROF_NO_PERF", "1", 1);
    prof::HwCounterGroup group;
    ::unsetenv("PERSIM_PROF_NO_PERF");
    EXPECT_FALSE(group.source().rfind("perf_event", 0) == 0)
        << "PERSIM_PROF_NO_PERF must skip perf_event: "
        << group.source();
    group.start();
    prof::CounterReading r = group.stop();
    EXPECT_FALSE(r.perfValid);
    EXPECT_GE(r.wallSec, 0.0);
}

TEST(ProfCounters, ReadingJsonRoundTrip)
{
    prof::CounterReading r;
    r.source = "perf_event";
    r.perfValid = true;
    r.cycles = 123456789;
    r.instructions = 987654321;
    r.llcMisses = 4242;
    r.branchMisses = 17;
    r.rusageValid = true;
    r.userSec = 1.5;
    r.sysSec = 0.25;
    r.minorFaults = 10;
    r.majorFaults = 1;
    r.volCtxSwitches = 3;
    r.involCtxSwitches = 7;
    r.wallSec = 2.0;

    const prof::CounterReading back =
        prof::CounterReading::fromJson(r.toJson());
    EXPECT_EQ(back.source, r.source);
    EXPECT_TRUE(back.perfValid);
    EXPECT_EQ(back.cycles, r.cycles);
    EXPECT_EQ(back.instructions, r.instructions);
    EXPECT_EQ(back.llcMisses, r.llcMisses);
    EXPECT_EQ(back.branchMisses, r.branchMisses);
    EXPECT_TRUE(back.rusageValid);
    EXPECT_DOUBLE_EQ(back.userSec, r.userSec);
    EXPECT_EQ(back.involCtxSwitches, r.involCtxSwitches);
    EXPECT_DOUBLE_EQ(back.wallSec, r.wallSec);
}

TEST(ProfProfile, SweepProfileJsonRoundTrip)
{
    prof::SweepProfile p;
    p.sweep = "fig14";
    p.periodUsec = 997;
    p.hostCpus = 8;
    p.loadAvg1 = 1.25;
    p.phases.samples[static_cast<std::size_t>(
        prof::Phase::EventLoop)] = 100;
    p.phases.samples[static_cast<std::size_t>(prof::Phase::LlcBank)] =
        50;
    p.unattributed = 3;
    p.counters.source = "getrusage (perf_event unavailable: EPERM)";
    p.counters.rusageValid = true;
    p.counters.userSec = 4.0;
    p.counters.wallSec = 5.0;
    prof::JobProfile job;
    job.id = "radix/LB/s1";
    job.phases.samples[static_cast<std::size_t>(
        prof::Phase::L1Access)] = 7;
    p.jobs.push_back(job);

    const prof::SweepProfile back =
        prof::SweepProfile::fromJson(p.toJson());
    EXPECT_EQ(back.sweep, "fig14");
    EXPECT_EQ(back.periodUsec, 997u);
    EXPECT_EQ(back.hostCpus, 8u);
    EXPECT_DOUBLE_EQ(back.loadAvg1, 1.25);
    EXPECT_EQ(back.phases, p.phases);
    EXPECT_EQ(back.unattributed, 3u);
    EXPECT_EQ(back.counters.source, p.counters.source);
    ASSERT_EQ(back.jobs.size(), 1u);
    EXPECT_EQ(back.jobs[0].id, "radix/LB/s1");
    EXPECT_EQ(back.jobs[0].phases[prof::Phase::L1Access], 7u);
    EXPECT_NEAR(back.attributionRatio(), 1.0, 1e-9);
}

TEST(ProfProfile, FromJsonRejectsNonProfileDocument)
{
    EXPECT_THROW(
        prof::SweepProfile::fromJson(
            exp::JsonValue::parse("{\"sweep\": \"fig14\"}")),
        SimFatal);
}

TEST(ProfStatus, ParseStatusKbReadsWellFormedKey)
{
    const std::string_view status = "Name:\tpersim_tests\n"
                                    "VmPeak:\t  123456 kB\n"
                                    "VmRSS:\t   98304 kB\n"
                                    "VmHWM:\t  131072 kB\n";
    EXPECT_EQ(exp::parseStatusKb(status, "VmRSS"), 98304u);
    EXPECT_EQ(exp::parseStatusKb(status, "VmHWM"), 131072u);
    EXPECT_EQ(exp::parseStatusKb(status, "VmPeak"), 123456u);
}

TEST(ProfStatus, ParseStatusKbMissingKeyIsZero)
{
    EXPECT_EQ(exp::parseStatusKb("Name:\tx\nVmPeak:\t1 kB\n", "VmRSS"),
              0u);
    EXPECT_EQ(exp::parseStatusKb("", "VmRSS"), 0u);
}

TEST(ProfStatus, ParseStatusKbMalformedValueIsZero)
{
    EXPECT_EQ(exp::parseStatusKb("VmRSS:\tnot-a-number kB\n", "VmRSS"),
              0u);
    EXPECT_EQ(exp::parseStatusKb("VmRSS:\n", "VmRSS"), 0u);
    EXPECT_EQ(exp::parseStatusKb("VmRSS:   \n", "VmRSS"), 0u);
}

TEST(ProfStatus, ParseStatusKbRejectsKeyPrefixMatch)
{
    // "VmRSS" must not match a line for a longer key.
    EXPECT_EQ(exp::parseStatusKb("VmRSSExtra:\t777 kB\n", "VmRSS"), 0u);
    // ...but the real key later in the text still parses.
    EXPECT_EQ(exp::parseStatusKb(
                  "VmRSSExtra:\t777 kB\nVmRSS:\t42 kB\n", "VmRSS"),
              42u);
}

TEST(ProfStatus, LiveProbesAgreeWithParser)
{
    // On a Linux host the live probes go through parseStatusKb; both
    // must be nonzero and HWM >= RSS modulo sampling skew.
    const std::uint64_t rss = exp::currentRssKb();
    const std::uint64_t hwm = exp::peakRssKb();
    if (rss == 0 && hwm == 0) {
        GTEST_SKIP() << "/proc unavailable on this host";
    }
    EXPECT_GT(rss, 0u);
    EXPECT_GE(hwm, rss);
}

TEST(ProfStatus, HostShapeProbes)
{
    EXPECT_GE(exp::hostCpuCount(), 1u);
    // loadAverage1 is -1 where /proc is unavailable, >= 0 otherwise.
    const double load = exp::loadAverage1();
    EXPECT_TRUE(load < 0.0 || load >= 0.0);
    if (load >= 0.0) {
        EXPECT_LT(load, 1e6);
    }
}

TEST(ProfRunner, ProfiledSweepFillsTelemetryAndProfile)
{
    exp::Sweep sweep = exp::figureSweep(11, /*ops=*/40, /*cores=*/4,
                                        /*seed=*/3);
    sweep.jobs.resize(4);

    exp::RunnerOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    opts.prof = true;
    exp::SweepRunner runner(opts);
    const auto outcomes = runner.run(sweep);
    ASSERT_EQ(outcomes.size(), 4u);

    const exp::SweepTelemetry &tel = runner.telemetry();
    EXPECT_GE(tel.hostCpus, 1u);
    ASSERT_EQ(tel.jobs.size(), 4u);

    // The profile lives only in the --prof-out document.
    const prof::SweepProfile &p = runner.profile();
    EXPECT_EQ(p.sweep, sweep.name);
    EXPECT_EQ(p.periodUsec, opts.profPeriodUsec);
    EXPECT_EQ(p.hostCpus, tel.hostCpus);
    ASSERT_EQ(p.jobs.size(), 4u);
    for (std::size_t i = 0; i < p.jobs.size(); ++i) {
        EXPECT_EQ(p.jobs[i].id, tel.jobs[i].id);
        EXPECT_FALSE(p.jobs[i].counters.source.empty());
    }
    EXPECT_FALSE(p.counters.source.empty());
    const std::string profJson = p.toJson().dump();
    EXPECT_NE(profJson.find("\"phases\""), std::string::npos);
    EXPECT_NE(profJson.find("\"source\""), std::string::npos);
    // Telemetry no longer carries a copy of the profile.
    const std::string telJson = tel.toJson().dump();
    EXPECT_EQ(telJson.find("\"prof\""), std::string::npos);
    EXPECT_EQ(telJson.find("\"counters\""), std::string::npos);
    EXPECT_FALSE(prof::Sampler::running()) << "run() must stop sampler";
}

TEST(ProfRunner, UnprofiledSweepOmitsProfFields)
{
    exp::Sweep sweep = exp::figureSweep(11, /*ops=*/40, /*cores=*/4,
                                        /*seed=*/3);
    sweep.jobs.resize(2);
    exp::RunnerOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    exp::SweepRunner runner(opts);
    runner.run(sweep);
    EXPECT_TRUE(runner.profile().jobs.empty());
    EXPECT_EQ(runner.profile().phases.total(), 0u);
    const std::string telJson = runner.telemetry().toJson().dump();
    EXPECT_EQ(telJson.find("\"prof\""), std::string::npos);
    EXPECT_GE(runner.telemetry().hostCpus, 1u);
}

TEST(ProfRunner, ProfilingDoesNotPerturbSweepDocument)
{
    // The acceptance bar for the whole subsystem: the deterministic
    // sweep JSON must be byte-identical with and without --prof.
    exp::Sweep sweep = exp::figureSweep(13, /*ops=*/60, /*cores=*/4,
                                        /*seed=*/5);
    sweep.jobs.resize(6);

    exp::RunnerOptions plain;
    plain.jobs = 2;
    plain.progress = false;
    exp::SweepRunner plainRunner(plain);
    const auto outPlain = plainRunner.run(sweep);

    exp::RunnerOptions profiled = plain;
    profiled.prof = true;
    exp::SweepRunner profRunner(profiled);
    const auto outProf = profRunner.run(sweep);

    EXPECT_EQ(exp::sweepToJson(sweep, outPlain).dump(),
              exp::sweepToJson(sweep, outProf).dump());
}

} // namespace persim
