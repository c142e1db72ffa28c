/**
 * @file
 * Tests for the host-time profiler (src/prof): phase-tag scopes and
 * their nesting/disabled semantics, the deterministic fake-sampler
 * hook, the profile document's phase keys, the /proc/self/status
 * parser behind the RSS probes, and the runner integration (the sweep
 * profile, determinism of the sweep document under profiling).
 */

#include <gtest/gtest.h>

#include <thread>

#include "exp/figures.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "exp/telemetry.hh"
#include "prof/phase.hh"
#include "prof/profile.hh"
#include "prof/sampler.hh"

namespace persim
{

TEST(ProfPhase, ScopeSetsAndRestoresTag)
{
    prof::Sampler::attachThread();
    prof::Sampler::resetCounts();

    prof::Sampler::testTick(); // before any scope: Other
    {
        prof::ScopedPhase outer(prof::Phase::LlcBank);
        prof::Sampler::testTick();
        prof::Sampler::testTick();
    }
    prof::Sampler::testTick(); // scope closed: back to Other

    const prof::PhaseCounts got = prof::Sampler::totalCounts();
    EXPECT_EQ(got[prof::Phase::LlcBank], 2u);
    EXPECT_EQ(got[prof::Phase::Other], 2u);
    prof::Sampler::detachThread();
}

TEST(ProfPhase, NestedScopeRestoresOuterTag)
{
    prof::Sampler::attachThread();
    prof::Sampler::resetCounts();

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

    const prof::PhaseCounts got = prof::Sampler::totalCounts();
    EXPECT_EQ(got[prof::Phase::EventLoop], 2u);
    EXPECT_EQ(got[prof::Phase::Nvm], 1u);
    EXPECT_EQ(got[prof::Phase::Other], 0u);
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

    const prof::PhaseCounts got = prof::Sampler::totalCounts();
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(got[phases[i]], kTicks[i]);
    EXPECT_EQ(got.total(), 14u);
    EXPECT_EQ(got.attributed(), 14u);
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
    // In the profile document, every phase name is a distinct key
    // of `phases` carrying that phase's own count.
    prof::SweepProfile p;
    for (std::size_t i = 0; i < prof::kPhaseCount; ++i)
        p.phases.samples[i] = 10 + i;
    const exp::JsonValue doc = p.toJson();
    const exp::JsonValue *phases = doc.get("phases");
    ASSERT_NE(phases, nullptr);
    EXPECT_EQ(phases->members().size(), prof::kPhaseCount);
    for (std::size_t i = 0; i < prof::kPhaseCount; ++i) {
        const char *name = prof::phaseName(static_cast<prof::Phase>(i));
        const exp::JsonValue *v = phases->get(name);
        ASSERT_NE(v, nullptr) << name;
        EXPECT_EQ(v->asNumber(), static_cast<double>(10 + i)) << name;
    }
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
        // start() zeroed every counter.
        while (prof::Sampler::totalCounts()[prof::Phase::StatExport] ==
               0) {
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

    // The profile lives only in the --prof-out document, which holds
    // phase samples and nothing per job or per host.
    const prof::SweepProfile &p = runner.profile();
    EXPECT_EQ(p.sweep, sweep.name);
    EXPECT_EQ(p.periodUsec, 997u);
    const exp::JsonValue doc = p.toJson();
    ASSERT_NE(doc.get("phases"), nullptr);
    for (const char *gone : {"jobs", "counters", "hostCpus", "loadAvg1"})
        EXPECT_EQ(doc.get(gone), nullptr) << gone;
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
    EXPECT_EQ(runner.profile().phases.total(), 0u);
    const std::string telJson = runner.telemetry().toJson().dump();
    EXPECT_EQ(telJson.find("\"prof\""), std::string::npos);
    EXPECT_GE(runner.telemetry().hostCpus, 1u);
}

TEST(ProfRunner, ProfilingDoesNotPerturbSweepDocument)
{
    // The acceptance bar for the whole subsystem: the deterministic
    // sweep JSON must be byte-identical with and without --prof-out.
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
