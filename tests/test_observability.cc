/**
 * @file
 * Tests for the observability layer: duration-span capture and Chrome
 * trace export (B/E pairing, lane splaying, counter tracks), the
 * interval sampler, host telemetry (RSS, per-job state), the
 * component[index] track-naming scheme, and the zero-cost guarantee of
 * the disabled probe path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "exp/figures.hh"
#include "exp/json.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "exp/stats_export.hh"
#include "exp/telemetry.hh"
#include "exp/trace_export.hh"
#include "model/system.hh"
#include "sim/trace.hh"
#include "workload/workload_factory.hh"

#include "script_workload.hh"

namespace persim
{

using exp::JsonValue;
using exp::Sweep;

namespace
{

/**
 * Run one small BSP cell with @p recorder attached to the simulation
 * thread, so every probe in the model fires into it.
 */
model::SimResult
runTraced(trace::Recorder &recorder, unsigned cores = 2,
          std::uint64_t ops = 120)
{
    model::SystemConfig cfg = model::SystemConfig::smallTest(cores);
    applyPersistencyModel(cfg, model::PersistencyModel::BufferedStrict,
                          persist::BarrierKind::LBPP, 50);
    model::System sys(cfg);
    auto workloads =
        workload::makeSyntheticWorkloads("canneal", cores, ops, 1);
    for (unsigned t = 0; t < cores; ++t)
        sys.setWorkload(static_cast<CoreId>(t), std::move(workloads[t]));
    trace::attachRecorder(&recorder);
    model::SimResult res = sys.run();
    trace::detachRecorder();
    return res;
}

struct SpanInterval
{
    double begin;
    double end;
    std::string name;
};

/** Collect [begin, end) intervals of every B/E or X span. */
std::vector<SpanInterval>
collectSpans(const JsonValue &doc)
{
    std::vector<SpanInterval> out;
    std::map<std::pair<double, double>, std::vector<JsonValue>> open;
    const JsonValue *events = doc.get("traceEvents");
    for (std::size_t i = 0; i < events->size(); ++i) {
        const JsonValue &e = events->at(i);
        const std::string ph = e.get("ph")->asString();
        if (ph == "X") {
            const double ts = e.get("ts")->asNumber();
            out.push_back({ts, ts + e.get("dur")->asNumber(),
                           e.get("name")->asString()});
        } else if (ph == "B" || ph == "E") {
            const auto key = std::make_pair(e.get("pid")->asNumber(),
                                            e.get("tid")->asNumber());
            if (ph == "B") {
                open[key].push_back(e);
            } else {
                auto &stack = open[key];
                if (!stack.empty()) {
                    const JsonValue &b = stack.back();
                    out.push_back({b.get("ts")->asNumber(),
                                   e.get("ts")->asNumber(),
                                   b.get("name")->asString()});
                    stack.pop_back();
                }
            }
        }
    }
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Recorder span/counter capture
// ---------------------------------------------------------------------

TEST(ObsRecorder, SpanAndCounterHelpersAreNoOpsWhenDetached)
{
    ASSERT_EQ(trace::current(), nullptr);
    EXPECT_FALSE(trace::probing());
    // Must not crash or leak with no recorder attached.
    trace::span(10, 20, "nowhere", "ghost", "Epoch");
    trace::counter(10, "ghost", 1.0);
}

TEST(ObsRecorder, CapturesSpansAndFiltersByCategory)
{
    trace::Recorder recorder("Epoch");
    trace::attachRecorder(&recorder);
    EXPECT_TRUE(trace::probing());
    trace::span(0, 10, "t", "kept", "Epoch");
    trace::span(0, 10, "t", "dropped", "Flush");
    trace::counter(5, "depth", 3.0);
    trace::detachRecorder();

    ASSERT_EQ(recorder.spans().size(), 1u);
    EXPECT_EQ(recorder.spans()[0].name, "kept");
    ASSERT_EQ(recorder.counters().size(), 1u);
    EXPECT_EQ(recorder.counters()[0].value, 3.0);
}

TEST(ObsRecorder, IntraThreadConflictSpanCoversTheWait)
{
    // St A | barrier | St A: the second store conflicts with the first
    // epoch and waits for it to persist (Figure 3b). Each intra-thread
    // conflict is one Conflict span over exactly that wait.
    model::SystemConfig cfg = model::SystemConfig::smallTest(4);
    applyPersistencyModel(cfg, model::PersistencyModel::BufferedEpoch,
                          persist::BarrierKind::LB);
    model::System sys(cfg);
    const Addr a = Addr{1} << 32;
    sys.setWorkload(0, std::make_unique<test::Script>(
                           std::vector<cpu::MemOp>{
                               cpu::MemOp::store(a),
                               cpu::MemOp::barrier(),
                               cpu::MemOp::store(a),
                               cpu::MemOp::barrier(),
                           }));
    trace::Recorder recorder("Conflict");
    trace::attachRecorder(&recorder);
    const model::SimResult res = sys.run();
    trace::detachRecorder();
    ASSERT_TRUE(res.completed);

    const JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    const double conflicts =
        exp::sumStat(stats, {"persist", "intraConflicts"});
    EXPECT_EQ(conflicts, 1.0);
    ASSERT_EQ(recorder.spans().size(), conflicts);
    double waited = 0.0;
    for (const trace::Span &s : recorder.spans()) {
        EXPECT_EQ(s.cat, "Conflict");
        EXPECT_EQ(s.track, "persist");
        EXPECT_GT(s.end, s.begin);
        waited += static_cast<double>(s.end - s.begin);
    }
    const JsonValue *wait = stats.get("persist")
                                ->get("distributions")
                                ->get("conflictWait");
    ASSERT_NE(wait, nullptr);
    EXPECT_EQ(waited, wait->get("sum")->asNumber());
}

// ---------------------------------------------------------------------
// Chrome trace export of a real simulation
// ---------------------------------------------------------------------

TEST(ObsExport, TracedRunProducesWellFormedChromeJson)
{
    trace::Recorder recorder("Epoch,Flush,Exec,Mshr,NvmQ",
                             /*counterWindow=*/500);
    runTraced(recorder);
    ASSERT_FALSE(recorder.spans().empty());
    ASSERT_FALSE(recorder.counters().empty());

    const JsonValue doc = exp::chromeTraceJson(recorder, "test");
    const JsonValue *events = doc.get("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_GT(events->size(), 0u);

    // Every B has a stack-matching E on its (pid, tid) track, and
    // timestamps are monotone per track — Perfetto rejects anything
    // less.
    std::map<std::pair<double, double>, std::vector<std::string>> stacks;
    std::map<std::pair<double, double>, double> lastTs;
    for (std::size_t i = 0; i < events->size(); ++i) {
        const JsonValue &e = events->at(i);
        const std::string ph = e.get("ph")->asString();
        if (ph != "B" && ph != "E" && ph != "X" && ph != "C")
            continue;
        const auto key = std::make_pair(e.get("pid")->asNumber(),
                                        e.get("tid")->asNumber());
        const double ts = e.get("ts")->asNumber();
        auto it = lastTs.find(key);
        if (it != lastTs.end()) {
            EXPECT_GE(ts, it->second) << "ts regressed on a track";
        }
        lastTs[key] = ts;
        if (ph == "B") {
            stacks[key].push_back(e.get("name")->asString());
        } else if (ph == "E") {
            ASSERT_FALSE(stacks[key].empty()) << "E without B";
            EXPECT_EQ(stacks[key].back(), e.get("name")->asString());
            stacks[key].pop_back();
        }
    }
    for (const auto &[key, stack] : stacks)
        EXPECT_TRUE(stack.empty()) << "unclosed B events";
}

TEST(ObsExport, EpochSpansOverlapCoreExecutionSpans)
{
    trace::Recorder recorder("Epoch,Exec");
    runTraced(recorder);
    const JsonValue doc = exp::chromeTraceJson(recorder, "test");
    const auto spans = collectSpans(doc);

    std::vector<SpanInterval> epochs;
    std::vector<SpanInterval> execs;
    for (const SpanInterval &s : spans) {
        if (s.name.rfind("epoch ", 0) == 0)
            epochs.push_back(s);
        else if (s.name == "execute")
            execs.push_back(s);
    }
    ASSERT_FALSE(epochs.empty());
    ASSERT_FALSE(execs.empty());

    // The point of the span view: epochs persist in the background
    // while cores execute, so at least one epoch span must overlap a
    // core-execution span.
    bool overlap = false;
    for (const SpanInterval &e : epochs) {
        for (const SpanInterval &x : execs)
            overlap |= e.begin < x.end && x.begin < e.end;
    }
    EXPECT_TRUE(overlap);
}

TEST(ObsExport, CounterTracksArePresentAndMonotone)
{
    trace::Recorder recorder("Epoch", /*counterWindow=*/400);
    runTraced(recorder);
    const JsonValue doc = exp::chromeTraceJson(recorder, "test");
    const JsonValue *events = doc.get("traceEvents");

    std::map<std::string, double> lastTs;
    std::map<std::string, std::size_t> samples;
    for (std::size_t i = 0; i < events->size(); ++i) {
        const JsonValue &e = events->at(i);
        if (e.get("ph")->asString() != "C")
            continue;
        const std::string name = e.get("name")->asString();
        const double ts = e.get("ts")->asNumber();
        auto it = lastTs.find(name);
        if (it != lastTs.end()) {
            EXPECT_GT(ts, it->second) << name;
        }
        lastTs[name] = ts;
        ++samples[name];
    }
    for (const char *track :
         {"ipc", "epochsInFlight", "mshrOccupancy", "llcQueueDepth",
          "nvmQueueDepth", "nocLinkUtil"}) {
        EXPECT_GT(samples[track], 0u) << track;
    }
}

TEST(ObsExport, OverlappingSpansSplayIntoLanes)
{
    // Two overlapping spans on one track cannot legally nest as B/E
    // pairs, so the exporter must splay them onto separate lanes.
    trace::Recorder recorder("all");
    trace::attachRecorder(&recorder);
    trace::span(0, 100, "t", "a", "Epoch");
    trace::span(50, 150, "t", "b", "Epoch");
    trace::detachRecorder();

    const JsonValue doc = exp::chromeTraceJson(recorder, "test");
    const JsonValue *events = doc.get("traceEvents");
    std::map<std::string, double> beginTid;
    std::vector<std::string> laneNames;
    for (std::size_t i = 0; i < events->size(); ++i) {
        const JsonValue &e = events->at(i);
        if (e.get("ph")->asString() == "B")
            beginTid[e.get("name")->asString()] =
                e.get("tid")->asNumber();
        if (e.get("ph")->asString() == "M" &&
            e.get("name")->asString() == "thread_name") {
            laneNames.push_back(
                e.get("args")->get("name")->asString());
        }
    }
    ASSERT_EQ(beginTid.count("a"), 1u);
    ASSERT_EQ(beginTid.count("b"), 1u);
    EXPECT_NE(beginTid["a"], beginTid["b"]);
    EXPECT_NE(std::find(laneNames.begin(), laneNames.end(), "t #2"),
              laneNames.end());
}

TEST(ObsExport, CounterCsvHasHeaderAndOneRowPerWindow)
{
    trace::Recorder recorder("Epoch", /*counterWindow=*/500);
    runTraced(recorder);
    std::ostringstream os;
    exp::writeCounterCsv(os, recorder.counters());
    std::istringstream is(os.str());
    std::string header;
    ASSERT_TRUE(std::getline(is, header));
    EXPECT_EQ(header.rfind("tick,", 0), 0u);
    EXPECT_NE(header.find("epochsInFlight"), std::string::npos);
    std::size_t rows = 0;
    std::string line;
    while (std::getline(is, line))
        ++rows;
    EXPECT_GT(rows, 1u);
}

// ---------------------------------------------------------------------
// Component[index] track naming
// ---------------------------------------------------------------------

TEST(ObsNaming, StatKeysUseComponentIndexScheme)
{
    trace::Recorder recorder("Epoch");
    runTraced(recorder);

    model::SystemConfig cfg = model::SystemConfig::smallTest(2);
    applyPersistencyModel(cfg, model::PersistencyModel::BufferedStrict,
                          persist::BarrierKind::LB, 50);
    model::System sys(cfg);
    auto workloads = workload::makeSyntheticWorkloads("canneal", 2, 60, 1);
    for (unsigned t = 0; t < 2; ++t)
        sys.setWorkload(static_cast<CoreId>(t), std::move(workloads[t]));
    sys.run();

    const JsonValue stats = exp::statGroupsToJson(sys.statGroups());
    bool sawArbiter = false;
    bool sawRouter = false;
    // Every stat key: each scalar, and each field of each distribution.
    std::vector<std::string> keys;
    for (const auto &[group, entry] : stats.members()) {
        keys.push_back(group + ".");
        for (const auto &[scalar, value] : entry.get("scalars")->members())
            keys.push_back(group + "." + scalar);
        for (const auto &[dist, fields] :
             entry.get("distributions")->members()) {
            for (const auto &[field, value] : fields.members())
                keys.push_back(group + "." + dist + "." + field);
        }
    }
    for (const std::string &key : keys) {
        sawArbiter |= key.rfind("persist.arbiter[0].", 0) == 0;
        sawRouter |= key.find("mesh.router[0].") != std::string::npos;
        // The old un-bracketed scheme must be gone.
        EXPECT_EQ(key.find("persist.arbiter0"), std::string::npos);
        EXPECT_EQ(key.find("mesh.r0."), std::string::npos);
    }
    EXPECT_TRUE(sawArbiter);
    EXPECT_TRUE(sawRouter);
}

// ---------------------------------------------------------------------
// Host telemetry
// ---------------------------------------------------------------------

TEST(ObsTelemetry, RssProbesReadProcSelfStatus)
{
    const std::uint64_t current = exp::currentRssKb();
    const std::uint64_t peak = exp::peakRssKb();
    EXPECT_GT(current, 0u);
    EXPECT_GE(peak, current);
}

TEST(ObsTelemetry, SweepRunnerFillsTelemetry)
{
    Sweep sweep = exp::figureSweep(13, 10, 2, 1);
    sweep.jobs.resize(4);

    exp::RunnerOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    exp::SweepRunner runner(opts);
    runner.run(sweep);

    const exp::SweepTelemetry &tel = runner.telemetry();
    EXPECT_EQ(tel.sweep, "fig13");
    EXPECT_EQ(tel.workers, 2u);
    ASSERT_EQ(tel.jobs.size(), 4u);
    EXPECT_GT(tel.peakRssKb, 0u);
    EXPECT_GT(tel.totalEvents(), 0u);
    EXPECT_EQ(tel.failedJobs(), 0u);
    for (const exp::JobTelemetry &jt : tel.jobs) {
        EXPECT_EQ(jt.state, exp::JobState::Done);
        EXPECT_EQ(jt.attempts, 1u);
        EXPECT_GT(jt.events, 0u);
        EXPECT_GT(jt.rssAfterKb, 0u);
        EXPECT_LT(jt.worker, 2u);
    }

    const JsonValue doc = tel.toJson();
    EXPECT_EQ(doc.get("jobs")->size(), 4u);
    EXPECT_NE(tel.summaryLine().find("4 jobs"), std::string::npos);
}

TEST(ObsTelemetry, JobStateNamesAreStable)
{
    EXPECT_STREQ(exp::jobStateName(exp::JobState::Queued), "queued");
    EXPECT_STREQ(exp::jobStateName(exp::JobState::Running), "running");
    EXPECT_STREQ(exp::jobStateName(exp::JobState::Retrying), "retrying");
    EXPECT_STREQ(exp::jobStateName(exp::JobState::Done), "done");
    EXPECT_STREQ(exp::jobStateName(exp::JobState::Failed), "failed");
}

// ---------------------------------------------------------------------
// Determinism with tracing on
// ---------------------------------------------------------------------

TEST(ObsDeterminism, TracedRunMatchesUntracedResult)
{
    // The probes and the interval sampler observe; they must not
    // change a single event of the simulation itself.
    trace::Recorder recorder("all", /*counterWindow=*/300);
    const model::SimResult traced = runTraced(recorder);

    model::SystemConfig cfg = model::SystemConfig::smallTest(2);
    applyPersistencyModel(cfg, model::PersistencyModel::BufferedStrict,
                          persist::BarrierKind::LBPP, 50);
    model::System sys(cfg);
    auto workloads = workload::makeSyntheticWorkloads("canneal", 2, 120, 1);
    for (unsigned t = 0; t < 2; ++t)
        sys.setWorkload(static_cast<CoreId>(t), std::move(workloads[t]));
    const model::SimResult plain = sys.run();

    EXPECT_EQ(traced.execTicks, plain.execTicks);
    EXPECT_EQ(traced.events, plain.events);
}

} // namespace persim
