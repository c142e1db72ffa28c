/**
 * @file
 * Tests for the experiment-orchestration subsystem (src/exp) and the
 * observability hooks it relies on: the JSON writer's exact text, CSV
 * escaping, Distribution percentiles, parallel-sweep determinism,
 * job-failure isolation, the job pool, and Chrome-trace export.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <chrono>
#include <limits>
#include <map>
#include <sstream>
#include <thread>

#include "exp/figures.hh"
#include "exp/json.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "exp/stats_export.hh"
#include "exp/trace_export.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace persim
{

using exp::ExperimentSpec;
using exp::JobOutcome;
using exp::JsonValue;
using exp::Sweep;

// ---------------------------------------------------------------------
// JSON document model
// ---------------------------------------------------------------------

TEST(ExpJson, DocumentRendersExactText)
{
    JsonValue doc = JsonValue::object();
    doc["string"] = JsonValue("plain");
    doc["escaped"] = JsonValue("quote\" slash\\ nl\n tab\t");
    doc["int"] = JsonValue(std::uint64_t{12345});
    doc["neg"] = JsonValue(-17.0);
    doc["frac"] = JsonValue(0.3);
    doc["tiny"] = JsonValue(1.25e-10);
    doc["yes"] = JsonValue(true);
    doc["null"] = JsonValue();
    JsonValue arr = JsonValue::array();
    arr.push(JsonValue(1.0));
    arr.push(JsonValue("two"));
    arr.push(JsonValue::object());
    doc["arr"] = std::move(arr);

    EXPECT_EQ(doc.dump(0),
              R"({"string":"plain","escaped":"quote\" slash\\ nl\n tab\t",)"
              R"("int":12345,"neg":-17,"frac":0.3,"tiny":1.25e-10,)"
              R"("yes":true,"null":null,"arr":[1,"two",{}]})");
    EXPECT_EQ(doc.dump(2), R"({
  "string": "plain",
  "escaped": "quote\" slash\\ nl\n tab\t",
  "int": 12345,
  "neg": -17,
  "frac": 0.3,
  "tiny": 1.25e-10,
  "yes": true,
  "null": null,
  "arr": [
    1,
    "two",
    {}
  ]
})");
}

TEST(ExpJson, StringEscapesMatchExactText)
{
    auto literal = [](const std::string &s) {
        std::ostringstream os;
        exp::writeJsonString(os, s);
        return os.str();
    };
    EXPECT_EQ(literal("plain"), R"("plain")");
    EXPECT_EQ(literal("a\"b"), R"("a\"b")");
    EXPECT_EQ(literal("a\\b"), R"("a\\b")");
    EXPECT_EQ(literal("a\nb\tc\rd"), R"("a\nb\tc\rd")");
    // Other control bytes become \u00XX; bytes >= 0x20 pass through.
    EXPECT_EQ(literal(std::string("\x01|\x1f|\x7f", 5)),
              "\"\\u0001|\\u001f|\x7f\"");
    EXPECT_EQ(literal(std::string("nul\0", 4)), R"("nul\u0000")");
}

TEST(ExpJson, NumbersReadBackBitExactly)
{
    Distribution d(nullptr, "d", "test");
    for (double v : {1.0, 1.0, 2.0})
        d.sample(v);
    // 2^53 + 1 is not a double: the literal rounds to 2^53. 2^53 + 2
    // is, and takes the integral path.
    for (double v : {0.3, 1.25e-10, -17.0, 9007199254740993.0,
                     9007199254740994.0, 1e300,
                     std::numeric_limits<double>::denorm_min(), d.mean(),
                     d.stdev()}) {
        std::ostringstream os;
        exp::writeJsonNumber(os, v);
        const std::string text = os.str();
        double back = 0.0;
        const auto res =
            std::from_chars(text.data(), text.data() + text.size(), back);
        ASSERT_EQ(res.ec, std::errc()) << text;
        EXPECT_EQ(res.ptr, text.data() + text.size()) << text;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
                  std::bit_cast<std::uint64_t>(v))
            << text;
    }
}

TEST(ExpJson, IntegralNumbersSerializeWithoutFraction)
{
    EXPECT_EQ(JsonValue(300.0).dump(0), "300");
    EXPECT_EQ(JsonValue(std::uint64_t{0}).dump(0), "0");
    EXPECT_EQ(JsonValue(-17.0).dump(0), "-17");
    EXPECT_EQ(JsonValue(std::uint64_t{1} << 53).dump(0),
              "9007199254740992");
    EXPECT_EQ(JsonValue(1e18).dump(0), "1000000000000000000");
    EXPECT_NE(JsonValue(0.5).dump(0).find('.'), std::string::npos);
}

TEST(ExpJson, ObjectPreservesInsertionOrder)
{
    JsonValue doc = JsonValue::object();
    doc["zebra"] = JsonValue(1.0);
    doc["alpha"] = JsonValue(2.0);
    const std::string text = doc.dump(0);
    EXPECT_LT(text.find("zebra"), text.find("alpha"));
}

// ---------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------

TEST(ExpCsv, EscapesSpecialFields)
{
    std::ostringstream os;
    exp::writeCsv(os, {"name", "value"},
                  {{"plain", "1"},
                   {"has,comma", "2"},
                   {"has\"quote", "3"}});
    EXPECT_EQ(os.str(), "name,value\n"
                        "plain,1\n"
                        "\"has,comma\",2\n"
                        "\"has\"\"quote\",3\n");
}

// ---------------------------------------------------------------------
// Distribution percentiles
// ---------------------------------------------------------------------

TEST(ExpPercentiles, SmallValuesAreExact)
{
    Distribution d(nullptr, "d", "test");
    // 1..10 once each: small values land in exact unit buckets.
    for (int v = 1; v <= 10; ++v)
        d.sample(v);
    EXPECT_EQ(d.percentile(10), 1.0);
    EXPECT_EQ(d.percentile(50), 5.0);
    EXPECT_EQ(d.percentile(100), 10.0);
    EXPECT_EQ(d.p50(), 5.0);
}

TEST(ExpPercentiles, LogBucketsBoundRelativeError)
{
    Distribution d(nullptr, "d", "test");
    for (int v = 1; v <= 10000; ++v)
        d.sample(v);
    // 8 sub-buckets per octave: <= 12.5% relative error, upper-biased.
    EXPECT_GE(d.p50(), 5000.0 * 0.99);
    EXPECT_LE(d.p50(), 5000.0 * 1.13);
    EXPECT_GE(d.p95(), 9500.0 * 0.99);
    EXPECT_LE(d.p95(), 9500.0 * 1.13);
    EXPECT_GE(d.p99(), 9900.0 * 0.99);
    EXPECT_LE(d.p99(), 9900.0 * 1.13);
    // Extremes clamp to the observed range.
    EXPECT_EQ(d.percentile(0), 1.0);
    EXPECT_EQ(d.percentile(100), 10000.0);
}

TEST(ExpPercentiles, EmptyAndResetBehave)
{
    Distribution d(nullptr, "d", "test");
    EXPECT_EQ(d.p99(), 0.0);
    d.sample(42);
    EXPECT_EQ(d.p50(), 42.0);
    d.reset();
    EXPECT_EQ(d.p50(), 0.0);
}

// ---------------------------------------------------------------------
// Stat tree serialization
// ---------------------------------------------------------------------

TEST(ExpStatsExport, StatTreeHoldsScalarsAndDistributions)
{
    StatGroup g("grp");
    Scalar loads(&g, "loads", "load count");
    Scalar stores(&g, "stores", "store count");
    Distribution lat(&g, "latency", "latency dist");
    loads.inc(7);
    stores.inc(3);
    for (int v = 1; v <= 100; ++v)
        lat.sample(v);

    const JsonValue doc = exp::statGroupsToJson({&g});

    const JsonValue *grp = doc.get("grp");
    ASSERT_NE(grp, nullptr);
    EXPECT_EQ(grp->get("scalars")->get("loads")->asNumber(), 7.0);
    EXPECT_EQ(grp->get("scalars")->get("stores")->asNumber(), 3.0);
    const JsonValue *d = grp->get("distributions")->get("latency");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->get("count")->asNumber(), 100.0);
    EXPECT_EQ(d->get("mean")->asNumber(), lat.mean());
    EXPECT_EQ(d->get("stdev")->asNumber(), lat.stdev());
    EXPECT_EQ(d->get("min")->asNumber(), 1.0);
    EXPECT_EQ(d->get("max")->asNumber(), 100.0);
    EXPECT_EQ(d->get("p50")->asNumber(), lat.p50());
    EXPECT_EQ(d->get("p99")->asNumber(), lat.p99());
}

// ---------------------------------------------------------------------
// Spec / sweep expansion
// ---------------------------------------------------------------------

TEST(ExpSpec, FigureSweepsHaveTheRightShape)
{
    EXPECT_EQ(exp::figureSweep(11).jobs.size(), 5u * 4u);
    EXPECT_EQ(exp::figureSweep(12).jobs.size(), 5u * 4u);
    EXPECT_EQ(exp::figureSweep(13).jobs.size(), 9u * 4u);
    EXPECT_EQ(exp::figureSweep(14).jobs.size(), 9u * 5u);
    EXPECT_THROW(exp::figureSweep(99), SimFatal);
    // Figures answer to their bare number too.
    EXPECT_EQ(&exp::findGrid("11"), &exp::findGrid("fig11"));
    EXPECT_THROW(exp::findGrid("abl-none"), SimFatal);
}

TEST(ExpSpec, CrossSeedsExpandsDeterministically)
{
    Sweep sweep = exp::figureSweep(11, 50, 4, 3);
    const std::size_t base = sweep.jobs.size();
    sweep.crossSeeds({0, 1, 2});
    ASSERT_EQ(sweep.jobs.size(), base * 3);
    EXPECT_EQ(sweep.jobs[0].seed, exp::mixSeed(3, 0));
    EXPECT_EQ(sweep.jobs[1].seed, exp::mixSeed(3, 1));
    EXPECT_NE(sweep.jobs[0].seed, sweep.jobs[1].seed);
    // mixSeed is a pure function.
    EXPECT_EQ(exp::mixSeed(3, 1), exp::mixSeed(3, 1));
}

// ---------------------------------------------------------------------
// Job pool
// ---------------------------------------------------------------------

TEST(ExpPool, EveryJobRunsExactlyOnce)
{
    const std::size_t jobs = 103;
    std::vector<std::atomic<int>> runs(jobs);
    exp::runJobs(4, jobs, [&](std::size_t job, unsigned) { ++runs[job]; });
    for (std::size_t j = 0; j < jobs; ++j)
        EXPECT_EQ(runs[j].load(), 1) << "job " << j;
}

TEST(ExpPool, StealingDrainsAnImbalancedLoad)
{
    // 2 workers, 8 jobs; job 0 holds its worker until the other seven
    // have run. The shared index must let the free worker drain them
    // all, where a fixed deal of jobs to workers would leave half of
    // them behind the stuck one.
    std::atomic<int> total{0};
    bool othersDrained = false;
    exp::runJobs(2, 8, [&](std::size_t job, unsigned) {
        if (job == 0) {
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (total.load() < 7 &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::yield();
            othersDrained = total.load() == 7;
        }
        ++total;
    });
    EXPECT_TRUE(othersDrained);
    EXPECT_EQ(total.load(), 8);
}

TEST(ExpPool, OneWorkerRunsInGridOrder)
{
    // A serial sweep runs its cells head first, so its "[done/total]"
    // progress lines list them in grid order.
    std::vector<std::size_t> order;
    exp::runJobs(1, 8, [&](std::size_t job, unsigned) {
        order.push_back(job);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

// ---------------------------------------------------------------------
// Runner: determinism and isolation
// ---------------------------------------------------------------------

namespace
{

Sweep
tinySweep()
{
    // The full fig11 grid, scaled down for test runtime.
    return exp::figureSweep(11, /*ops=*/25, /*cores=*/4, /*seed=*/7);
}

} // namespace

TEST(ExpRunner, ParallelSweepIsByteIdenticalToSerial)
{
    const Sweep sweep = tinySweep();

    exp::RunnerOptions serial;
    serial.jobs = 1;
    serial.progress = false;
    exp::SweepRunner r1(serial);
    auto out1 = r1.run(sweep);

    exp::RunnerOptions parallel;
    parallel.jobs = 8;
    parallel.progress = false;
    exp::SweepRunner r8(parallel);
    auto out8 = r8.run(sweep);

    ASSERT_EQ(out1.size(), sweep.jobs.size());
    const std::string json1 = exp::sweepToJson(sweep, out1).dump(2);
    const std::string json8 = exp::sweepToJson(sweep, out8).dump(2);
    EXPECT_EQ(json1, json8);

    // The figure table is identical too.
    const std::string t1 =
        exp::figureTableToJson(exp::figureTable("fig11", out1)).dump(2);
    const std::string t8 =
        exp::figureTableToJson(exp::figureTable("fig11", out8)).dump(2);
    EXPECT_EQ(t1, t8);
}

TEST(ExpRunner, Fig13LbCellIsDeterministicAcrossRunsAndJobCounts)
{
    // The determinism oracle for kernel hot-path changes: the fig13 LB
    // cell (small scale) must produce byte-identical JSON run-to-run
    // and at any worker count. Any nondeterminism introduced into the
    // event kernel (tie-break order, allocation-dependent behaviour)
    // shows up here as a diff.
    Sweep sweep = exp::figureSweep(13, /*ops=*/200, /*cores=*/4,
                                   /*seed=*/1);
    std::erase_if(sweep.jobs, [](const ExperimentSpec &s) {
        return s.configLabel != "LB300";
    });
    ASSERT_FALSE(sweep.jobs.empty());

    auto runAt = [&](unsigned workers) {
        exp::RunnerOptions opts;
        opts.jobs = workers;
        opts.progress = false;
        exp::SweepRunner r(opts);
        auto out = r.run(sweep);
        return exp::sweepToJson(sweep, out).dump(2);
    };

    const std::string first = runAt(1);
    const std::string again = runAt(1);
    const std::string parallel = runAt(8);
    EXPECT_EQ(first, again);
    EXPECT_EQ(first, parallel);
}

TEST(ExpRunner, FailedJobDoesNotKillTheSweep)
{
    Sweep sweep;
    sweep.name = "isolation";
    ExperimentSpec good;
    good.workload = "hash";
    good.configLabel = "LB";
    good.barrier = persist::BarrierKind::LB;
    good.cores = 4;
    good.ops = 20;

    ExperimentSpec bad = good;
    bad.workload = "no-such-workload";
    bad.configLabel = "LB";

    sweep.jobs = {good, bad, good};

    exp::RunnerOptions opts;
    opts.jobs = 2;
    opts.maxAttempts = 2;
    opts.progress = false;
    exp::SweepRunner runner(opts);
    auto outcomes = runner.run(sweep);

    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_TRUE(outcomes[0].result.completed);
    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_EQ(outcomes[1].attempts, 2u); // retried, then recorded
    EXPECT_NE(outcomes[1].error.find("no-such-workload"),
              std::string::npos);
    EXPECT_TRUE(outcomes[2].ok);

    // Failure status is part of the serialized sweep.
    JsonValue doc = exp::sweepToJson(sweep, outcomes,
                                     /*includeStats=*/false);
    EXPECT_EQ(doc.get("failed")->asNumber(), 1.0);
    EXPECT_FALSE(doc.get("jobs")->at(1).get("ok")->asBool());
}

TEST(ExpRunner, CellsWithoutTreesWriteTheSameTableAndDocument)
{
    // fig14's table reads only SimResult, so a --no-stats run keeps no
    // tree: the table and the stat-free document must not notice.
    const Sweep sweep = exp::figureSweep(14, /*ops=*/40, /*cores=*/4);
    ASSERT_FALSE(exp::findGrid("fig14").reduce.readsStats());
    auto runWith = [&](bool keep) {
        exp::RunnerOptions opts;
        opts.jobs = 2;
        opts.progress = false;
        opts.keepStatTrees = keep;
        exp::SweepRunner runner(opts);
        return runner.run(sweep);
    };
    const std::vector<JobOutcome> kept = runWith(true);
    const std::vector<JobOutcome> bare = runWith(false);
    for (const JobOutcome &o : bare) {
        EXPECT_TRUE(o.ok) << o.spec.id() << ": " << o.error;
        EXPECT_TRUE(o.statTree.isNull()) << o.spec.id();
    }
    EXPECT_EQ(
        exp::figureTableToJson(exp::figureTable("fig14", kept)).dump(2),
        exp::figureTableToJson(exp::figureTable("fig14", bare)).dump(2));
    EXPECT_EQ(exp::sweepToJson(sweep, kept, false).dump(2),
              exp::sweepToJson(sweep, bare, false).dump(2));
    // A document with stats is refused rather than written without
    // its groups.
    EXPECT_THROW(exp::sweepToJson(sweep, bare, true), SimFatal);
}

TEST(ExpRunner, Fig11TableNormalizesLbToOne)
{
    exp::RunnerOptions opts;
    opts.jobs = 4;
    opts.progress = false;
    exp::SweepRunner runner(opts);
    const Sweep sweep = tinySweep();
    auto outcomes = runner.run(sweep);
    for (const JobOutcome &o : outcomes) {
        EXPECT_TRUE(o.ok) << o.spec.id() << ": " << o.error;
        EXPECT_TRUE(o.result.completed) << o.spec.id();
        EXPECT_TRUE(o.result.violations.empty()) << o.spec.id();
    }

    const exp::FigureTable table = exp::figureTable("fig11", outcomes);
    ASSERT_EQ(table.rows.size(), 5u);
    ASSERT_EQ(table.cols.size(), 4u);
    ASSERT_EQ(table.cols[0], "LB");
    for (std::size_t r = 0; r < table.rows.size(); ++r)
        EXPECT_DOUBLE_EQ(table.cells[r][0], 1.0) << table.rows[r];

    // CSV has header + 5 workloads + mean row.
    std::ostringstream csv;
    exp::figureTableToCsv(csv, table);
    std::istringstream in(csv.str());
    std::string line;
    int lines = 0;
    while (std::getline(in, line))
        ++lines;
    EXPECT_EQ(lines, 7);
}

// ---------------------------------------------------------------------
// Grid registry
// ---------------------------------------------------------------------

namespace
{

std::vector<JobOutcome>
runQuiet(const Sweep &sweep)
{
    exp::RunnerOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    exp::SweepRunner runner(opts);
    return runner.run(sweep);
}

std::size_t
colIndex(const exp::FigureTable &table, const std::string &col)
{
    const auto it = std::find(table.cols.begin(), table.cols.end(), col);
    EXPECT_NE(it, table.cols.end()) << col;
    return static_cast<std::size_t>(it - table.cols.begin());
}

} // namespace

TEST(GridRegistry, EveryGridRunsCleanAndFillsItsTable)
{
    for (const exp::Grid &grid : exp::grids()) {
        SCOPED_TRACE(grid.name);
        const Sweep sweep =
            exp::figureSweep(grid.name, /*ops=*/40, /*cores=*/4);
        ASSERT_EQ(sweep.jobs.size(),
                  grid.workloads.size() * grid.configs.size());
        const std::vector<JobOutcome> outcomes = runQuiet(sweep);
        for (const JobOutcome &o : outcomes) {
            EXPECT_TRUE(o.ok) << o.spec.id() << ": " << o.error;
            EXPECT_TRUE(o.result.completed) << o.spec.id();
            EXPECT_TRUE(o.result.violations.empty()) << o.spec.id();
        }

        // 0.0 marks a missing cell; it may appear only where the
        // cell's own metric really is 0 (no stalls, no overflows).
        // A stat key that matches nothing throws here instead.
        const exp::FigureTable table =
            exp::figureTable(grid.name, outcomes);
        ASSERT_EQ(table.rows, grid.workloads);
        for (std::size_t r = 0; r < table.rows.size(); ++r) {
            for (std::size_t c = 0; c < table.cols.size(); ++c) {
                if (table.cells[r][c] != 0.0)
                    continue;
                const auto o = std::find_if(
                    outcomes.begin(), outcomes.end(),
                    [&](const JobOutcome &x) {
                        return x.spec.workload == table.rows[r] &&
                               x.spec.configLabel == table.cols[c];
                    });
                ASSERT_NE(o, outcomes.end())
                    << table.rows[r] << "/" << table.cols[c];
                EXPECT_EQ(exp::metricValue(grid.reduce, *o), 0.0)
                    << o->spec.id();
            }
        }

        // Without stat trees, a table that reads no stats is unchanged
        // and one that does is refused: readsStats() is the exact bit
        // that lets a --no-stats sweep drop its trees.
        std::vector<JobOutcome> bare = outcomes;
        for (JobOutcome &o : bare)
            o.statTree = JsonValue();
        if (grid.reduce.readsStats()) {
            EXPECT_THROW(exp::figureTable(grid.name, bare), SimFatal);
        } else {
            EXPECT_EQ(
                exp::figureTableToJson(table).dump(0),
                exp::figureTableToJson(exp::figureTable(grid.name, bare))
                    .dump(0));
        }
    }
}

TEST(GridRegistry, SmallerEpochWindowStallsMoreBarriers)
{
    // The stalls are summed over persist.arbiter[c]; a reader of the
    // wrong key would see 0 at every window.
    const Sweep sweep =
        exp::figureSweep("abl-epoch-window", /*ops=*/60, /*cores=*/4);
    const exp::FigureTable table =
        exp::figureTable(sweep.name, runQuiet(sweep));
    ASSERT_EQ(table.rows.size(), 1u);
    const double w2 = table.cells[0][colIndex(table, "w2")];
    const double w8 = table.cells[0][colIndex(table, "w8")];
    EXPECT_GT(w8, 0.0);
    EXPECT_GT(w2, w8);
}

TEST(GridRegistry, StatRefThatMatchesNothingIsFatal)
{
    JobOutcome o;
    o.ok = true;
    // One scalar per group, laid out as statGroupsToJson writes it.
    auto group = [](const char *scalar, int value) {
        JsonValue scalars = JsonValue::object();
        scalars[scalar] = JsonValue(value);
        JsonValue g = JsonValue::object();
        g["scalars"] = std::move(scalars);
        return g;
    };
    o.statTree = JsonValue::object();
    o.statTree["persist.arbiter[0]"] = group("barrierStalls", 3);
    o.statTree["persist.arbiter[1]"] = group("barrierStalls", 4);
    o.statTree["persist"] = group("interConflicts", 0);
    exp::Reduction reduce;
    reduce.metric = exp::Reduction::Metric::Stat;

    reduce.stats = {{"persist.arbiter[*]", "barrierStalls"}};
    EXPECT_EQ(exp::metricValue(reduce, o), 7.0);
    // A stat that exists but is 0 is a real 0, not a missing key.
    reduce.stats = {{"persist", "interConflicts"}};
    EXPECT_EQ(exp::metricValue(reduce, o), 0.0);

    // The pre-registry key, a wrong scalar and a wrong group.
    for (const exp::StatRef &stale :
         {exp::StatRef{"persist.arbiter0", "barrierStalls"},
          exp::StatRef{"persist.arbiter[*]", "barrierStall"},
          exp::StatRef{"mc[*]", "nvram.writes"}}) {
        reduce.stats = {stale};
        EXPECT_THROW(exp::metricValue(reduce, o), SimFatal)
            << stale.group << "." << stale.scalar;
    }
    reduce.stats = {{"persist", "interConflicts"}};
    reduce.percentOf = {{"persist", "intraConflicts"}};
    EXPECT_THROW(exp::metricValue(reduce, o), SimFatal);
}

TEST(GridRegistry, KnobsReachTheSystemConfigAndTheJson)
{
    const Sweep sweep = exp::figureSweep("abl-replacement", 0, 4);
    const ExperimentSpec &spec = sweep.jobs.back(); // random-noavoid
    const model::SystemConfig cfg = spec.toSystemConfig();
    EXPECT_EQ(cfg.llcBank.geometry.sizeBytes, 16u * 1024u);
    EXPECT_EQ(cfg.llcBank.geometry.policy,
              cache::ReplacementPolicy::Random);
    EXPECT_EQ(cfg.l1.geometry.policy, cache::ReplacementPolicy::Random);
    EXPECT_FALSE(cfg.barrier.avoidTaggedVictims);
    const JsonValue json = spec.toJson();
    EXPECT_EQ(json.get("replacementPolicy")->asString(), "random");
    EXPECT_FALSE(json.get("avoidTaggedVictims")->asBool());

    // Knobs left at their defaults are not serialized.
    const JsonValue plain = exp::figureSweep(11).jobs.front().toJson();
    EXPECT_EQ(plain.get("maxInflightEpochs"), nullptr);
    EXPECT_EQ(plain.get("llcBankBytes"), nullptr);
}

// ---------------------------------------------------------------------
// Trace capture and Chrome export
// ---------------------------------------------------------------------

TEST(ExpTrace, RecorderCapturesAndExportsChromeJson)
{
    ExperimentSpec spec;
    spec.workload = "hash";
    spec.configLabel = "LB++";
    spec.barrier = persist::BarrierKind::LBPP;
    spec.cores = 4;
    spec.ops = 20;

    trace::Recorder recorder("all");
    trace::attachRecorder(&recorder);
    JobOutcome outcome = exp::runJob(spec);
    trace::detachRecorder();

    ASSERT_TRUE(outcome.ok) << outcome.error;
    ASSERT_FALSE(recorder.spans().empty());

    const JsonValue doc = exp::chromeTraceJson(recorder, "test/hash");
    const JsonValue *events = doc.get("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_GT(events->size(), recorder.spans().size());

    // Span timestamps never decrease on a lane; every span event
    // carries a category and a track.
    std::map<double, double> lastTs; // tid -> last ts
    double maxTs = 0.0;
    for (std::size_t i = 0; i < events->size(); ++i) {
        const JsonValue &ev = events->at(i);
        const std::string ph = ev.get("ph")->asString();
        if (ph != "B" && ph != "E" && ph != "X")
            continue;
        ASSERT_NE(ev.get("tid"), nullptr);
        const double tid = ev.get("tid")->asNumber();
        const double ts = ev.get("ts")->asNumber();
        if (lastTs.contains(tid)) {
            EXPECT_GE(ts, lastTs[tid]);
        }
        lastTs[tid] = ts;
        maxTs = std::max(maxTs, ts);
        EXPECT_FALSE(ev.get("cat")->asString().empty());
    }
    EXPECT_GT(maxTs, 0.0);
}

TEST(ExpTrace, RecorderFlagFilteringWorks)
{
    trace::Recorder recorder("Epoch,Flush");
    EXPECT_TRUE(recorder.wants("Epoch"));
    EXPECT_TRUE(recorder.wants("Flush"));
    EXPECT_FALSE(recorder.wants("Conflict"));
    trace::Recorder all("all");
    EXPECT_TRUE(all.wants("anything"));
    // Only the span categories exist; a typo is refused, not ignored.
    EXPECT_THROW(trace::Recorder("Epoch,Flsh"), SimFatal);
    EXPECT_THROW(trace::Recorder("Evict"), SimFatal);
}

} // namespace persim
