/**
 * @file
 * persim_sweep — parallel experiment-orchestration driver.
 *
 * Regenerates any registered grid (a paper figure, a side table or a
 * §7 ablation; see exp/figures.hh) in one command:
 *
 *   persim_sweep --figure 11 --jobs 8 --out fig11.json
 *   persim_sweep --figure abl-epoch-window --jobs 4 --csv window.csv
 *   persim_sweep --figure 11 --trace fig11.trace.json \
 *                --trace-job hash/LB++/s1 --trace-flags Epoch,Flush
 *
 * The JSON output is deterministic: the same grid, ops, cores, and
 * seed produce byte-identical files at any --jobs value, so sweep
 * artifacts can be diffed across commits (and across serial/parallel
 * runs). Wall-clock and scheduling info never enter --out; use
 * --timing-out for the host-dependent numbers.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>

#include "flags.hh"

#include "exp/figures.hh"
#include "exp/journal.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "exp/trace_export.hh"
#include "prof/profile.hh"
#include "sim/logging.hh"
#include "workload/trace/trace_reader.hh"

using namespace persim;
using persim::tools::parseNum;
using persim::tools::parseNumU32;

namespace
{

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s --figure NAME [options]\n"
        "  --figure NAME     grid to run: a paper figure (fig11..fig14,\n"
        "                    or just 11..14), a side table or an "
        "ablation;\n"
        "                    --list without --figure names them all\n"
        "  --jobs N          worker threads (default 1)\n"
        "  --ops N           operations per thread (default: grid's)\n"
        "  --cores N         simulated cores per job (default 32)\n"
        "  --seed N          base workload seed (default 1)\n"
        "  --seeds N         replicate the grid over N derived seeds;\n"
        "                    figure tables then report mean and 95%% CI\n"
        "  --workload W      keep only grid rows for workload W (a "
        "micro\n"
        "                    name, a synthetic preset, or 'trace' with\n"
        "                    --trace-file)\n"
        "  --trace-file F    with --workload trace: replay the workload "
        "trace\n"
        "                    F (binary or text) through the figure's "
        "config\n"
        "                    axis; core count comes from the trace "
        "header\n"
        "  --capture-dir D   record every job's workload to\n"
        "                    D/<sweep>_<id>.ptrace (id with '/' as '_')\n"
        "  --replay-dir D    replay each job from D/<sweep>_<id>.ptrace\n"
        "                    (the paths --capture-dir writes)\n"
        "  --retries N       extra attempts per failed job (default 1);\n"
        "                    retries back off exponentially (100 ms "
        "base,\n"
        "                    5 s cap)\n"
        "  --job-timeout-ms N  per-job watchdog deadline per attempt;\n"
        "                    over-deadline jobs fail with error "
        "'timeout'\n"
        "                    (0 = no watchdog, the default)\n"
        "  --isolate         fork every job into a sandbox child so a\n"
        "                    segfault/abort/OOM kills one cell, not the\n"
        "                    sweep (incompatible with --trace)\n"
        "  --resume          resume an interrupted run from "
        "<out>.journal:\n"
        "                    journaled cells are merged, only the rest "
        "run;\n"
        "                    output is byte-identical to an "
        "uninterrupted\n"
        "                    run (needs --out; refuses a changed grid)\n"
        "  --out FILE        write the sweep JSON (default: stdout "
        "summary only);\n"
        "                    completed cells are journaled to "
        "FILE.journal\n"
        "                    until the final atomic rename\n"
        "  --csv FILE        write the figure table as CSV\n"
        "  --no-stats        omit per-job stat trees from the JSON\n"
        "  --only PATTERN    run only jobs whose id contains PATTERN\n"
        "                    (substring match on \"<workload>/<config>/"
        "s<seed>\")\n"
        "  --timing-out FILE write host telemetry JSON (wall clock, "
        "per-job\n"
        "                    state, RSS, events/sec; never part of the\n"
        "                    deterministic output)\n"
        "  --trace FILE      write a Chrome/Perfetto trace of one job\n"
        "  --trace-job ID    which job to trace (default: first);\n"
        "                    ID is \"<workload>/<config>/s<seed>\" "
        "(needs --trace)\n"
        "  --trace-flags F   comma-separated span categories "
        "(default all;\n"
        "                    needs --trace)\n"
        "  --interval N      interval-stat window in ticks for the "
        "traced job\n"
        "                    (default 5000; needs --trace)\n"
        "  --interval-csv F  write the interval counter samples as CSV\n"
        "                    (needs --trace)\n"
        "  --shard K/N       run only round-robin shard K of N (1-based);"
        "\n"
        "                    merge shard outputs with jq -s (see "
        "tools/README.md)\n"
        "  --progress        live one-line telemetry to stderr while "
        "running\n"
        "  --prof-out FILE   sample host time per simulator phase "
        "(SIGPROF,\n"
        "                    997 us period) and write the profile "
        "JSON\n"
        "  --list            print the job grid (or, without --figure,\n"
        "                    every grid name and title) and exit\n"
        "  --quiet           no per-job progress lines\n"
        "  --help\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string figure;
    unsigned jobs = 1;
    std::uint64_t ops = 0;
    unsigned cores = 32;
    std::uint64_t seed = 1;
    unsigned numSeeds = 1;
    unsigned retries = 1;
    unsigned jobTimeoutMs = 0;
    bool isolate = false;
    bool resume = false;
    std::string outFile;
    std::string csvFile;
    std::string timingFile;
    std::string traceFile;
    std::string traceJob;
    std::string traceFlags = "all";
    bool traceFlagsSet = false;
    std::string onlyPattern;
    std::string workloadFilter;
    std::string replayTraceFile;
    std::string captureDir;
    std::string replayDir;
    std::string intervalCsvFile;
    std::string profFile;
    unsigned shardIndex = 1;
    unsigned shardCount = 1;
    Tick intervalTicks = 0;
    bool intervalSet = false;
    bool includeStats = true;
    bool listOnly = false;
    bool liveProgress = false;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--workload")
            workloadFilter = value("--workload");
        else if (arg == "--trace-file")
            replayTraceFile = value("--trace-file");
        else if (arg == "--capture-dir")
            captureDir = value("--capture-dir");
        else if (arg == "--replay-dir")
            replayDir = value("--replay-dir");
        else if (arg == "--figure")
            figure = value("--figure");
        else if (arg == "--jobs")
            jobs = parseNumU32("--jobs", value("--jobs"));
        else if (arg == "--ops")
            ops = parseNum("--ops", value("--ops"));
        else if (arg == "--cores")
            cores = parseNumU32("--cores", value("--cores"));
        else if (arg == "--seed")
            seed = parseNum("--seed", value("--seed"));
        else if (arg == "--seeds")
            numSeeds = parseNumU32("--seeds", value("--seeds"));
        else if (arg == "--retries")
            retries = parseNumU32("--retries", value("--retries"));
        else if (arg == "--job-timeout-ms")
            jobTimeoutMs = parseNumU32("--job-timeout-ms",
                                       value("--job-timeout-ms"));
        else if (arg == "--isolate")
            isolate = true;
        else if (arg == "--resume")
            resume = true;
        else if (arg == "--out")
            outFile = value("--out");
        else if (arg == "--csv")
            csvFile = value("--csv");
        else if (arg == "--timing-out")
            timingFile = value("--timing-out");
        else if (arg == "--no-stats")
            includeStats = false;
        else if (arg == "--only")
            onlyPattern = value("--only");
        else if (arg == "--shard") {
            const std::string v = value("--shard");
            if (std::sscanf(v.c_str(), "%u/%u", &shardIndex,
                            &shardCount) != 2 ||
                shardCount == 0 || shardIndex == 0 ||
                shardIndex > shardCount) {
                std::fprintf(stderr,
                             "--shard wants K/N with 1 <= K <= N, got "
                             "'%s'\n",
                             v.c_str());
                return 2;
            }
        } else if (arg == "--progress")
            liveProgress = true;
        else if (arg == "--prof-out")
            profFile = value("--prof-out");
        else if (arg == "--interval") {
            intervalTicks = parseNum("--interval", value("--interval"));
            intervalSet = true;
        } else if (arg == "--interval-csv")
            intervalCsvFile = value("--interval-csv");
        else if (arg == "--trace")
            traceFile = value("--trace");
        else if (arg == "--trace-job")
            traceJob = value("--trace-job");
        else if (arg == "--trace-flags") {
            traceFlags = value("--trace-flags");
            traceFlagsSet = true;
        } else if (arg == "--list")
            listOnly = true;
        else if (arg == "--quiet")
            quiet = true;
        else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    if (figure.empty() && listOnly) {
        for (const exp::Grid &g : exp::grids())
            std::printf("%-26s %s\n", g.name.c_str(), g.title.c_str());
        return 0;
    }
    if (figure.empty()) {
        std::fprintf(stderr, "--figure is required\n");
        usage(argv[0]);
        return 2;
    }
    try {
        exp::findGrid(figure);
    } catch (const SimFatal &e) {
        std::fprintf(stderr, "--figure: %s\n", e.what());
        return 2;
    }

    if (!replayTraceFile.empty() && workloadFilter != "trace") {
        std::fprintf(stderr,
                     "--trace-file needs --workload trace\n");
        return 2;
    }
    if (workloadFilter == "trace" && replayTraceFile.empty()) {
        std::fprintf(stderr,
                     "--workload trace needs --trace-file FILE\n");
        return 2;
    }
    if (isolate && !traceFile.empty()) {
        // Trace events live in the child's memory and the sandbox pipe
        // carries only the outcome document, so this combination would
        // silently write an empty trace.
        std::fprintf(stderr, "--isolate cannot record --trace "
                             "(simulation runs in a child process)\n");
        return 2;
    }
    if (traceFile.empty()) {
        // Each of these shapes the trace capture; without --trace it
        // would be silently ignored (the CSV would hold only a header).
        const std::pair<bool, const char *> needsTrace[] = {
            {!traceJob.empty(), "--trace-job"},
            {traceFlagsSet, "--trace-flags"},
            {intervalSet, "--interval"},
            {!intervalCsvFile.empty(), "--interval-csv"},
        };
        for (const auto &[given, flag] : needsTrace) {
            if (given) {
                std::fprintf(stderr, "%s needs --trace FILE\n", flag);
                return 2;
            }
        }
    }
    try {
        trace::Recorder{traceFlags}; // refuses an unknown category
    } catch (const SimFatal &e) {
        std::fprintf(stderr, "--trace-flags: %s\n", e.what());
        return 2;
    }
    if (resume && outFile.empty()) {
        std::fprintf(stderr, "--resume needs --out FILE (the journal "
                             "lives at FILE.journal)\n");
        return 2;
    }

    try {
        exp::Sweep sweep = exp::figureSweep(figure, ops, cores, seed);

        if (workloadFilter == "trace") {
            // Replace the workload axis with one row replaying the
            // trace through every config of the grid. The trace
            // header fixes the core count and the row's name.
            auto reader = workload::trace::openTrace(replayTraceFile);
            std::vector<exp::ExperimentSpec> rows;
            std::vector<std::string> seenConfigs;
            for (const exp::ExperimentSpec &s : sweep.jobs) {
                if (std::find(seenConfigs.begin(), seenConfigs.end(),
                              s.configLabel) != seenConfigs.end())
                    continue;
                seenConfigs.push_back(s.configLabel);
                exp::ExperimentSpec spec = s;
                spec.workload = reader->meta().name.empty()
                                    ? "trace"
                                    : reader->meta().name;
                spec.cores = reader->meta().threadCount;
                spec.traceFile = replayTraceFile;
                rows.push_back(std::move(spec));
            }
            sweep.jobs = std::move(rows);
            std::fprintf(stderr,
                         "replaying %s (%u thread(s), %llu records) "
                         "over %zu config(s)\n",
                         replayTraceFile.c_str(),
                         reader->meta().threadCount,
                         static_cast<unsigned long long>(
                             reader->totalRecords()),
                         sweep.jobs.size());
        } else if (!workloadFilter.empty()) {
            std::erase_if(sweep.jobs, [&](const auto &spec) {
                return spec.workload != workloadFilter;
            });
            if (sweep.jobs.empty()) {
                std::fprintf(stderr,
                             "--workload '%s' matches no job in %s\n",
                             workloadFilter.c_str(),
                             sweep.name.c_str());
                return 2;
            }
        }

        if (numSeeds > 1) {
            std::vector<std::uint64_t> seeds;
            for (unsigned s = 0; s < numSeeds; ++s)
                seeds.push_back(s);
            sweep.crossSeeds(seeds);
        }

        if (!onlyPattern.empty()) {
            std::erase_if(sweep.jobs, [&](const auto &spec) {
                return spec.id().find(onlyPattern) == std::string::npos;
            });
            if (sweep.jobs.empty()) {
                std::fprintf(stderr,
                             "--only '%s' matches no job in %s\n",
                             onlyPattern.c_str(), sweep.name.c_str());
                return 2;
            }
        }

        if (shardCount > 1) {
            const std::size_t before = sweep.jobs.size();
            sweep.shard(shardIndex, shardCount);
            std::fprintf(stderr, "shard %u/%u: %zu of %zu jobs\n",
                         shardIndex, shardCount, sweep.jobs.size(),
                         before);
            if (sweep.jobs.empty()) {
                // A 0-job document would merge cleanly and silently
                // shrink the figure; refuse loudly instead so merge
                // scripts can't drop a shard without noticing.
                std::fprintf(stderr,
                             "error: shard %u/%u of %s is empty (grid "
                             "has fewer than %u jobs after filters); "
                             "no output written\n",
                             shardIndex, shardCount,
                             sweep.name.c_str(), shardCount);
                return 2;
            }
        }

        // A --trace-job that names no job would write an empty trace.
        if (!traceJob.empty() &&
            std::none_of(sweep.jobs.begin(), sweep.jobs.end(),
                         [&](const auto &spec) {
                             return spec.id() == traceJob;
                         })) {
            std::fprintf(stderr,
                         "--trace-job '%s' matches no job in %s "
                         "(see --list)\n",
                         traceJob.c_str(), sweep.name.c_str());
            return 2;
        }

        // Applied after seed expansion / --only / --shard so every
        // surviving job gets its own trace path.
        auto tracePathFor = [&](const exp::ExperimentSpec &spec,
                                const std::string &dir) {
            std::string id = spec.id();
            std::replace(id.begin(), id.end(), '/', '_');
            return dir + "/" + sweep.name + "_" + id + ".ptrace";
        };
        if (!captureDir.empty()) {
            std::filesystem::create_directories(captureDir);
            for (exp::ExperimentSpec &spec : sweep.jobs)
                spec.captureFile = tracePathFor(spec, captureDir);
        }
        if (!replayDir.empty()) {
            for (exp::ExperimentSpec &spec : sweep.jobs)
                spec.traceFile = tracePathFor(spec, replayDir);
        }

        if (listOnly) {
            for (const auto &spec : sweep.jobs)
                std::printf("%s/%s\n", sweep.name.c_str(),
                            spec.id().c_str());
            return 0;
        }

        exp::RunnerOptions opts;
        opts.jobs = jobs;
        opts.maxAttempts = 1 + retries;
        opts.jobTimeoutMs = jobTimeoutMs;
        opts.isolate = isolate;
        opts.progress = !quiet;
        opts.liveProgress = liveProgress;
        opts.prof = !profFile.empty();
        if (!traceFile.empty()) {
            opts.traceFlags = traceFlags;
            opts.traceJobId = traceJob;
            // Counter sampling rides the trace capture: default to a
            // 5000-tick window unless --interval says otherwise.
            opts.counterWindow = intervalSet ? intervalTicks : 5000;
        }

        // Crash-safe journal: every completed cell becomes durable in
        // <out>.journal the moment it finishes; --resume merges those
        // cells back instead of re-running them. The header pins the
        // journal to this exact grid so a changed axis (ops, cores,
        // filters) is refused rather than silently mixed.
        //
        // "--out /dev/null" (and any other non-regular target) gets
        // neither journal nor atomic rename: renaming over a device
        // node would replace it with a regular file.
        const std::string journalPath = outFile + ".journal";
        std::error_code outStatEc;
        const auto outStat =
            std::filesystem::status(outFile, outStatEc);
        const bool specialOut =
            !outFile.empty() && !outStatEc &&
            std::filesystem::exists(outStat) &&
            !std::filesystem::is_regular_file(outStat);
        if (resume && specialOut) {
            std::fprintf(stderr,
                         "error: --resume needs a regular --out file, "
                         "got %s\n",
                         outFile.c_str());
            return 2;
        }
        exp::JournalHeader header;
        header.sweep = sweep.name;
        header.jobCount = sweep.jobs.size();
        header.gridHash = exp::gridFingerprint(sweep.jobs);

        std::vector<std::pair<std::string, exp::JsonValue>> journaled;
        exp::Sweep runSweep = sweep;
        if (resume) {
            exp::JournalContents jc = exp::loadJournal(journalPath);
            if (!jc.exists) {
                std::fprintf(stderr,
                             "error: --resume: no journal at %s "
                             "(nothing to resume)\n",
                             journalPath.c_str());
                return 2;
            }
            if (!jc.headerOk || !jc.header.matches(header)) {
                std::fprintf(
                    stderr,
                    "error: --resume: journal %s does not match this "
                    "grid (journal: sweep '%s', %zu jobs, grid %016llx; "
                    "current: sweep '%s', %zu jobs, grid %016llx); "
                    "rerun without --resume to start over\n",
                    journalPath.c_str(), jc.header.sweep.c_str(),
                    jc.header.jobCount,
                    static_cast<unsigned long long>(jc.header.gridHash),
                    sweep.name.c_str(), sweep.jobs.size(),
                    static_cast<unsigned long long>(header.gridHash));
                return 2;
            }
            if (jc.dropped > 0)
                std::fprintf(stderr,
                             "warning: dropped %zu torn journal "
                             "line(s) (crash mid-append)\n",
                             jc.dropped);
            if (jc.duplicates > 0)
                std::fprintf(stderr,
                             "warning: %zu duplicate journal entries "
                             "(latest wins)\n",
                             jc.duplicates);
            journaled = std::move(jc.entries);
            std::unordered_set<std::string> doneIds;
            for (const auto &e : journaled)
                doneIds.insert(e.first);
            std::erase_if(runSweep.jobs, [&](const auto &spec) {
                return doneIds.count(spec.id()) != 0;
            });
            std::fprintf(stderr,
                         "resume: %zu of %zu cells journaled, "
                         "running %zu\n",
                         doneIds.size(), sweep.jobs.size(),
                         runSweep.jobs.size());
        }
        std::shared_ptr<exp::SweepJournal> journal;
        if (!outFile.empty() && !specialOut) {
            journal = std::make_shared<exp::SweepJournal>();
            journal->open(journalPath, header, /*fresh=*/!resume);
            opts.journal = journal;
        }

        std::fprintf(stderr, "%s: %zu jobs, %u worker(s)\n",
                     sweep.name.c_str(), runSweep.jobs.size(), jobs);
        exp::SweepRunner runner(opts);
        std::vector<exp::JobOutcome> outcomes = runner.run(runSweep);
        if (resume)
            outcomes = exp::mergeResumedOutcomes(sweep, journaled,
                                                 std::move(outcomes));

        std::size_t failed = 0;
        for (const auto &o : outcomes)
            failed += o.ok ? 0 : 1;
        std::fprintf(stderr, "%s\n",
                     runner.telemetry().summaryLine().c_str());

        exp::JsonValue doc = exp::sweepToJson(sweep, outcomes,
                                              includeStats);
        if (shardCount > 1) {
            // Mark shard membership so merged documents stay
            // self-describing; unsharded output is unchanged.
            exp::JsonValue sh = exp::JsonValue::object();
            sh["index"] = exp::JsonValue(shardIndex);
            sh["count"] = exp::JsonValue(shardCount);
            doc["shard"] = std::move(sh);
        }
        const exp::FigureTable table =
            exp::figureTable(sweep.name, outcomes);
        doc["table"] = exp::figureTableToJson(table);

        if (!outFile.empty()) {
            if (specialOut) {
                std::ofstream os(outFile);
                if (!os)
                    fatal("cannot write ", outFile);
                doc.write(os, 2);
                os << '\n';
            } else {
                // tmp + fsync + rename: observers see the old document
                // or the complete new one, never a torn write.
                std::ostringstream buf;
                doc.write(buf, 2);
                buf << '\n';
                exp::writeFileAtomic(outFile, buf.str());
            }
            std::fprintf(stderr, "wrote %s\n", outFile.c_str());
        }
        if (journal) {
            journal->close();
            if (failed == 0) {
                std::error_code ec;
                std::filesystem::remove(journalPath, ec);
            } else {
                // Failed cells are not journaled, so a --resume rerun
                // retries exactly them.
                std::fprintf(stderr,
                             "%zu failed cell(s); journal kept at %s "
                             "for --resume\n",
                             failed, journalPath.c_str());
            }
        }
        if (!csvFile.empty()) {
            std::ofstream os(csvFile);
            if (!os)
                fatal("cannot write ", csvFile);
            exp::figureTableToCsv(os, table);
            std::fprintf(stderr, "wrote %s\n", csvFile.c_str());
        }
        if (!traceFile.empty()) {
            std::ofstream os(traceFile);
            if (!os)
                fatal("cannot write ", traceFile);
            std::string traced =
                traceJob.empty() && !runSweep.jobs.empty()
                    ? runSweep.jobs.front().id()
                    : traceJob;
            exp::writeChromeTrace(os, *runner.recorder(),
                                  sweep.name + "/" + traced);
            std::fprintf(stderr,
                         "wrote %s (%zu spans, %zu counter samples)\n",
                         traceFile.c_str(),
                         runner.recorder()->spans().size(),
                         runner.recorder()->counters().size());
        }
        if (!intervalCsvFile.empty()) {
            std::ofstream os(intervalCsvFile);
            if (!os)
                fatal("cannot write ", intervalCsvFile);
            const auto &counters = runner.recorder()->counters();
            exp::writeCounterCsv(os, counters);
            std::fprintf(stderr, "wrote %s (%zu samples)\n",
                         intervalCsvFile.c_str(), counters.size());
        }
        if (!profFile.empty()) {
            std::ofstream os(profFile);
            if (!os)
                fatal("cannot write ", profFile);
            runner.profile().toJson().write(os, 2);
            os << '\n';
            const prof::SweepProfile &p = runner.profile();
            std::fprintf(stderr,
                         "wrote %s (%llu samples, %.1f%% attributed)\n",
                         profFile.c_str(),
                         static_cast<unsigned long long>(
                             p.phases.total()),
                         100.0 * p.attributionRatio());
        }
        if (!timingFile.empty()) {
            exp::JsonValue timing = runner.telemetry().toJson();
            timing["jobCount"] = exp::JsonValue(outcomes.size());
            std::ofstream os(timingFile);
            if (!os)
                fatal("cannot write ", timingFile);
            timing.write(os, 2);
            os << '\n';
        }

        exp::printFigureTable(std::cout, table);
        return failed == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
