/**
 * @file
 * persim_trace — validate and summarize workload traces.
 *
 *   persim_trace validate FILE            parse and check the whole trace
 *   persim_trace stats FILE               per-thread / per-kind summary
 *
 * A trace is "ptrace v1" text (workload/trace/trace_format.hh), so
 * reading or editing one needs no converter.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "workload/trace/trace_format.hh"

using namespace persim;
using namespace persim::workload::trace;

namespace
{

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s <command> FILE\n"
        "  validate FILE          parse the trace and enforce every "
        "format\n"
        "                         invariant; exit 0 iff it is valid\n"
        "  stats FILE             record-count / kind / tick-span "
        "summary\n"
        "  --help\n",
        argv0);
}

int
cmdValidate(const std::string &path)
{
    // openTrace runs the full validation; reaching here means valid.
    auto trace = openTrace(path);
    std::printf("%s: OK (workload '%s', %u thread(s), %llu record(s))\n",
                path.c_str(), trace->meta.name.c_str(),
                trace->meta.threadCount,
                static_cast<unsigned long long>(trace->totalRecords()));
    return 0;
}

int
cmdStats(const std::string &path)
{
    auto trace = openTrace(path);
    const TraceMeta &meta = trace->meta;
    std::printf("trace:    %s\n", path.c_str());
    std::printf("workload: %s\n", meta.name.c_str());
    std::printf("seed:     %llu\n",
                static_cast<unsigned long long>(meta.seed));
    std::printf("threads:  %u\n", meta.threadCount);

    std::uint64_t kindTotals[kNumRecordKinds] = {};
    Tick firstTick = 0, lastTick = 0;
    std::printf("%8s %10s %14s %14s\n", "thread", "records",
                "first-tick", "last-tick");
    for (unsigned t = 0; t < meta.threadCount; ++t) {
        // Every stream ends in halt, so none is empty.
        const auto &stream = trace->streams[t];
        for (const TraceRecord &r : stream)
            ++kindTotals[static_cast<unsigned>(r.kind)];
        const Tick tFirst = stream.front().tick;
        const Tick tLast = stream.back().tick;
        if (t == 0 || tFirst < firstTick)
            firstTick = tFirst;
        if (t == 0 || tLast > lastTick)
            lastTick = tLast;
        std::printf("%8u %10zu %14llu %14llu\n", t, stream.size(),
                    static_cast<unsigned long long>(tFirst),
                    static_cast<unsigned long long>(tLast));
    }
    std::printf("total:    %llu record(s), ticks [%llu, %llu]\n",
                static_cast<unsigned long long>(trace->totalRecords()),
                static_cast<unsigned long long>(firstTick),
                static_cast<unsigned long long>(lastTick));
    for (unsigned k = 0; k < kNumRecordKinds; ++k) {
        if (kindTotals[k] == 0)
            continue;
        std::printf("  %-8s %llu\n",
                    toString(static_cast<TraceRecord::Kind>(k)),
                    static_cast<unsigned long long>(kindTotals[k]));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
        std::strcmp(argv[1], "-h") == 0) {
        usage(argv[0]);
        return argc < 2 ? 2 : 0;
    }
    const std::string cmd = argv[1];
    if (cmd != "validate" && cmd != "stats") {
        std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
        usage(argv[0]);
        return 2;
    }
    if (argc != 3) {
        std::fprintf(stderr, "%s wants exactly one FILE\n", cmd.c_str());
        return 2;
    }
    try {
        return cmd == "validate" ? cmdValidate(argv[2])
                                 : cmdStats(argv[2]);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
