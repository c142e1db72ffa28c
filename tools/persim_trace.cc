/**
 * @file
 * persim_trace — inspect, validate, and convert workload traces.
 *
 *   persim_trace validate FILE            full strict validation
 *   persim_trace stats FILE               per-thread / per-kind summary
 *   persim_trace dump FILE [--thread T] [--limit N]
 *   persim_trace to-text IN OUT           any form -> canonical text
 *   persim_trace to-binary IN OUT         any form -> binary
 *
 * Every command accepts both the binary form and the "ptrace v1" text
 * form as input (the file magic is sniffed), so to-text of a text file
 * canonicalizes it and to-binary of a binary file rewrites it.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

#include "flags.hh"

#include "sim/logging.hh"
#include "workload/trace/trace_reader.hh"

using namespace persim;
using namespace persim::workload::trace;

namespace
{

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s <command> ...\n"
        "  validate FILE          decode every record, enforce all "
        "format\n"
        "                         invariants; exit 0 iff the trace is "
        "valid\n"
        "  stats FILE             record-count / kind / tick-span "
        "summary\n"
        "  dump FILE [--thread T] [--limit N]\n"
        "                         print records in the text form "
        "(default:\n"
        "                         all threads, first 50 records each)\n"
        "  to-text IN OUT         convert to canonical text form\n"
        "  to-binary IN OUT       convert to the binary form\n"
        "  --help\n",
        argv0);
}

int
cmdValidate(const std::string &path)
{
    // openTrace runs the full validation; reaching here means valid.
    auto reader = openTrace(path);
    std::printf("%s: OK (version %u, workload '%s', %u thread(s), "
                "%llu record(s))\n",
                path.c_str(), reader->meta().version,
                reader->meta().name.c_str(), reader->meta().threadCount,
                static_cast<unsigned long long>(reader->totalRecords()));
    return 0;
}

int
cmdStats(const std::string &path)
{
    auto reader = openTrace(path);
    const TraceMeta &meta = reader->meta();
    std::printf("trace:    %s\n", path.c_str());
    std::printf("version:  %u\n", meta.version);
    std::printf("workload: %s\n", meta.name.c_str());
    std::printf("seed:     %llu\n",
                static_cast<unsigned long long>(meta.seed));
    std::printf("threads:  %u\n", meta.threadCount);

    std::uint64_t kindTotals[kNumRecordKinds] = {};
    Tick firstTick = 0, lastTick = 0;
    bool any = false;
    std::printf("%8s %10s %12s %14s %14s\n", "thread", "records",
                "bytes", "first-tick", "last-tick");
    for (unsigned t = 0; t < meta.threadCount; ++t) {
        TraceReader::Cursor c = reader->stream(t);
        TraceRecord r;
        Tick tFirst = 0, tLast = 0;
        bool tAny = false;
        while (c.next(r)) {
            ++kindTotals[static_cast<unsigned>(r.kind)];
            if (!tAny) {
                tFirst = r.tick;
                tAny = true;
            }
            tLast = r.tick;
        }
        if (tAny) {
            if (!any || tFirst < firstTick)
                firstTick = tFirst;
            if (!any || tLast > lastTick)
                lastTick = tLast;
            any = true;
        }
        std::printf("%8u %10llu %12llu %14llu %14llu\n", t,
                    static_cast<unsigned long long>(
                        reader->recordCount(t)),
                    static_cast<unsigned long long>(
                        reader->streamBytes(t)),
                    static_cast<unsigned long long>(tFirst),
                    static_cast<unsigned long long>(tLast));
    }
    std::printf("total:    %llu record(s), ticks [%llu, %llu]\n",
                static_cast<unsigned long long>(reader->totalRecords()),
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

int
cmdDump(const std::string &path, int onlyThread, std::uint64_t limit)
{
    auto reader = openTrace(path);
    const TraceMeta &meta = reader->meta();
    std::printf("ptrace v%u\n", meta.version);
    std::printf("name %s\n", meta.name.c_str());
    std::printf("seed %llu\n",
                static_cast<unsigned long long>(meta.seed));
    std::printf("threads %u\n", meta.threadCount);
    for (unsigned t = 0; t < meta.threadCount; ++t) {
        if (onlyThread >= 0 && t != static_cast<unsigned>(onlyThread))
            continue;
        std::printf("thread %u\n", t);
        TraceReader::Cursor c = reader->stream(t);
        TraceRecord r;
        std::uint64_t shown = 0;
        while (shown < limit && c.next(r)) {
            switch (r.kind) {
              case TraceRecord::Kind::Load:
              case TraceRecord::Kind::Store:
              case TraceRecord::Kind::Lock:
              case TraceRecord::Kind::Unlock:
                std::printf("@%llu %s 0x%llx\n",
                            static_cast<unsigned long long>(r.tick),
                            toString(r.kind),
                            static_cast<unsigned long long>(r.addr));
                break;
              case TraceRecord::Kind::Compute:
                std::printf("@%llu compute %u\n",
                            static_cast<unsigned long long>(r.tick),
                            r.cycles);
                break;
              case TraceRecord::Kind::TxnMark:
                std::printf("@%llu txn %llu\n",
                            static_cast<unsigned long long>(r.tick),
                            static_cast<unsigned long long>(r.count));
                break;
              case TraceRecord::Kind::Barrier:
              case TraceRecord::Kind::Halt:
                std::printf("@%llu %s\n",
                            static_cast<unsigned long long>(r.tick),
                            toString(r.kind));
                break;
            }
            ++shown;
        }
        const std::uint64_t total = reader->recordCount(t);
        if (shown < total)
            std::printf("# ... %llu more record(s)\n",
                        static_cast<unsigned long long>(total - shown));
    }
    return 0;
}

int
cmdToText(const std::string &in, const std::string &out)
{
    auto reader = openTrace(in);
    std::ofstream os(out);
    if (!os)
        fatal("cannot write ", out);
    writeTextTrace(os, reader->toData());
    if (!os)
        fatal("short write to ", out);
    std::fprintf(stderr, "wrote %s (%llu record(s), text form)\n",
                 out.c_str(),
                 static_cast<unsigned long long>(
                     reader->totalRecords()));
    return 0;
}

int
cmdToBinary(const std::string &in, const std::string &out)
{
    auto reader = openTrace(in);
    const std::string bytes = encodeTrace(reader->toData());
    std::ofstream os(out, std::ios::binary);
    if (!os)
        fatal("cannot write ", out);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!os)
        fatal("short write to ", out);
    std::fprintf(stderr, "wrote %s (%zu bytes, binary form)\n",
                 out.c_str(), bytes.size());
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

    try {
        if (cmd == "validate" || cmd == "stats") {
            if (argc != 3) {
                std::fprintf(stderr, "%s wants exactly one FILE\n",
                             cmd.c_str());
                return 2;
            }
            return cmd == "validate" ? cmdValidate(argv[2])
                                     : cmdStats(argv[2]);
        }
        if (cmd == "dump") {
            if (argc < 3) {
                std::fprintf(stderr, "dump wants a FILE\n");
                return 2;
            }
            int onlyThread = -1;
            std::uint64_t limit = 50;
            for (int i = 3; i < argc; ++i) {
                const std::string arg = argv[i];
                if (arg == "--thread" && i + 1 < argc) {
                    const char *v = argv[++i];
                    const std::uint64_t n = tools::parseNum("--thread", v);
                    if (n > static_cast<std::uint64_t>(
                                std::numeric_limits<int>::max())) {
                        std::fprintf(stderr,
                                     "--thread value '%s' is out of range\n",
                                     v);
                        return 2;
                    }
                    onlyThread = static_cast<int>(n);
                }
                else if (arg == "--limit" && i + 1 < argc)
                    limit = tools::parseNum("--limit", argv[++i]);
                else {
                    std::fprintf(stderr, "unknown dump option '%s'\n",
                                 arg.c_str());
                    return 2;
                }
            }
            return cmdDump(argv[2], onlyThread, limit);
        }
        if (cmd == "to-text" || cmd == "to-binary") {
            if (argc != 4) {
                std::fprintf(stderr, "%s wants IN OUT\n", cmd.c_str());
                return 2;
            }
            return cmd == "to-text" ? cmdToText(argv[2], argv[3])
                                    : cmdToBinary(argv[2], argv[3]);
        }
        std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
        usage(argv[0]);
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
