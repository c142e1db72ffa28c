/**
 * @file
 * Tests for the workload trace format: the "ptrace v1" writer and
 * parser round trip, every parse error names the file (and line),
 * stream invariants (monotonic timestamps, nothing after halt, every
 * section ends in halt), truncation at any byte, and a seeded mutation
 * fuzz over the parser.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/runner.hh"
#include "exp/spec.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workload/trace/trace_format.hh"

namespace persim::workload::trace
{

namespace
{

/** A small two-thread trace exercising every record kind. */
TraceData
sampleTrace()
{
    TraceData data;
    data.meta.name = "sample";
    data.meta.threadCount = 2;
    data.meta.seed = 42;
    data.streams.resize(2);

    auto rec = [](TraceRecord::Kind k, Tick tick, std::uint64_t arg = 0) {
        TraceRecord r;
        r.kind = k;
        r.tick = tick;
        r.arg = arg;
        return r;
    };
    data.streams[0] = {
        rec(TraceRecord::Kind::Load, 0, 0x1000),
        rec(TraceRecord::Kind::Store, 5, 0x1040),
        rec(TraceRecord::Kind::Barrier, 9),
        rec(TraceRecord::Kind::Compute, 9, 120),
        rec(TraceRecord::Kind::Lock, 40, 0xffffc900),
        rec(TraceRecord::Kind::Store, 55, 0x2000),
        rec(TraceRecord::Kind::Unlock, 61, 0xffffc900),
        rec(TraceRecord::Kind::TxnMark, 70, 3),
        rec(TraceRecord::Kind::Halt, 90),
    };
    data.streams[1] = {
        rec(TraceRecord::Kind::Load, 2, 0xdeadbeef),
        rec(TraceRecord::Kind::Halt, 11),
    };
    return data;
}

/** @p data in the text form a capture writes. */
std::string
textOf(const TraceData &data)
{
    std::string text;
    appendHeader(text, data.meta);
    for (std::size_t t = 0; t < data.streams.size(); ++t) {
        text += "thread " + std::to_string(t) + "\n";
        for (const TraceRecord &r : data.streams[t])
            appendRecordLine(text, r);
    }
    return text;
}

TraceData
parseText(const std::string &text, const std::string &source)
{
    std::istringstream is(text);
    return parseTrace(is, source);
}

/** Message of the SimFatal thrown by @p fn ("" if none thrown). */
template <typename Fn>
std::string
fatalMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const SimFatal &e) {
        return e.what();
    }
    return "";
}

/** The text of a small captured run (4 cores, every micro op kind). */
const std::string &
smallCaptureText()
{
    static const std::string text = [] {
        exp::ExperimentSpec spec;
        spec.sweep = "test";
        spec.workload = "hash";
        spec.configLabel = "LB++";
        spec.cores = 4;
        spec.ops = 6;
        spec.seed = 1;
        spec.captureFile = testing::TempDir() + "persim_small.ptrace";
        const exp::JobOutcome out = exp::runJob(spec);
        EXPECT_TRUE(out.ok) << out.error;
        std::ifstream is(spec.captureFile, std::ios::binary);
        std::ostringstream buf;
        buf << is.rdbuf();
        std::remove(spec.captureFile.c_str());
        return buf.str();
    }();
    return text;
}

std::string
fixtureText()
{
    std::ifstream is(std::string(PERSIM_TESTS_DATA_DIR) +
                         "/fixture.ptrace",
                     std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

} // namespace

// ---------------------------------------------------------------------
// Writer and parser
// ---------------------------------------------------------------------

TEST(TraceFormat, TextRoundTripPreservesEverything)
{
    const TraceData data = sampleTrace();
    const std::string text = textOf(data);
    const TraceData back = parseText(text, "rt.ptrace");
    EXPECT_EQ(back.meta.name, data.meta.name);
    EXPECT_EQ(back.meta.seed, data.meta.seed);
    EXPECT_EQ(back.meta.threadCount, data.meta.threadCount);
    EXPECT_EQ(back.streams, data.streams);
    EXPECT_EQ(back.source, "rt.ptrace");
    EXPECT_EQ(back.totalRecords(), 11u);

    // Text -> records -> text is canonical (fixed point).
    EXPECT_EQ(textOf(back), text);
}

TEST(TraceFormat, RecordCodecRoundTripsEveryKind)
{
    // Each kind's line round trips, the payload at its largest value.
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    for (unsigned k = 0; k < kNumRecordKinds; ++k) {
        TraceRecord r;
        r.kind = static_cast<TraceRecord::Kind>(k);
        r.tick = kMax;
        switch (r.kind) {
          case TraceRecord::Kind::Compute:
            r.arg = 0xFFFFFFFFull;
            break;
          case TraceRecord::Kind::Barrier:
          case TraceRecord::Kind::Halt:
            break;
          default:
            r.arg = kMax;
        }
        std::string text = "ptrace v1\nthreads 1\nthread 0\n";
        appendRecordLine(text, r);
        if (r.kind != TraceRecord::Kind::Halt)
            text += "@" + std::to_string(kMax) + " halt\n";
        const TraceData back = parseText(text, "kind.ptrace");
        EXPECT_EQ(back.streams[0][0], r) << text;
    }
}

TEST(TraceFormat, TextParserAcceptsCommentsAndHex)
{
    const TraceData data = parseText("# leading comment\n"
                                     "ptrace v1\r\n"
                                     "name demo # trailing comment\n"
                                     "seed 7\r\n"
                                     "threads 1\n"
                                     "thread 0\r\n"
                                     "@0 load 0x40\n"
                                     "\n"
                                     "\r\n"
                                     "@3 store 64\r\n"
                                     "@0x3\tlock 0XFFC0\n"
                                     "@3 halt\r\n",
                                     "c.ptrace");
    EXPECT_EQ(data.meta.name, "demo");
    EXPECT_EQ(data.meta.seed, 7u);
    ASSERT_EQ(data.streams[0].size(), 4u);
    EXPECT_EQ(data.streams[0][0].arg, 0x40u);
    EXPECT_EQ(data.streams[0][1].arg, 64u);
    EXPECT_EQ(data.streams[0][2].kind, TraceRecord::Kind::Lock);
    EXPECT_EQ(data.streams[0][2].arg, 0xffc0u);
    EXPECT_EQ(data.streams[0][3].kind, TraceRecord::Kind::Halt);
}

TEST(TraceFormat, TextParserErrorsNameFileAndLine)
{
    struct Case
    {
        const char *text;
        const char *where; // "err.ptrace:LINE" or "err.ptrace: " at EOF
        const char *expect;
    };
    const Case cases[] = {
        {"not a trace\n", "err.ptrace:1:", "expected 'ptrace v1'"},
        {"ptrace v1\nthreads 1\nthread 0\n@5 load 1\n@2 load 1\n",
         "err.ptrace:5:", "out of order"},
        {"ptrace v1\nthreads 1\nthread 0\n@1 halt\n@2 load 1\n",
         "err.ptrace:5:", "after halt"},
        {"ptrace v1\nthreads 1\nthread 0\n@1 frobnicate 2\n",
         "err.ptrace:4:", "unknown op"},
        {"ptrace v1\nthreads 2\nthread 1\n", "err.ptrace:3:",
         "sequential"},
        {"ptrace v1\nthreads 2\nthread 0\n@0 halt\n", "err.ptrace: ",
         "found 1 thread section(s)"},
        {"ptrace v1\nthreads 1\nthread 0\n@1 barrier 5\n",
         "err.ptrace:4:", "no argument"},
        {"ptrace v1\n@0 load 1\n", "err.ptrace:2:",
         "before the first 'thread'"},
        {"ptrace v1\nthreads 1\nthreads 1\n", "err.ptrace:3:",
         "duplicate threads"},
        {"ptrace v1\nthreads 65\n", "err.ptrace:2:", "out of range"},
        {"ptrace v1\nthreads 1\nthread 0\n@0 compute 4294967296\n",
         "err.ptrace:4:", "exceed 32 bits"},
        {"ptrace v1\nthreads 1\nthread 0\n@0 load 18446744073709551616\n",
         "err.ptrace:4:", "bad address"},
        {"ptrace v1\nthreads 2\nthread 0\n@0 load 1\nthread 1\n@0 halt\n",
         "err.ptrace:5:", "thread 0 does not end in halt (truncated?)"},
        {"ptrace v1\nthreads 1\nthread 0\n@0 load 1\n", "err.ptrace: ",
         "thread 0 does not end in halt (truncated?)"},
        {"ptrace v1\nthreads 1\n", "err.ptrace: ", "found 0 thread"},
        {"# only a comment\n", "err.ptrace: ", "empty input"},
        // Signed numbers are refused, not wrapped to near 2^64.
        {"ptrace v1\nthreads 1\nthread 0\n@0 load -64\n@1 halt\n",
         "err.ptrace:4:", "bad address '-64'"},
        {"ptrace v1\nthreads 1\nthread 0\n@0 txn -1\n@1 halt\n",
         "err.ptrace:4:", "bad transaction count '-1'"},
        {"ptrace v1\nseed -1\nthreads 1\nthread 0\n@0 halt\n",
         "err.ptrace:2:", "bad seed '-1'"},
    };
    for (const Case &c : cases) {
        const std::string msg =
            fatalMessage([&] { parseText(c.text, "err.ptrace"); });
        EXPECT_NE(msg.find(c.where), std::string::npos)
            << c.text << " -> " << msg;
        EXPECT_NE(msg.find(c.expect), std::string::npos)
            << c.text << " -> " << msg;
    }
}

TEST(TraceFormat, CheckedInFixtureValidates)
{
    const std::string path =
        std::string(PERSIM_TESTS_DATA_DIR) + "/fixture.ptrace";
    auto trace = openTrace(path);
    EXPECT_EQ(trace->meta.name, "fixture");
    EXPECT_EQ(trace->meta.threadCount, 2u);
    EXPECT_EQ(trace->meta.seed, 7u);
    EXPECT_EQ(trace->totalRecords(), 17u);
    EXPECT_EQ(trace->source, path);
}

TEST(TraceFormat, MissingFileIsNamedError)
{
    const std::string msg =
        fatalMessage([] { openTrace("/nonexistent/none.ptrace"); });
    EXPECT_NE(msg.find("none.ptrace: cannot open file"),
              std::string::npos)
        << msg;
}

TEST(TraceFormat, BadMagicIsRejected)
{
    // A binary trace from before text became the one format fails on
    // its first line, by name.
    std::string bytes("PERSIMTR\x01\0\0\0\x02\0\0\0", 16);
    bytes += std::string("\x07\0\0\0\0\0\0\0\n\x88\x90", 11);
    const std::string msg =
        fatalMessage([&] { parseText(bytes, "old.ptrace"); });
    EXPECT_NE(msg.find("old.ptrace:1: expected 'ptrace v1' header"),
              std::string::npos)
        << msg;
}

TEST(TraceFormat, UnsupportedVersionIsRejected)
{
    std::string text = textOf(sampleTrace());
    text.replace(0, 9, "ptrace v2");
    const std::string msg =
        fatalMessage([&] { parseText(text, "v.ptrace"); });
    EXPECT_NE(msg.find("v.ptrace:1: expected 'ptrace v1' header, got "
                       "'ptrace v2'"),
              std::string::npos)
        << msg;
}

TEST(TraceFormat, TrailingBytesAreRejected)
{
    const std::string text = textOf(sampleTrace());
    const std::string msg = fatalMessage(
        [&] { parseText(text + "junk\n", "t.ptrace"); });
    EXPECT_NE(msg.find("t.ptrace:18: expected '@tick op ...', got "
                       "'junk'"),
              std::string::npos)
        << msg;
}

// ---------------------------------------------------------------------
// Stream invariants
// ---------------------------------------------------------------------

TEST(TraceFormat, OutOfOrderTimestampNamesThreadAndRecord)
{
    TraceData data = sampleTrace();
    data.streams[0][3].tick = 3; // before record 2's tick 9
    // Header (4 lines) and "thread 0", then record 3 is on line 9.
    const std::string msg =
        fatalMessage([&] { parseText(textOf(data), "ooo.ptrace"); });
    EXPECT_NE(msg.find("ooo.ptrace:9: thread 0: timestamp 3"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("out of order"), std::string::npos) << msg;
}

TEST(TraceFormat, RecordAfterHaltIsRejected)
{
    TraceData data = sampleTrace();
    TraceRecord extra;
    extra.kind = TraceRecord::Kind::Load;
    extra.tick = 99;
    extra.arg = 0x3000;
    data.streams[1].push_back(extra);
    const std::string msg =
        fatalMessage([&] { parseText(textOf(data), "ah.ptrace"); });
    EXPECT_NE(msg.find("after halt"), std::string::npos) << msg;
    EXPECT_NE(msg.find("thread 1"), std::string::npos) << msg;
}

TEST(TraceFormat, EmptyPerThreadStreamIsValid)
{
    // A thread with nothing to do is a section holding only its halt;
    // a section without one is a truncated trace.
    TraceData data = sampleTrace();
    data.streams[1] = {TraceRecord{}};
    const TraceData back = parseText(textOf(data), "empty.ptrace");
    ASSERT_EQ(back.streams[1].size(), 1u);
    EXPECT_EQ(back.streams[1][0].kind, TraceRecord::Kind::Halt);

    data.streams[1].clear();
    const std::string msg =
        fatalMessage([&] { parseText(textOf(data), "empty.ptrace"); });
    EXPECT_NE(msg.find("thread 1 does not end in halt"),
              std::string::npos)
        << msg;
}

TEST(TraceFormat, TruncatedFileIsNamedError)
{
    // A cut at any byte either fails by name or, when it drops only
    // the final newline, parses to exactly the full trace.
    const std::string &text = smallCaptureText();
    ASSERT_GT(text.size(), 200u);
    const TraceData full = parseText(text, "full.ptrace");
    std::size_t accepted = 0;
    for (std::size_t keep = 0; keep < text.size(); ++keep) {
        try {
            const TraceData cut =
                parseText(text.substr(0, keep), "cut.ptrace");
            EXPECT_EQ(keep, text.size() - 1);
            EXPECT_EQ(cut.streams, full.streams) << "keep=" << keep;
            ++accepted;
        } catch (const SimFatal &e) {
            EXPECT_NE(std::string(e.what()).find("cut.ptrace"),
                      std::string::npos)
                << "keep=" << keep << ": " << e.what();
        }
    }
    EXPECT_EQ(accepted, 1u);
}

// ---------------------------------------------------------------------
// Seeded mutation fuzz
// ---------------------------------------------------------------------

namespace
{

std::vector<std::string>
splitLines(const std::string &s)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < s.size()) {
        const std::size_t nl = s.find('\n', start);
        const std::size_t end = nl == std::string::npos ? s.size() : nl + 1;
        lines.push_back(s.substr(start, end - start));
        start = end;
    }
    return lines;
}

std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string s;
    for (const std::string &l : lines)
        s += l;
    return s;
}

/** Apply one to three random edits to @p s. */
std::string
mutate(std::string s, Rng &rng)
{
    const unsigned edits = 1 + static_cast<unsigned>(rng.below(3));
    for (unsigned e = 0; e < edits; ++e) {
        const auto edit = rng.below(6);
        switch (edit) {
          case 0: // byte flip
            if (!s.empty())
                s[rng.below(s.size())] ^=
                    static_cast<char>(1 + rng.below(255));
            break;
          case 1: // byte delete
            if (!s.empty())
                s.erase(rng.below(s.size()), 1);
            break;
          case 2: // byte insert
            s.insert(rng.below(s.size() + 1), 1,
                     static_cast<char>(rng.below(256)));
            break;
          case 3:   // line duplicate
          case 4: { // line swap
            std::vector<std::string> lines = splitLines(s);
            if (lines.empty())
                break;
            const std::size_t i = rng.below(lines.size());
            if (edit == 3)
                lines.insert(lines.begin() +
                                 static_cast<std::ptrdiff_t>(i),
                             lines[i]);
            else
                std::swap(lines[i], lines[rng.below(lines.size())]);
            s = joinLines(lines);
            break;
          }
          case 5: { // a digit run replaced by -1, 0x or 2^64
            std::vector<std::size_t> runs;
            for (std::size_t i = 0; i < s.size(); ++i)
                if (std::isdigit(static_cast<unsigned char>(s[i])) &&
                    (i == 0 ||
                     !std::isdigit(static_cast<unsigned char>(s[i - 1]))))
                    runs.push_back(i);
            if (runs.empty())
                break;
            const std::size_t at = runs[rng.below(runs.size())];
            std::size_t len = 0;
            while (at + len < s.size() &&
                   std::isdigit(static_cast<unsigned char>(s[at + len])))
                ++len;
            static const char *const kSubs[] = {"-1", "0x",
                                                "18446744073709551616"};
            s.replace(at, len, kSubs[rng.below(3)]);
            break;
          }
        }
    }
    return s;
}

/** The invariants replay relies on, for a trace that parsed. */
void
expectWellFormed(const TraceData &d, const std::string &text)
{
    ASSERT_EQ(d.streams.size(), d.meta.threadCount) << text;
    for (const auto &stream : d.streams) {
        ASSERT_FALSE(stream.empty()) << text;
        for (std::size_t i = 0; i < stream.size(); ++i) {
            EXPECT_EQ(stream[i].kind == TraceRecord::Kind::Halt,
                      i + 1 == stream.size())
                << text;
            if (i > 0) {
                EXPECT_LE(stream[i - 1].tick, stream[i].tick) << text;
            }
            if (stream[i].kind == TraceRecord::Kind::Compute) {
                EXPECT_LE(stream[i].arg, 0xFFFFFFFFull) << text;
            }
        }
    }
}

} // namespace

TEST(TraceFormat, MutantsParseOrFailByName)
{
    constexpr unsigned kMutantsPerInput = 10000;
    Rng rng(0x7472616365ULL);
    for (const std::string &seed : {fixtureText(), smallCaptureText()}) {
        ASSERT_FALSE(seed.empty());
        unsigned parsed = 0;
        unsigned rejected = 0;
        for (unsigned m = 0; m < kMutantsPerInput; ++m) {
            const std::string text = mutate(seed, rng);
            try {
                expectWellFormed(parseText(text, "mutant.ptrace"), text);
                ++parsed;
            } catch (const SimFatal &e) {
                ++rejected;
                ASSERT_NE(std::string(e.what()).find("mutant.ptrace"),
                          std::string::npos)
                    << e.what();
            } catch (const std::exception &e) {
                FAIL() << "non-SimFatal exception " << e.what()
                       << " on:\n"
                       << text;
            }
        }
        // Both outcomes occur, so the edits neither always break the
        // trace nor never reach the parser's checks.
        EXPECT_GT(parsed, kMutantsPerInput / 20);
        EXPECT_GT(rejected, kMutantsPerInput / 2);
    }
}

} // namespace persim::workload::trace
