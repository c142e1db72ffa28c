#include "workload/trace/trace_format.hh"

#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <string_view>

#include "sim/logging.hh"

namespace persim::workload::trace
{

const char *
toString(TraceRecord::Kind kind)
{
    switch (kind) {
      case TraceRecord::Kind::Load:
        return "load";
      case TraceRecord::Kind::Store:
        return "store";
      case TraceRecord::Kind::Barrier:
        return "barrier";
      case TraceRecord::Kind::Compute:
        return "compute";
      case TraceRecord::Kind::Lock:
        return "lock";
      case TraceRecord::Kind::Unlock:
        return "unlock";
      case TraceRecord::Kind::TxnMark:
        return "txn";
      case TraceRecord::Kind::Halt:
        return "halt";
    }
    return "?";
}

std::uint64_t
TraceData::totalRecords() const
{
    std::uint64_t total = 0;
    for (const auto &stream : streams)
        total += stream.size();
    return total;
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

namespace
{

bool
isSpace(char c)
{
    return c == ' ' || c == '\t' || c == '\r' || c == '\n' ||
           c == '\v' || c == '\f';
}

/** Strip the comment and surrounding whitespace (for messages). */
std::string_view
cleanLine(std::string_view s)
{
    if (auto pos = s.find('#'); pos != std::string_view::npos)
        s = s.substr(0, pos);
    while (!s.empty() && isSpace(s.front()))
        s.remove_prefix(1);
    while (!s.empty() && isSpace(s.back()))
        s.remove_suffix(1);
    return s;
}

/** No line has more than three tokens ("@TICK op arg"). */
constexpr unsigned kMaxTokens = 3;

/**
 * Split @p line at whitespace into @p toks, stopping at a comment.
 * @return the token count, or kMaxTokens + 1 when there are more.
 */
unsigned
tokenize(std::string_view line, std::string_view (&toks)[kMaxTokens])
{
    unsigned n = 0;
    std::size_t i = 0;
    while (true) {
        while (i < line.size() && isSpace(line[i]))
            ++i;
        if (i == line.size() || line[i] == '#')
            return n;
        if (n == kMaxTokens)
            return n + 1;
        std::size_t j = i;
        while (j < line.size() && !isSpace(line[j]) && line[j] != '#')
            ++j;
        toks[n++] = line.substr(i, j - i);
        i = j;
    }
}

/**
 * Splits an input stream into lines (without their '\n'), reading it
 * in blocks: a trace has millions of short lines, and scanning a
 * block with memchr costs a fraction of one std::getline per line.
 */
class LineReader
{
  public:
    explicit LineReader(std::istream &is) : _is(is), _buf(1 << 16) {}

    /** The next line, valid until the following call; false at EOF. */
    bool
    next(std::string_view &line)
    {
        while (true) {
            const char *begin = _buf.data() + _begin;
            const std::size_t avail = _end - _begin;
            if (const auto *nl = static_cast<const char *>(
                    std::memchr(begin, '\n', avail))) {
                line = std::string_view(
                    begin, static_cast<std::size_t>(nl - begin));
                _begin += line.size() + 1;
                return true;
            }
            if (_eof) {
                line = std::string_view(begin, avail);
                _begin = _end;
                return avail != 0; // a last line without its '\n'
            }
            // Keep the partial line, then refill behind it; a line
            // longer than the buffer doubles it.
            std::memmove(_buf.data(), begin, avail);
            _begin = 0;
            _end = avail;
            if (_end == _buf.size())
                _buf.resize(2 * _buf.size());
            _is.read(_buf.data() + _end,
                     static_cast<std::streamsize>(_buf.size() - _end));
            _end += static_cast<std::size_t>(_is.gcount());
            _eof = !_is;
        }
    }

  private:
    std::istream &_is;
    std::vector<char> _buf;
    std::size_t _begin = 0;
    std::size_t _end = 0;
    bool _eof = false;
};

template <typename... Args>
[[noreturn]] void
parseError(const std::string &src, std::size_t lineNo,
           const Args &...args)
{
    fatal("trace text ", src, ":", lineNo, ": ", args...);
}

/** An unsigned 64-bit number, "0x"-prefixed hex or decimal; no sign. */
std::uint64_t
parseUint(const std::string &src, std::size_t lineNo,
          std::string_view tok, const char *what)
{
    std::string_view digits = tok;
    int base = 10;
    if (tok.size() > 2 && tok[0] == '0' &&
        (tok[1] == 'x' || tok[1] == 'X')) {
        digits.remove_prefix(2);
        base = 16;
    }
    std::uint64_t v = 0;
    const char *end = digits.data() + digits.size();
    const auto [p, ec] = std::from_chars(digits.data(), end, v, base);
    if (ec != std::errc() || p != end)
        parseError(src, lineNo, "bad ", what, " '", tok, "'");
    return v;
}

} // namespace

TraceData
parseTrace(std::istream &is, const std::string &src)
{
    TraceData data;
    data.source = src;

    LineReader lines(is);
    std::string_view raw;
    std::size_t lineNo = 0;
    bool sawHeader = false;
    bool sawThreads = false;
    int curThread = -1;
    // The section being parsed. A finished one is copied out at its
    // exact size: growing each trace vector by doubling would fault in
    // about twice its size in fresh pages.
    std::vector<TraceRecord> section;
    Tick prevTick = 0;
    bool halted = false;
    std::string_view toks[kMaxTokens];

    while (lines.next(raw)) {
        ++lineNo;
        const unsigned n = tokenize(raw, toks);
        if (n == 0)
            continue;
        auto line = [raw] { return cleanLine(raw); };

        if (!sawHeader) {
            if (n != 2 || toks[0] != "ptrace" || toks[1] != "v1")
                parseError(src, lineNo,
                           "expected 'ptrace v1' header, got '", line(),
                           "'");
            sawHeader = true;
            continue;
        }

        if (toks[0] == "name") {
            if (n != 2)
                parseError(src, lineNo, "name wants one token");
            data.meta.name = toks[1];
            continue;
        }
        if (toks[0] == "seed") {
            if (n != 2)
                parseError(src, lineNo, "seed wants one value");
            data.meta.seed = parseUint(src, lineNo, toks[1], "seed");
            continue;
        }
        if (toks[0] == "threads") {
            if (sawThreads)
                parseError(src, lineNo, "duplicate threads line");
            if (n != 2)
                parseError(src, lineNo, "threads wants a count");
            const std::uint64_t count =
                parseUint(src, lineNo, toks[1], "thread count");
            if (count == 0 || count > kMaxCores)
                parseError(src, lineNo, "thread count ", count,
                           " out of range [1, ", kMaxCores, "]");
            sawThreads = true;
            data.meta.threadCount = static_cast<std::uint32_t>(count);
            data.streams.resize(count);
            continue;
        }
        if (toks[0] == "thread") {
            if (!sawThreads)
                parseError(src, lineNo, "'thread' before 'threads N'");
            if (n != 2)
                parseError(src, lineNo, "thread wants an id");
            const std::uint64_t id =
                parseUint(src, lineNo, toks[1], "thread id");
            if (id != static_cast<std::uint64_t>(curThread + 1))
                parseError(src, lineNo,
                           "thread sections must be sequential: "
                           "expected thread ",
                           curThread + 1, ", got ", id);
            if (id >= data.meta.threadCount)
                parseError(src, lineNo, "thread ", id,
                           " >= declared thread count ",
                           data.meta.threadCount);
            if (curThread >= 0 && !halted)
                parseError(src, lineNo, "thread ", curThread,
                           " does not end in halt (truncated?)");
            if (curThread >= 0)
                data.streams[curThread].assign(section.begin(),
                                               section.end());
            section.clear();
            curThread = static_cast<int>(id);
            prevTick = 0;
            halted = false;
            continue;
        }

        // Anything else must be a record line: "@TICK op [arg]".
        if (curThread < 0)
            parseError(src, lineNo,
                       "record before the first 'thread' section: '",
                       line(), "'");
        if (toks[0].size() < 2 || toks[0][0] != '@')
            parseError(src, lineNo, "expected '@tick op ...', got '",
                       line(), "'");
        if (halted)
            parseError(src, lineNo, "thread ", curThread,
                       ": record after halt");
        TraceRecord r;
        r.tick = parseUint(src, lineNo, toks[0].substr(1), "timestamp");
        if (r.tick < prevTick)
            parseError(src, lineNo, "thread ", curThread, ": timestamp ",
                       r.tick, " is out of order (previous ", prevTick,
                       ")");
        prevTick = r.tick;
        if (n < 2)
            parseError(src, lineNo, "missing op after timestamp");
        const std::string_view op = toks[1];
        auto wantArg = [&](const char *what) {
            if (n != 3)
                parseError(src, lineNo, op, " wants a ", what);
            return parseUint(src, lineNo, toks[2], what);
        };
        auto wantNone = [&] {
            if (n != 2)
                parseError(src, lineNo, op, " takes no argument");
        };
        if (op == "load") {
            r.kind = TraceRecord::Kind::Load;
            r.arg = wantArg("address");
        } else if (op == "store") {
            r.kind = TraceRecord::Kind::Store;
            r.arg = wantArg("address");
        } else if (op == "barrier") {
            r.kind = TraceRecord::Kind::Barrier;
            wantNone();
        } else if (op == "compute") {
            r.kind = TraceRecord::Kind::Compute;
            r.arg = wantArg("cycle count");
            if (r.arg > 0xFFFFFFFFull)
                parseError(src, lineNo, "compute cycles ", r.arg,
                           " exceed 32 bits");
        } else if (op == "lock") {
            r.kind = TraceRecord::Kind::Lock;
            r.arg = wantArg("address");
        } else if (op == "unlock") {
            r.kind = TraceRecord::Kind::Unlock;
            r.arg = wantArg("address");
        } else if (op == "txn") {
            r.kind = TraceRecord::Kind::TxnMark;
            r.arg = wantArg("transaction count");
        } else if (op == "halt") {
            r.kind = TraceRecord::Kind::Halt;
            wantNone();
            halted = true;
        } else {
            parseError(src, lineNo, "unknown op '", op, "'");
        }
        section.push_back(r);
    }

    if (is.bad())
        fatal("trace text ", src, ": read error after line ", lineNo);
    if (!sawHeader)
        fatal("trace text ", src,
              ": empty input (no 'ptrace v1' header)");
    if (!sawThreads)
        fatal("trace text ", src, ": missing 'threads N' line");
    if (curThread >= 0 && !halted)
        fatal("trace text ", src, ": thread ", curThread,
              " does not end in halt (truncated?)");
    if (curThread >= 0)
        data.streams[curThread].assign(section.begin(), section.end());
    if (curThread + 1 != static_cast<int>(data.meta.threadCount))
        fatal("trace text ", src, ": found ", curThread + 1,
              " thread section(s) but the header declares ",
              data.meta.threadCount);
    return data;
}

std::shared_ptr<const TraceData>
openTrace(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fatal("trace ", path, ": cannot open file");
    return std::make_shared<const TraceData>(parseTrace(is, path));
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

void
appendHeader(std::string &out, const TraceMeta &meta)
{
    out += "ptrace v1\nname ";
    out += meta.name;
    out += "\nseed ";
    out += std::to_string(meta.seed);
    out += "\nthreads ";
    out += std::to_string(meta.threadCount);
    out += '\n';
}

void
appendRecordLine(std::string &out, const TraceRecord &r)
{
    // '@', 20 tick digits, " compute", " 0x" and 16 hex digits, '\n'.
    char buf[kMaxRecordLine];
    char *const end = buf + sizeof(buf);
    char *p = buf;
    *p++ = '@';
    p = std::to_chars(p, end, r.tick).ptr;
    *p++ = ' ';
    const char *name = toString(r.kind);
    const std::size_t len = std::strlen(name);
    std::memcpy(p, name, len);
    p += len;
    switch (r.kind) {
      case TraceRecord::Kind::Load:
      case TraceRecord::Kind::Store:
      case TraceRecord::Kind::Lock:
      case TraceRecord::Kind::Unlock:
        std::memcpy(p, " 0x", 3);
        p = std::to_chars(p + 3, end, r.arg, 16).ptr;
        break;
      case TraceRecord::Kind::Compute:
      case TraceRecord::Kind::TxnMark:
        *p++ = ' ';
        p = std::to_chars(p, end, r.arg).ptr;
        break;
      case TraceRecord::Kind::Barrier:
      case TraceRecord::Kind::Halt:
        break;
    }
    *p++ = '\n';
    out.append(buf, p);
}

} // namespace persim::workload::trace
