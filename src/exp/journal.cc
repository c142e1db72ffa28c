#include "exp/journal.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "exp/stats_export.hh"
#include "sim/logging.hh"

namespace persim::exp
{

namespace
{

/** FNV-1a over a byte range, continuing from @p h. */
std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t
fnv1a(std::uint64_t h, const std::string &s)
{
    // Hash the length too so field boundaries cannot alias
    // ("ab"+"c" vs "a"+"bc").
    const std::size_t n = s.size();
    h = fnv1a(h, &n, sizeof(n));
    return fnv1a(h, s.data(), n);
}

/** write(2) the whole buffer, retrying on EINTR/short writes. */
bool
writeAll(int fd, const char *data, std::size_t n)
{
    while (n > 0) {
        const ssize_t w = ::write(fd, data, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

} // namespace

JsonValue
outcomeToWire(const JobOutcome &outcome)
{
    JsonValue wire = JsonValue::object();
    wire["id"] = JsonValue(outcome.spec.id());
    wire["ok"] = JsonValue(outcome.ok);
    wire["attempts"] = JsonValue(outcome.attempts);
    wire["error"] = JsonValue(outcome.error);
    wire["wallMs"] = JsonValue(outcome.wallMs);
    wire["result"] = simResultToJson(outcome.result);
    if (!outcome.statTree.isNull())
        wire["groups"] = outcome.statTree;
    return wire;
}

JobOutcome
outcomeFromWire(const JsonValue &wire, const ExperimentSpec &spec,
                std::size_t index)
{
    JobOutcome out;
    out.index = index;
    out.spec = spec;
    if (const JsonValue *v = wire.get("ok"))
        out.ok = v->asBool();
    if (const JsonValue *v = wire.get("attempts"))
        out.attempts = static_cast<unsigned>(v->asNumber());
    if (const JsonValue *v = wire.get("error"))
        out.error = v->asString();
    if (const JsonValue *v = wire.get("wallMs"))
        out.wallMs = v->asNumber();
    if (const JsonValue *v = wire.get("result"))
        out.result = simResultFromJson(*v);
    if (const JsonValue *v = wire.get("groups"))
        out.statTree = *v;
    return out;
}

std::uint64_t
gridFingerprint(const std::vector<ExperimentSpec> &jobs)
{
    std::uint64_t h = 1469598103934665603ULL; // FNV offset basis
    for (const ExperimentSpec &spec : jobs) {
        h = fnv1a(h, spec.toJson().dump(0));
        h = fnv1a(h, spec.traceFile);
    }
    return h;
}

// ---------------------------------------------------------------------
// SweepJournal
// ---------------------------------------------------------------------

SweepJournal::~SweepJournal()
{
    close();
}

void
SweepJournal::open(const std::string &path, const JournalHeader &header,
                   bool fresh)
{
    close();
    int flags = O_CREAT | O_WRONLY | O_APPEND;
    if (fresh)
        flags |= O_TRUNC;
    _fd = ::open(path.c_str(), flags, 0644);
    if (_fd < 0)
        fatal("cannot open journal ", path, ": ",
              std::strerror(errno));
    _path = path;

    const off_t size = ::lseek(_fd, 0, SEEK_END);
    if (size == 0) {
        JsonValue hdr = JsonValue::object();
        hdr["persimJournal"] = JsonValue(1);
        hdr["sweep"] = JsonValue(header.sweep);
        hdr["jobCount"] = JsonValue(header.jobCount);
        char hash[32];
        std::snprintf(hash, sizeof(hash), "%016llx",
                      static_cast<unsigned long long>(header.gridHash));
        hdr["gridHash"] = JsonValue(std::string(hash));
        hdr["statTrees"] = JsonValue(header.statTrees);
        const std::string line = hdr.dump(0) + "\n";
        if (!writeAll(_fd, line.data(), line.size()) ||
            ::fsync(_fd) != 0)
            fatal("cannot write journal header to ", path, ": ",
                  std::strerror(errno));
    }
}

void
SweepJournal::append(const JobOutcome &outcome)
{
    if (_fd < 0)
        return;
    // One line, one write(2), one fsync: the entry is durable before
    // the runner reports the job done, and concurrent appends from
    // worker threads cannot interleave bytes (O_APPEND).
    const std::string line = outcomeToWire(outcome).dump(0) + "\n";
    std::lock_guard<std::mutex> lock(_mutex);
    if (!writeAll(_fd, line.data(), line.size()))
        fatal("cannot append to journal ", _path, ": ",
              std::strerror(errno));
    if (::fsync(_fd) != 0)
        fatal("cannot fsync journal ", _path, ": ",
              std::strerror(errno));
}

void
SweepJournal::close()
{
    if (_fd >= 0) {
        ::close(_fd);
        _fd = -1;
    }
}

// ---------------------------------------------------------------------
// loadJournal / merge
// ---------------------------------------------------------------------

JournalContents
loadJournal(const std::string &path)
{
    JournalContents out;
    std::ifstream in(path);
    if (!in)
        return out;
    out.exists = true;

    std::string line;
    bool first = true;
    std::map<std::string, std::size_t> seen; // id -> entries index
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        JsonValue v;
        try {
            v = JsonValue::parse(line);
        } catch (const std::exception &) {
            // A torn line: the process died mid-append. Anything this
            // line would have recorded simply re-runs on resume.
            ++out.dropped;
            continue;
        }
        if (first) {
            first = false;
            const JsonValue *magic = v.get("persimJournal");
            const JsonValue *sweep = v.get("sweep");
            const JsonValue *count = v.get("jobCount");
            const JsonValue *hash = v.get("gridHash");
            if (!magic || !sweep || !count || !hash)
                continue; // headerOk stays false
            out.headerOk = true;
            out.header.sweep = sweep->asString();
            out.header.jobCount =
                static_cast<std::size_t>(count->asNumber());
            out.header.gridHash = std::strtoull(
                hash->asString().c_str(), nullptr, 16);
            if (const JsonValue *trees = v.get("statTrees"))
                out.header.statTrees = trees->asBool();
            continue;
        }
        const JsonValue *id = v.get("id");
        if (!id) {
            ++out.dropped;
            continue;
        }
        const auto [it, inserted] =
            seen.try_emplace(id->asString(), out.entries.size());
        if (inserted) {
            out.entries.emplace_back(id->asString(), std::move(v));
        } else {
            ++out.duplicates;
            out.entries[it->second].second = std::move(v);
        }
    }
    return out;
}

std::vector<JobOutcome>
mergeResumedOutcomes(
    const Sweep &fullSweep,
    const std::vector<std::pair<std::string, JsonValue>> &entries,
    std::vector<JobOutcome> fresh)
{
    std::map<std::string, const JsonValue *> journaled;
    for (const auto &[id, wire] : entries)
        journaled[id] = &wire;
    std::map<std::string, JobOutcome *> ran;
    for (JobOutcome &o : fresh)
        ran[o.spec.id()] = &o;

    std::vector<JobOutcome> merged;
    merged.reserve(fullSweep.jobs.size());
    for (std::size_t i = 0; i < fullSweep.jobs.size(); ++i) {
        const ExperimentSpec &spec = fullSweep.jobs[i];
        const std::string id = spec.id();
        // A cell both journaled and re-run keeps the fresh outcome
        // (it only re-ran because the caller chose to re-run it).
        if (auto it = ran.find(id); it != ran.end()) {
            JobOutcome o = std::move(*it->second);
            o.index = i;
            merged.push_back(std::move(o));
            continue;
        }
        if (auto it = journaled.find(id); it != journaled.end()) {
            merged.push_back(outcomeFromWire(*it->second, spec, i));
            continue;
        }
        fatal("resume merge: cell '", id,
              "' is neither journaled nor freshly run");
    }
    return merged;
}

// ---------------------------------------------------------------------
// writeFileAtomic
// ---------------------------------------------------------------------

void
writeFileAtomic(const std::string &path, const std::string &content)
{
    const std::string tmp = path + ".tmp";
    int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (fd < 0)
        fatal("cannot write ", tmp, ": ", std::strerror(errno));
    if (!writeAll(fd, content.data(), content.size()) ||
        ::fsync(fd) != 0) {
        ::close(fd);
        fatal("cannot write ", tmp, ": ", std::strerror(errno));
    }
    ::close(fd);
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        fatal("cannot rename ", tmp, " to ", path, ": ",
              std::strerror(errno));

    // Make the rename itself durable.
    std::string dir = path;
    const std::size_t slash = dir.find_last_of('/');
    dir = slash == std::string::npos ? "." : dir.substr(0, slash);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
}

} // namespace persim::exp
