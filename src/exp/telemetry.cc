#include "exp/telemetry.hh"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

namespace persim::exp
{

namespace
{

/** Slurp a /proc file; empty string where /proc is unavailable. */
std::string
readProcFile(const char *path)
{
    std::ifstream in(path);
    if (!in)
        return {};
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

} // namespace

std::uint64_t
parseStatusKb(std::string_view text, std::string_view key)
{
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string_view::npos)
            eol = text.size();
        const std::string_view line = text.substr(pos, eol - pos);
        pos = eol + 1;
        // "<key>:" exactly — "VmRSS" must not match "VmRSSExtra:".
        if (line.size() <= key.size() ||
            line.compare(0, key.size(), key) != 0 ||
            line[key.size()] != ':')
            continue;
        std::size_t i = key.size() + 1;
        while (i < line.size() &&
               (line[i] == ' ' || line[i] == '\t'))
            ++i;
        if (i >= line.size() ||
            !std::isdigit(static_cast<unsigned char>(line[i])))
            return 0; // malformed value: refuse rather than guess
        std::uint64_t value = 0;
        for (; i < line.size() &&
               std::isdigit(static_cast<unsigned char>(line[i]));
             ++i)
            value = value * 10 + static_cast<std::uint64_t>(line[i] - '0');
        return value;
    }
    return 0;
}

std::uint64_t
currentRssKb()
{
    return parseStatusKb(readProcFile("/proc/self/status"), "VmRSS");
}

std::uint64_t
peakRssKb()
{
    return parseStatusKb(readProcFile("/proc/self/status"), "VmHWM");
}

unsigned
hostCpuCount()
{
    return std::thread::hardware_concurrency();
}

double
loadAverage1()
{
    // First field of /proc/loadavg; strtod-style parse keeps this
    // locale-independent (the kernel always writes "0.42").
    const std::string text = readProcFile("/proc/loadavg");
    if (text.empty())
        return -1.0;
    double whole = 0.0;
    std::size_t i = 0;
    bool any = false;
    for (; i < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[i]));
         ++i, any = true)
        whole = whole * 10.0 + (text[i] - '0');
    if (!any)
        return -1.0;
    if (i < text.size() && text[i] == '.') {
        double scale = 0.1;
        for (++i; i < text.size() &&
                  std::isdigit(static_cast<unsigned char>(text[i]));
             ++i, scale *= 0.1)
            whole += (text[i] - '0') * scale;
    }
    return whole;
}

const char *
jobStateName(JobState s)
{
    switch (s) {
      case JobState::Queued:
        return "queued";
      case JobState::Running:
        return "running";
      case JobState::Retrying:
        return "retrying";
      case JobState::Done:
        return "done";
      case JobState::Failed:
        return "failed";
      case JobState::TimedOut:
        return "timed-out";
    }
    return "unknown";
}

JsonValue
JobTelemetry::toJson() const
{
    JsonValue out = JsonValue::object();
    out["id"] = JsonValue(id);
    out["state"] = JsonValue(jobStateName(state));
    out["attempts"] = JsonValue(attempts);
    out["worker"] = JsonValue(worker);
    out["wallMs"] = JsonValue(wallMs);
    out["events"] = JsonValue(events);
    out["rssAfterKb"] = JsonValue(rssAfterKb);
    return out;
}

std::uint64_t
SweepTelemetry::totalEvents() const
{
    std::uint64_t total = 0;
    for (const JobTelemetry &j : jobs)
        total += j.events;
    return total;
}

std::size_t
SweepTelemetry::failedJobs() const
{
    std::size_t n = 0;
    for (const JobTelemetry &j : jobs)
        n += (j.state == JobState::Failed ||
              j.state == JobState::TimedOut)
                 ? 1
                 : 0;
    return n;
}

std::size_t
SweepTelemetry::timedOutJobs() const
{
    std::size_t n = 0;
    for (const JobTelemetry &j : jobs)
        n += j.state == JobState::TimedOut ? 1 : 0;
    return n;
}

std::size_t
SweepTelemetry::retriedJobs() const
{
    std::size_t n = 0;
    for (const JobTelemetry &j : jobs)
        n += j.attempts > 1 ? 1 : 0;
    return n;
}

double
SweepTelemetry::eventsPerSec() const
{
    return wallMs > 0.0
               ? static_cast<double>(totalEvents()) * 1e3 / wallMs
               : 0.0;
}

JsonValue
SweepTelemetry::toJson() const
{
    JsonValue out = JsonValue::object();
    out["sweep"] = JsonValue(sweep);
    out["workers"] = JsonValue(workers);
    out["hostCpus"] = JsonValue(hostCpus);
    if (loadAvg1 >= 0.0)
        out["loadAvg1"] = JsonValue(loadAvg1);
    out["wallMs"] = JsonValue(wallMs);
    out["peakRssKb"] = JsonValue(peakRssKb);
    out["totalEvents"] = JsonValue(totalEvents());
    out["eventsPerSec"] = JsonValue(eventsPerSec());
    out["failed"] = JsonValue(failedJobs());
    out["timedOut"] = JsonValue(timedOutJobs());
    out["retried"] = JsonValue(retriedJobs());
    JsonValue arr = JsonValue::array();
    for (const JobTelemetry &j : jobs)
        arr.push(j.toJson());
    out["jobs"] = std::move(arr);
    return out;
}

std::string
SweepTelemetry::summaryLine() const
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s: %zu jobs (%zu failed, %zu timed out, "
                  "%zu retried) in %.1f s, "
                  "%.2f Mevents/s, peak RSS %.1f MB",
                  sweep.c_str(), jobs.size(), failedJobs(),
                  timedOutJobs(), retriedJobs(), wallMs / 1e3,
                  eventsPerSec() / 1e6,
                  static_cast<double>(peakRssKb) / 1024.0);
    return buf;
}

} // namespace persim::exp
