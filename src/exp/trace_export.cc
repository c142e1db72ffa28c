#include "exp/trace_export.hh"

#include <algorithm>
#include <map>

#include "exp/json.hh"

namespace persim::exp
{

namespace
{

/**
 * Sort priority for events sharing a timestamp: ends close before
 * zero-length spans and counters, begins open last, so back-to-back
 * spans on one lane (end tick == next begin tick) keep a legal B/E
 * nesting.
 */
enum : int
{
    kPrioEnd = 0,
    kPrioPoint = 1,
    kPrioBegin = 2,
};

struct PendingEvent
{
    Tick ts;
    int prio;
    JsonValue ev;
};

JsonValue
metaEvent(const char *what, unsigned tid, const std::string &label)
{
    JsonValue meta = JsonValue::object();
    meta["name"] = JsonValue(what);
    meta["ph"] = JsonValue("M");
    meta["pid"] = JsonValue(0u);
    meta["tid"] = JsonValue(tid);
    JsonValue args = JsonValue::object();
    args["name"] = JsonValue(label);
    meta["args"] = std::move(args);
    return meta;
}

} // namespace

void
writeChromeTrace(std::ostream &os, const trace::Recorder &rec,
                 const std::string &processName)
{
    const std::vector<trace::Span> &spans = rec.spans();
    const std::vector<trace::Counter> &counters = rec.counters();
    JsonValue doc = JsonValue::object();
    JsonValue events = JsonValue::array();

    events.push(metaEvent("process_name", 0, processName));

    // Spans are recorded at close time, so recorder order is by end
    // tick; lane allocation needs begin order.
    std::vector<trace::Span> sortedSpans = spans;
    std::stable_sort(sortedSpans.begin(), sortedSpans.end(),
                     [](const trace::Span &a, const trace::Span &b) {
                         return a.begin != b.begin ? a.begin < b.begin
                                                   : a.end < b.end;
                     });

    // Greedy first-fit lane allocation per component track: a span
    // lands in the lowest lane whose previous span already ended, so
    // spans within one lane never overlap (B/E nest trivially) and
    // concurrent spans fan out across "<track> #2", "<track> #3", ...
    struct Lanes
    {
        std::vector<Tick> laneEnd;
    };
    std::map<std::string, Lanes> lanesByTrack;
    std::vector<std::string> spanLane(sortedSpans.size());
    for (std::size_t i = 0; i < sortedSpans.size(); ++i) {
        const trace::Span &s = sortedSpans[i];
        Lanes &lanes = lanesByTrack[s.track];
        std::size_t lane = 0;
        while (lane < lanes.laneEnd.size() &&
               lanes.laneEnd[lane] > s.begin)
            ++lane;
        if (lane == lanes.laneEnd.size())
            lanes.laneEnd.push_back(s.end);
        else
            lanes.laneEnd[lane] = s.end;
        spanLane[i] = lane == 0
                          ? s.track
                          : s.track + " #" + std::to_string(lane + 1);
    }

    // Track ids: span lanes in begin order of their first span.
    std::map<std::string, unsigned> tids;
    for (const std::string &lane : spanLane)
        tids.emplace(lane, static_cast<unsigned>(tids.size()));
    for (const auto &[lane, tid] : tids)
        events.push(metaEvent("thread_name", tid, lane));

    std::vector<PendingEvent> pending;
    pending.reserve(2 * sortedSpans.size() + counters.size());

    for (std::size_t i = 0; i < sortedSpans.size(); ++i) {
        const trace::Span &s = sortedSpans[i];
        const unsigned tid = tids[spanLane[i]];
        if (s.end <= s.begin) {
            // Zero-length work still deserves a bar: a complete event
            // with dur 0 renders, while an empty B/E pair would not.
            JsonValue ev = JsonValue::object();
            ev["name"] = JsonValue(s.name);
            ev["cat"] = JsonValue(s.cat);
            ev["ph"] = JsonValue("X");
            ev["ts"] = JsonValue(s.begin);
            ev["dur"] = JsonValue(0u);
            ev["pid"] = JsonValue(0u);
            ev["tid"] = JsonValue(tid);
            pending.push_back({s.begin, kPrioPoint, std::move(ev)});
            continue;
        }
        JsonValue begin = JsonValue::object();
        begin["name"] = JsonValue(s.name);
        begin["cat"] = JsonValue(s.cat);
        begin["ph"] = JsonValue("B");
        begin["ts"] = JsonValue(s.begin);
        begin["pid"] = JsonValue(0u);
        begin["tid"] = JsonValue(tid);
        pending.push_back({s.begin, kPrioBegin, std::move(begin)});

        JsonValue end = JsonValue::object();
        end["name"] = JsonValue(s.name);
        end["cat"] = JsonValue(s.cat);
        end["ph"] = JsonValue("E");
        end["ts"] = JsonValue(s.end);
        end["pid"] = JsonValue(0u);
        end["tid"] = JsonValue(tid);
        pending.push_back({s.end, kPrioEnd, std::move(end)});
    }

    for (const trace::Counter &c : counters) {
        JsonValue ev = JsonValue::object();
        ev["name"] = JsonValue(c.track);
        ev["ph"] = JsonValue("C");
        ev["ts"] = JsonValue(c.tick);
        ev["pid"] = JsonValue(0u);
        ev["tid"] = JsonValue(0u);
        JsonValue args = JsonValue::object();
        args["value"] = JsonValue(c.value);
        ev["args"] = std::move(args);
        pending.push_back({c.tick, kPrioPoint, std::move(ev)});
    }

    std::stable_sort(pending.begin(), pending.end(),
                     [](const PendingEvent &a, const PendingEvent &b) {
                         return a.ts != b.ts ? a.ts < b.ts
                                             : a.prio < b.prio;
                     });
    for (PendingEvent &p : pending)
        events.push(std::move(p.ev));

    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = JsonValue("ms");
    doc.write(os, 0);
    os << '\n';
}

void
writeCounterCsv(std::ostream &os,
                const std::vector<trace::Counter> &counters)
{
    // Column per track, first-appearance order.
    std::vector<std::string> tracks;
    auto columnOf = [&](const std::string &track) {
        for (std::size_t i = 0; i < tracks.size(); ++i) {
            if (tracks[i] == track)
                return i;
        }
        tracks.push_back(track);
        return tracks.size() - 1;
    };
    struct Row
    {
        Tick tick;
        std::vector<std::pair<std::size_t, double>> cells;
    };
    std::vector<Row> rows;
    for (const trace::Counter &c : counters) {
        const std::size_t col = columnOf(c.track);
        if (rows.empty() || rows.back().tick != c.tick)
            rows.push_back(Row{c.tick, {}});
        rows.back().cells.emplace_back(col, c.value);
    }

    os << "tick";
    for (const std::string &t : tracks)
        os << ',' << t;
    os << '\n';
    for (const Row &row : rows) {
        std::vector<double> cells(tracks.size(), 0.0);
        std::vector<bool> present(tracks.size(), false);
        for (const auto &[col, value] : row.cells) {
            cells[col] = value;
            present[col] = true;
        }
        os << row.tick;
        for (std::size_t i = 0; i < tracks.size(); ++i) {
            os << ',';
            if (present[i])
                writeJsonNumber(os, cells[i]);
        }
        os << '\n';
    }
}

} // namespace persim::exp
