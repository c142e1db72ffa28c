#include "exp/stats_export.hh"

#include "prof/phase.hh"
#include "sim/logging.hh"

namespace persim::exp
{

JsonValue
distributionToJson(const Distribution &d)
{
    JsonValue out = JsonValue::object();
    out["count"] = JsonValue(d.count());
    out["mean"] = JsonValue(d.mean());
    out["stdev"] = JsonValue(d.stdev());
    out["min"] = JsonValue(d.min());
    out["max"] = JsonValue(d.max());
    out["sum"] = JsonValue(d.sum());
    out["p50"] = JsonValue(d.p50());
    out["p95"] = JsonValue(d.p95());
    out["p99"] = JsonValue(d.p99());
    return out;
}

JsonValue
statGroupsToJson(const std::vector<const StatGroup *> &groups)
{
    prof::ScopedPhase profPhase(prof::Phase::StatExport);
    JsonValue out = JsonValue::object();
    for (const StatGroup *g : groups) {
        JsonValue &entry = out[g->name()];
        entry = JsonValue::object();
        JsonValue scalars = JsonValue::object();
        for (const StatGroup::ScalarEntry &s : g->scalars())
            scalars[s.name] = JsonValue(s.stat->value());
        JsonValue dists = JsonValue::object();
        for (const Distribution *d : g->distributions())
            dists[d->name()] = distributionToJson(*d);
        entry["scalars"] = std::move(scalars);
        entry["distributions"] = std::move(dists);
    }
    return out;
}

double
sumStat(const JsonValue &statTree, const StatRef &ref,
        const std::string &owner)
{
    const bool perInstance = ref.group.ends_with("[*]");
    const std::string prefix =
        perInstance ? ref.group.substr(0, ref.group.size() - 2)
                    : ref.group;
    double total = 0;
    bool found = false;
    for (const auto &[group, stats] : statTree.members()) {
        const bool match = perInstance
                               ? group.starts_with(prefix) &&
                                     group.find(']') == group.size() - 1
                               : group == prefix;
        if (!match)
            continue;
        if (const JsonValue *scalars = stats.get("scalars")) {
            if (const JsonValue *v = scalars->get(ref.scalar)) {
                total += v->asNumber();
                found = true;
            }
        }
    }
    if (!found)
        fatal("stat ", ref.group, ".", ref.scalar,
              " matches nothing in the stat tree of ", owner);
    return total;
}

JsonValue
simResultToJson(const model::SimResult &res)
{
    JsonValue out = JsonValue::object();
    out["completed"] = JsonValue(res.completed);
    out["deadlocked"] = JsonValue(res.deadlocked);
    out["timedOut"] = JsonValue(res.timedOut);
    out["execTicks"] = JsonValue(res.execTicks);
    out["drainTicks"] = JsonValue(res.drainTicks);
    out["events"] = JsonValue(res.events);
    out["transactions"] = JsonValue(res.transactions);
    out["throughput"] = JsonValue(res.throughput());
    JsonValue viol = JsonValue::array();
    for (const std::string &v : res.violations)
        viol.push(JsonValue(v));
    out["violations"] = std::move(viol);
    return out;
}

std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

void
writeCsv(std::ostream &os, const std::vector<std::string> &header,
         const std::vector<std::vector<std::string>> &rows)
{
    auto writeRow = [&os](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            if (i)
                os << ',';
            os << csvField(row[i]);
        }
        os << '\n';
    };
    writeRow(header);
    for (const auto &row : rows)
        writeRow(row);
}

} // namespace persim::exp
