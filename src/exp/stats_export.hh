/**
 * @file
 * Structured export of simulation statistics.
 *
 * The StatGroup tree is the one way stats leave a System:
 *   - statGroupsToJson(): the full tree — scalars plus distributions
 *     with count/mean/stdev/min/max/sum/p50/p95/p99.
 *   - sumStat(): the one strict scalar lookup into that tree, shared by
 *     the grid tables (exp/figures.hh), the tests and the examples.
 *   - writeCsv(): RFC-4180-style CSV tables for figure data.
 *
 * All output is deterministic: group and stat order follow registration
 * order, numbers use shortest round-trip formatting.
 */

#ifndef PERSIM_EXP_STATS_EXPORT_HH
#define PERSIM_EXP_STATS_EXPORT_HH

#include <ostream>
#include <string>
#include <vector>

#include "exp/json.hh"
#include "model/system.hh"
#include "sim/stats.hh"

namespace persim::exp
{

/** Serialize one distribution's summary (count, moments, tails). */
JsonValue distributionToJson(const Distribution &d);

/**
 * Serialize stat groups as
 * {"<group>": {"scalars": {...}, "distributions": {...}}}.
 */
JsonValue statGroupsToJson(const std::vector<const StatGroup *> &groups);

/** One scalar stat, summed over a stat tree. */
struct StatRef
{
    /**
     * Stat group name. A trailing "[*]" sums the stat over every
     * instance of the group: "persist.arbiter[*]" covers
     * persist.arbiter[0], persist.arbiter[1], ...
     */
    std::string group;
    std::string scalar;
};

/**
 * Sum of @p ref over @p statTree (statGroupsToJson() output). Throws
 * SimFatal naming the key and @p owner when no matching group carries
 * the scalar, so a stale or misspelled key fails loudly instead of
 * reading as 0. Distribution summaries are not scalars; read them from
 * the tree ("<group>" / "distributions" / "<name>").
 */
double sumStat(const JsonValue &statTree, const StatRef &ref,
               const std::string &owner = "this run");

/** Serialize a SimResult (exec/drain ticks, flags, violations). */
JsonValue simResultToJson(const model::SimResult &res);

/** Quote a CSV field when it needs quoting (comma, quote, newline). */
std::string csvField(const std::string &s);

/** Write a header row plus data rows, all fields escaped. */
void writeCsv(std::ostream &os, const std::vector<std::string> &header,
              const std::vector<std::vector<std::string>> &rows);

} // namespace persim::exp

#endif // PERSIM_EXP_STATS_EXPORT_HH
