#include "exp/figures.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <tuple>
#include <utility>

#include "exp/stats_export.hh"
#include "sim/logging.hh"
#include "workload/synthetic/presets.hh"
#include "workload/workload_factory.hh"

namespace persim::exp
{

namespace
{

using model::PersistencyModel;
using persist::BarrierKind;
using Metric = Reduction::Metric;

/** One column spec: its label, model, barrier and BSP parameters. */
ExperimentSpec
column(const std::string &label, PersistencyModel pm,
       BarrierKind barrier, unsigned epochSize = 10000,
       bool logging = true)
{
    ExperimentSpec c;
    c.configLabel = label;
    c.pm = pm;
    c.barrier = barrier;
    c.epochSize = epochSize;
    c.logging = logging;
    return c;
}

/** The BEP LB++ column the ablations vary one knob of. */
ExperimentSpec
bepLbpp(const std::string &label)
{
    return column(label, PersistencyModel::BufferedEpoch,
                  BarrierKind::LBPP);
}

/** @p scalar summed over every core's persist arbiter. */
StatRef
arbiterStat(const char *scalar)
{
    return {"persist.arbiter[*]", scalar};
}

/** @p metric normalized to column @p baseline, geometric means. */
Reduction
normalized(Metric metric, const std::string &baseline, bool showBaseline)
{
    Reduction r;
    r.metric = metric;
    r.baseline = baseline;
    r.showBaseline = showBaseline;
    return r;
}

/** Raw sums of @p stats, arithmetic means. */
Reduction
statSum(std::vector<StatRef> stats)
{
    Reduction r;
    r.metric = Metric::Stat;
    r.stats = std::move(stats);
    r.gmean = false;
    return r;
}

/** 100 * sum(@p part) / sum(@p whole), arithmetic means. */
Reduction
statPercent(std::vector<StatRef> part, std::vector<StatRef> whole)
{
    Reduction r = statSum(std::move(part));
    r.percentOf = std::move(whole);
    return r;
}

std::vector<Grid>
buildGrids()
{
    std::vector<std::string> micros;
    for (auto kind : workload::allMicroKinds())
        micros.push_back(workload::toString(kind));
    const std::vector<std::string> &presets =
        workload::syntheticPresetNames();

    std::vector<ExperimentSpec> bepCols;
    for (BarrierKind b : {BarrierKind::LB, BarrierKind::LBIDT,
                          BarrierKind::LBPF, BarrierKind::LBPP})
        bepCols.push_back(column(persist::toString(b),
                                 PersistencyModel::BufferedEpoch, b));

    const ExperimentSpec np =
        column("NP", PersistencyModel::NoPersistency, BarrierKind::None,
               0, false);
    std::vector<ExperimentSpec> epochSizeCols;
    for (auto [label, size] : {std::pair{"LB300", 300u},
                               std::pair{"LB1K", 1000u},
                               std::pair{"LB10K", 10000u}})
        epochSizeCols.push_back(column(label,
                                       PersistencyModel::BufferedStrict,
                                       BarrierKind::LB, size));
    std::vector<ExperimentSpec> fig13Cols = {np};
    fig13Cols.insert(fig13Cols.end(), epochSizeCols.begin(),
                     epochSizeCols.end());
    const ExperimentSpec bspLb =
        column("LB", PersistencyModel::BufferedStrict, BarrierKind::LB);

    const Reduction normToNp = normalized(Metric::ExecTicks, "NP", false);

    std::vector<Grid> g;
    g.push_back({"fig11",
                 "Figure 11: transaction throughput normalized to LB "
                 "(higher is better)",
                 300, micros, bepCols,
                 normalized(Metric::Throughput, "LB", true)});
    g.push_back({"fig12",
                 "Figure 12: % epochs flushed because of a conflict "
                 "(lower is better)",
                 300, micros, bepCols,
                 statPercent({arbiterStat("flushIntra"),
                              arbiterStat("flushInter"),
                              arbiterStat("flushReplacement")},
                             {arbiterStat("epochsPersisted")})});
    g.push_back({"fig13",
                 "Figure 13: BSP execution time normalized to NP, "
                 "varying epoch size (lower is better)",
                 20000, presets, fig13Cols, normToNp});
    g.push_back(
        {"fig14",
         "Figure 14: BSP execution time normalized to NP at epoch size "
         "10000 (lower is better)",
         20000, presets,
         {np, bspLb,
          column("LB+IDT", PersistencyModel::BufferedStrict,
                 BarrierKind::LBIDT),
          column("LB++", PersistencyModel::BufferedStrict,
                 BarrierKind::LBPP),
          column("LB++NOLOG", PersistencyModel::BufferedStrict,
                 BarrierKind::LBPP, 10000, false)},
         normToNp});
    g.push_back({"fig13-nvram-writes",
                 "Figure 13 side table: NVRAM line writes (persist + log "
                 "+ checkpoint traffic)",
                 20000, presets, epochSizeCols,
                 statSum({{"mc[*]", "nvram.writes"}})});
    g.push_back({"fig14-conflict-breakdown",
                 "Figure 14 side table: % of LB conflicts that are "
                 "inter-thread (paper: ~86%)",
                 20000, presets, {bspLb},
                 statPercent({{"persist", "interConflicts"}},
                             {{"persist", "intraConflicts"},
                              {"persist", "interConflicts"},
                              {"persist", "replacementConflicts"}})});

    ExperimentSpec clflush = bepLbpp("clflush");
    clflush.invalidatingFlush = true;
    g.push_back({"abl-flush-type",
                 "Flush-type ablation: throughput normalized to "
                 "clflush-style invalidating flush (paper: clwb ~1.3x)",
                 300, micros, {clflush, bepLbpp("clwb")},
                 normalized(Metric::Throughput, "clflush", true)});
    g.push_back({"abl-writethrough",
                 "Write-through strict persistency: execution time "
                 "normalized to NP (paper: ~8x)",
                 4000,
                 {"ssca2", "radix", "barnes"},
                 {np, column("SP-WT", PersistencyModel::Strict,
                             BarrierKind::None, 0, false)},
                 normToNp});
    g.push_back(
        {"abl-persistency-models",
         "Persistency models (Figure 1): execution time normalized to NP "
         "(expected SP >> EP >= BEP > BEP++)",
         150,
         {"hash", "queue", "sps"},
         {np,
          column("BEP++", PersistencyModel::BufferedEpoch,
                 BarrierKind::LBPP),
          column("BEP", PersistencyModel::BufferedEpoch, BarrierKind::LB),
          column("EP", PersistencyModel::Epoch, BarrierKind::LB),
          column("SP", PersistencyModel::Strict, BarrierKind::None, 0,
                 false)},
         normToNp});
    ExperimentSpec allToAll = bepLbpp("allToAll");
    allToAll.useArbiter = false;
    Reduction packets = normalized(Metric::Stat, "arbiter", false);
    packets.stats = {{"mesh", "packets"}};
    g.push_back(
        {"abl-arbiter",
         "Arbiter ablation (§4.1): all-to-all mesh packets normalized to "
         "the per-core arbiter's",
         200,
         {"hash", "queue"},
         {bepLbpp("arbiter"), allToAll},
         packets});

    std::vector<ExperimentSpec> regCols;
    for (unsigned regs : {1u, 2u, 4u, 8u, 16u}) {
        ExperimentSpec c =
            column("regs" + std::to_string(regs),
                   PersistencyModel::BufferedStrict, BarrierKind::LBPP,
                   1000);
        c.idtRegsPerEpoch = regs;
        regCols.push_back(std::move(c));
    }
    g.push_back({"abl-idt-registers",
                 "IDT register sensitivity (§4.3; ssca2, BSP @1K, LB++): "
                 "IDT register overflows",
                 15000,
                 {"ssca2"},
                 regCols,
                 statSum({arbiterStat("idtOverflows")})});

    std::vector<ExperimentSpec> windowCols;
    for (unsigned w : {2u, 4u, 8u, 16u}) {
        ExperimentSpec c = bepLbpp("w" + std::to_string(w));
        c.maxInflightEpochs = w;
        windowCols.push_back(std::move(c));
    }
    g.push_back({"abl-epoch-window",
                 "Epoch-window sensitivity (§4.3; hash, BEP, LB++; paper "
                 "provisions 8): barrier stalls",
                 300,
                 {"hash"},
                 windowCols,
                 statSum({arbiterStat("barrierStalls")})});

    Reduction rawThroughput;
    rawThroughput.gmean = false;
    std::vector<ExperimentSpec> latencyCols;
    for (Tick lat : {90, 180, 360, 720, 1440}) {
        for (BarrierKind b : {BarrierKind::LB, BarrierKind::LBPP}) {
            ExperimentSpec c =
                column(std::string(persist::toString(b)) + "@" +
                           std::to_string(lat),
                       PersistencyModel::BufferedEpoch, b);
            c.nvramWriteLatency = lat;
            latencyCols.push_back(std::move(c));
        }
    }
    g.push_back({"abl-nvram-latency",
                 "NVRAM write-latency sensitivity (hash, BEP): "
                 "transactions per Mcycle, LB vs LB++ at each latency",
                 200,
                 {"hash"},
                 latencyCols,
                 rawThroughput});

    std::vector<ExperimentSpec> replCols;
    for (auto [label, policy, avoid] :
         {std::tuple{"lru", cache::ReplacementPolicy::Lru, true},
          std::tuple{"lru-noavoid", cache::ReplacementPolicy::Lru, false},
          std::tuple{"random", cache::ReplacementPolicy::Random, true},
          std::tuple{"random-noavoid", cache::ReplacementPolicy::Random,
                     false}}) {
        ExperimentSpec c = bepLbpp(label);
        c.replacementPolicy = policy;
        c.avoidTaggedVictims = avoid;
        // A 16 KiB LLC bank makes capacity evictions (and so
        // replacement conflicts) actually occur.
        c.llcBankBytes = 16 * 1024;
        replCols.push_back(std::move(c));
    }
    g.push_back({"abl-replacement",
                 "Replacement-policy ablation (hash, BEP, LB++, 16 KiB "
                 "LLC banks): replacement conflicts",
                 200,
                 {"hash"},
                 replCols,
                 statSum({{"persist", "replacementConflicts"}})});
    return g;
}

/** First outcome matching (workload, config, seed); nullptr if missing. */
const JobOutcome *
findOutcome(const std::vector<JobOutcome> &outcomes,
            const std::string &workload, const std::string &config,
            std::uint64_t seed)
{
    for (const JobOutcome &o : outcomes) {
        if (o.spec.workload == workload &&
            o.spec.configLabel == config && o.spec.seed == seed)
            return &o;
    }
    return nullptr;
}

/** Distinct seeds in first-appearance order. */
std::vector<std::uint64_t>
collectSeeds(const std::vector<JobOutcome> &outcomes)
{
    std::vector<std::uint64_t> seeds;
    for (const JobOutcome &o : outcomes) {
        if (std::find(seeds.begin(), seeds.end(), o.spec.seed) ==
            seeds.end())
            seeds.push_back(o.spec.seed);
    }
    return seeds;
}

/** Two-sided 95% critical value of Student's t with @p df dof. */
double
tCritical95(std::size_t df)
{
    static const double kTable[] = {
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
        2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
        2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060,  2.056, 2.052, 2.048, 2.045, 2.042,
    };
    if (df == 0)
        return 0.0;
    if (df <= 30)
        return kTable[df - 1];
    return 1.960; // normal approximation beyond the table
}

/** Distinct workloads / config labels in first-appearance order. */
void
collectAxes(const std::vector<JobOutcome> &outcomes,
            std::vector<std::string> &rows, std::vector<std::string> &cols)
{
    for (const JobOutcome &o : outcomes) {
        if (std::find(rows.begin(), rows.end(), o.spec.workload) ==
            rows.end())
            rows.push_back(o.spec.workload);
        if (std::find(cols.begin(), cols.end(), o.spec.configLabel) ==
            cols.end())
            cols.push_back(o.spec.configLabel);
    }
}

} // namespace

double
gmean(const std::vector<double> &xs)
{
    double logSum = 0;
    std::size_t n = 0;
    for (double x : xs) {
        if (x > 0) {
            logSum += std::log(x);
            ++n;
        }
    }
    return n ? std::exp(logSum / static_cast<double>(n)) : 0.0;
}

double
amean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

double
ciHalfWidth95(const std::vector<double> &xs)
{
    const std::size_t n = xs.size();
    if (n < 2)
        return 0.0;
    const double mean = amean(xs);
    double ss = 0;
    for (double x : xs)
        ss += (x - mean) * (x - mean);
    const double stddev = std::sqrt(ss / static_cast<double>(n - 1));
    return tCritical95(n - 1) * stddev /
           std::sqrt(static_cast<double>(n));
}

const std::vector<Grid> &
grids()
{
    static const std::vector<Grid> registry = buildGrids();
    return registry;
}

const Grid &
findGrid(const std::string &name)
{
    const std::string key =
        !name.empty() && std::isdigit(static_cast<unsigned char>(name[0]))
            ? "fig" + name
            : name;
    std::string known;
    for (const Grid &g : grids()) {
        if (g.name == key)
            return g;
        known += (known.empty() ? "" : ", ") + g.name;
    }
    fatal("unknown grid '", name, "' (known: ", known, ")");
}

Sweep
figureSweep(const std::string &name, std::uint64_t ops, unsigned cores,
            std::uint64_t seed)
{
    const Grid &grid = findGrid(name);
    Sweep sweep;
    sweep.name = grid.name;
    for (const std::string &w : grid.workloads) {
        for (const ExperimentSpec &config : grid.configs) {
            ExperimentSpec spec = config;
            spec.sweep = grid.name;
            spec.workload = w;
            spec.cores = cores;
            spec.ops = ops ? ops : grid.defaultOps;
            spec.seed = seed;
            sweep.jobs.push_back(std::move(spec));
        }
    }
    return sweep;
}

Sweep
figureSweep(int figure, std::uint64_t ops, unsigned cores,
            std::uint64_t seed)
{
    return figureSweep("fig" + std::to_string(figure), ops, cores, seed);
}

double
metricValue(const Reduction &reduce, const JobOutcome &outcome)
{
    switch (reduce.metric) {
      case Reduction::Metric::Throughput:
        return outcome.result.throughput();
      case Reduction::Metric::ExecTicks:
        return static_cast<double>(outcome.result.execTicks);
      case Reduction::Metric::Stat:
        break;
    }
    auto sum = [&](const std::vector<StatRef> &refs) {
        double total = 0;
        for (const StatRef &ref : refs)
            total += sumStat(outcome.statTree, ref, outcome.spec.id());
        return total;
    };
    const double value = sum(reduce.stats);
    if (reduce.percentOf.empty())
        return value;
    const double whole = sum(reduce.percentOf);
    return whole > 0 ? 100.0 * value / whole : 0.0;
}

FigureTable
figureTable(const std::string &name,
            const std::vector<JobOutcome> &outcomes)
{
    const Grid &grid = findGrid(name);
    const Reduction &reduce = grid.reduce;
    FigureTable table;
    table.title = grid.title;
    table.useGmean = reduce.gmean;
    table.meanLabel = reduce.gmean ? "gmean" : "amean";
    std::vector<std::string> allCols;
    collectAxes(outcomes, table.rows, allCols);
    for (const std::string &c : allCols) {
        if (reduce.showBaseline || c != reduce.baseline)
            table.cols.push_back(c);
    }
    const std::vector<std::uint64_t> seeds = collectSeeds(outcomes);
    table.seedCount = static_cast<unsigned>(seeds.size());

    // (workload, config, seed) -> value; normalized tables use the
    // same seed's baseline so each replicate is self-consistent.
    auto seedValue = [&](const std::string &w, const std::string &c,
                         std::uint64_t seed) -> double {
        const JobOutcome *o = findOutcome(outcomes, w, c, seed);
        if (!o || !o->ok)
            return 0.0;
        const double value = metricValue(reduce, *o);
        if (reduce.baseline.empty())
            return value;
        const JobOutcome *base =
            findOutcome(outcomes, w, reduce.baseline, seed);
        if (!base || !base->ok)
            return 0.0;
        const double baseValue = metricValue(reduce, *base);
        return baseValue == 0 ? 0.0 : value / baseValue;
    };

    // (workload, config) -> the per-seed replicate values.
    auto seedValues = [&](const std::string &w, const std::string &c) {
        std::vector<double> vals;
        vals.reserve(seeds.size());
        for (std::uint64_t s : seeds)
            vals.push_back(seedValue(w, c, s));
        return vals;
    };

    const bool multiSeed = seeds.size() > 1;
    for (const std::string &w : table.rows) {
        table.noBaseline.push_back(
            !reduce.baseline.empty() &&
            std::any_of(seeds.begin(), seeds.end(), [&](std::uint64_t s) {
                return !findOutcome(outcomes, w, reduce.baseline, s);
            }));
        std::vector<double> row;
        std::vector<double> rowCi;
        row.reserve(table.cols.size());
        for (const std::string &c : table.cols) {
            const std::vector<double> vals = seedValues(w, c);
            row.push_back(amean(vals));
            if (multiSeed)
                rowCi.push_back(ciHalfWidth95(vals));
        }
        table.cells.push_back(std::move(row));
        if (multiSeed)
            table.cellsCi.push_back(std::move(rowCi));
    }
    for (std::size_t c = 0; c < table.cols.size(); ++c) {
        std::vector<double> colVals;
        colVals.reserve(table.rows.size());
        for (std::size_t r = 0; r < table.rows.size(); ++r)
            colVals.push_back(table.cells[r][c]);
        table.means.push_back(table.useGmean ? gmean(colVals)
                                             : amean(colVals));
    }
    return table;
}

void
printFigureTable(std::ostream &os, const FigureTable &table)
{
    char buf[64];
    const bool ci = !table.cellsCi.empty();
    const int width = ci ? 18 : 12;
    const bool anyNoBaseline =
        std::find(table.noBaseline.begin(), table.noBaseline.end(),
                  true) != table.noBaseline.end();
    os << "\n=== " << table.title << " ===";
    if (table.seedCount > 1)
        os << " [mean \xc2\xb1 95% CI over " << table.seedCount
           << " seeds]";
    os << '\n';
    std::snprintf(buf, sizeof(buf), "%-12s", "workload");
    os << buf;
    for (const auto &c : table.cols) {
        std::snprintf(buf, sizeof(buf), " %*s", width, c.c_str());
        os << buf;
    }
    os << '\n';
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
        std::snprintf(buf, sizeof(buf), "%-12s", table.rows[r].c_str());
        os << buf;
        for (std::size_t c = 0; c < table.cells[r].size(); ++c) {
            if (table.noBaseline[r]) {
                std::snprintf(buf, sizeof(buf), " %*s", width, "n/a");
            } else if (ci) {
                char cell[40];
                std::snprintf(cell, sizeof(cell), "%.3f \xc2\xb1%.3f",
                              table.cells[r][c], table.cellsCi[r][c]);
                // The +/- sign is two UTF-8 bytes but one column.
                std::snprintf(buf, sizeof(buf), " %*s", width + 1,
                              cell);
            } else {
                std::snprintf(buf, sizeof(buf), " %12.3f",
                              table.cells[r][c]);
            }
            os << buf;
        }
        os << '\n';
    }
    std::snprintf(buf, sizeof(buf), "%-12s", table.meanLabel.c_str());
    os << buf;
    for (double m : table.means) {
        if (anyNoBaseline)
            std::snprintf(buf, sizeof(buf), " %*s", width, "n/a");
        else
            std::snprintf(buf, sizeof(buf), " %*.3f", width, m);
        os << buf;
    }
    os << '\n';
}

JsonValue
figureTableToJson(const FigureTable &table)
{
    JsonValue out = JsonValue::object();
    out["title"] = JsonValue(table.title);
    out["meanLabel"] = JsonValue(table.meanLabel);
    JsonValue rows = JsonValue::array();
    for (const auto &r : table.rows)
        rows.push(JsonValue(r));
    out["rows"] = std::move(rows);
    JsonValue cols = JsonValue::array();
    for (const auto &c : table.cols)
        cols.push(JsonValue(c));
    out["cols"] = std::move(cols);
    JsonValue cells = JsonValue::array();
    for (const auto &row : table.cells) {
        JsonValue jr = JsonValue::array();
        for (double v : row)
            jr.push(JsonValue(v));
        cells.push(std::move(jr));
    }
    out["cells"] = std::move(cells);
    JsonValue means = JsonValue::array();
    for (double m : table.means)
        means.push(JsonValue(m));
    out["means"] = std::move(means);
    // Only multi-seed sweeps emit the CI keys, so single-seed output
    // stays byte-identical with documents written before --seeds
    // aggregation existed.
    if (table.seedCount > 1) {
        out["seedCount"] = JsonValue(table.seedCount);
        JsonValue ci = JsonValue::array();
        for (const auto &row : table.cellsCi) {
            JsonValue jr = JsonValue::array();
            for (double v : row)
                jr.push(JsonValue(v));
            ci.push(std::move(jr));
        }
        out["cellsCi95"] = std::move(ci);
    }
    return out;
}

void
figureTableToCsv(std::ostream &os, const FigureTable &table)
{
    const bool ci = !table.cellsCi.empty();
    std::vector<std::string> header = {"workload"};
    header.insert(header.end(), table.cols.begin(), table.cols.end());
    if (ci) {
        for (const std::string &c : table.cols)
            header.push_back(c + "_ci95");
    }
    std::vector<std::vector<std::string>> rows;
    auto fmt = [](double v) {
        std::ostringstream ss;
        writeJsonNumber(ss, v);
        return ss.str();
    };
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
        std::vector<std::string> row = {table.rows[r]};
        for (double v : table.cells[r])
            row.push_back(fmt(v));
        if (ci) {
            for (double v : table.cellsCi[r])
                row.push_back(fmt(v));
        }
        rows.push_back(std::move(row));
    }
    std::vector<std::string> meanRow = {table.meanLabel};
    for (double m : table.means)
        meanRow.push_back(fmt(m));
    if (ci) {
        for (std::size_t c = 0; c < table.cols.size(); ++c)
            meanRow.push_back("");
    }
    rows.push_back(std::move(meanRow));
    writeCsv(os, header, rows);
}

} // namespace persim::exp
