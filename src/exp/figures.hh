/**
 * @file
 * The grid registry: every experiment the repository reports.
 *
 * A Grid is one named table — the paper's Figures 11-14, their side
 * tables, and the §7 ablations. Each entry pairs a workload axis (the
 * table's rows) and a list of column specs (configLabel plus the model,
 * barrier and ablation knobs) with the single reduction that turns the
 * finished cells into the table: a metric, an optional baseline column
 * to normalize against, and a geometric or arithmetic column mean.
 *
 * persim_sweep --figure NAME, the tests and the benchmark all expand
 * and reduce grids through this one registry.
 */

#ifndef PERSIM_EXP_FIGURES_HH
#define PERSIM_EXP_FIGURES_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "exp/json.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "exp/stats_export.hh"

namespace persim::exp
{

/** How a grid's cells reduce to its table. */
struct Reduction
{
    enum class Metric
    {
        Throughput, ///< transactions per Mcycle
        ExecTicks,  ///< execution time
        Stat,       ///< sum of `stats`
    };
    Metric metric = Metric::Throughput;

    /** Metric::Stat: the stats summed into each cell. */
    std::vector<StatRef> stats;

    /**
     * Metric::Stat: when non-empty, the cell is the percentage
     * 100 * sum(stats) / sum(percentOf) instead of the plain sum.
     */
    std::vector<StatRef> percentOf;

    /**
     * Column that normalizes every other cell of its row (same
     * workload, same seed); empty reports raw metric values.
     */
    std::string baseline;

    /** Keep the baseline column (all 1.0) in the table. */
    bool showBaseline = true;

    /** Column means: geometric (true) or arithmetic. */
    bool gmean = true;

    /** The table reads each cell's stat tree, not just its SimResult. */
    bool readsStats() const { return metric == Metric::Stat; }
};

/** One named experiment grid and its table. */
struct Grid
{
    /** "fig11", "abl-epoch-window", ...; also the sweep name. */
    std::string name;
    std::string title;

    /** Operations per thread when the caller passes 0. */
    std::uint64_t defaultOps = 300;

    /** Row axis: micro names or synthetic presets. */
    std::vector<std::string> workloads;

    /**
     * Column axis: one spec per column carrying its configLabel and
     * every model/barrier/knob field; workload, cores, ops, seed and
     * sweep are filled in at expansion.
     */
    std::vector<ExperimentSpec> configs;

    Reduction reduce;
};

/** Every registered grid, figures first. */
const std::vector<Grid> &grids();

/**
 * The grid called @p name. Figures also answer to their bare number
 * ("11" is "fig11"). Throws SimFatal listing the known names when
 * nothing matches.
 */
const Grid &findGrid(const std::string &name);

/**
 * Expand grid @p name: workloads x configs, workload-major.
 *
 * @param ops   Operations per thread; 0 picks the grid's default.
 * @param cores Core count (32 reproduces Table 1).
 * @param seed  Base workload seed.
 */
Sweep figureSweep(const std::string &name, std::uint64_t ops = 0,
                  unsigned cores = 32, std::uint64_t seed = 1);

/** figureSweep("fig<figure>", ...): paper figure 11, 12, 13 or 14. */
Sweep figureSweep(int figure, std::uint64_t ops = 0, unsigned cores = 32,
                  std::uint64_t seed = 1);

/**
 * One grid reduced to rows (workloads) x cols (configs).
 *
 * When the sweep ran the grid over several seeds (persim_sweep
 * --seeds N), each cell is the arithmetic mean over the per-seed
 * values — each seed normalized against its own baseline — and
 * cellsCi holds the matching 95% confidence half-widths (Student's t).
 * Single-seed tables have seedCount == 1 and an empty cellsCi, and
 * serialize exactly as they did before seeds existed.
 */
struct FigureTable
{
    std::string title;
    std::vector<std::string> rows;
    std::vector<std::string> cols;
    /** cells[r][c]; 0.0 marks a missing/failed cell. */
    std::vector<std::vector<double>> cells;
    std::string meanLabel; // "gmean" or "amean"
    bool useGmean = true;
    /** Column means over the workloads (matching meanLabel). */
    std::vector<double> means;
    /** Distinct seeds aggregated into each cell. */
    unsigned seedCount = 1;
    /** cellsCi[r][c]: 95% CI half-width; empty when seedCount == 1. */
    std::vector<std::vector<double>> cellsCi;
    /**
     * noBaseline[r]: a baseline cell of row r did not run (a filter
     * dropped it), so the row's cells hold 0.0 and the text table
     * prints them, and the means, as n/a. One entry per row; never
     * serialized.
     */
    std::vector<bool> noBaseline;
};

/** Geometric mean of @p xs (non-positive entries are skipped). */
double gmean(const std::vector<double> &xs);

/** Arithmetic mean. */
double amean(const std::vector<double> &xs);

/**
 * Half-width of the two-sided 95% confidence interval of the mean of
 * @p xs (Student's t with n-1 degrees of freedom); 0 for n < 2.
 */
double ciHalfWidth95(const std::vector<double> &xs);

/**
 * @p reduce's metric for one finished job, before normalization.
 * Throws SimFatal when a StatRef matches no scalar in the job's stat
 * tree.
 */
double metricValue(const Reduction &reduce, const JobOutcome &outcome);

/** Reduce @p outcomes to grid @p name's table. */
FigureTable figureTable(const std::string &name,
                        const std::vector<JobOutcome> &outcomes);

/** Render as an aligned text table. */
void printFigureTable(std::ostream &os, const FigureTable &table);

/** Serialize: {"title", "rows", "cols", "cells", "means", ...}. */
JsonValue figureTableToJson(const FigureTable &table);

/** CSV: header "workload,<cols...>", one row per workload + mean row. */
void figureTableToCsv(std::ostream &os, const FigureTable &table);

} // namespace persim::exp

#endif // PERSIM_EXP_FIGURES_HH
