/**
 * @file
 * Golden behaviour check: two small figure grids must reproduce the
 * per-cell results recorded in tests/data/golden_cells.txt exactly.
 *
 * Each cell contributes its integer result fields (execTicks,
 * drainTicks, events, transactions) and a 64-bit FNV-1a hash of its
 * stat-tree scalar dump ("group.stat value" lines in registration
 * order). Only integers take part, so the check holds on any compiler
 * and libm. A same-tick event reorder, a lost event or a miscounted
 * link counter changes at least one of them.
 *
 * Every line of the data file is
 *   <grid> <job id> <execTicks> <drainTicks> <events> <transactions>
 *   <fnv1a64 of the scalar dump, hex>
 * On a mismatch the test prints the line it computed, so a deliberate
 * behaviour change is re-recorded by pasting those lines in.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/figures.hh"
#include "exp/json.hh"
#include "exp/runner.hh"

namespace persim
{

namespace
{

std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** "group.stat value\n" for every scalar of @p statTree, in order. */
std::string
scalarDump(const exp::JsonValue &statTree)
{
    std::string out;
    for (const auto &[group, stats] : statTree.members()) {
        const exp::JsonValue *scalars = stats.get("scalars");
        if (!scalars)
            continue;
        for (const auto &[name, value] : scalars->members()) {
            out += group + "." + name + " " +
                   std::to_string(
                       static_cast<std::uint64_t>(value.asNumber())) +
                   "\n";
        }
    }
    return out;
}

/** One data-file line for a finished cell of grid @p grid. */
std::string
cellLine(const std::string &grid, const exp::JobOutcome &o)
{
    char hash[17];
    std::snprintf(hash, sizeof hash, "%016" PRIx64,
                  fnv1a64(scalarDump(o.statTree)));
    std::ostringstream os;
    os << grid << ' ' << o.spec.id() << ' ' << o.result.execTicks << ' '
       << o.result.drainTicks << ' ' << o.result.events << ' '
       << o.result.transactions << ' ' << hash;
    return os.str();
}

/** The recorded lines of grid @p grid, in file order. */
std::vector<std::string>
goldenLines(const std::string &grid)
{
    std::ifstream in(std::string(PERSIM_TESTS_DATA_DIR) +
                     "/golden_cells.txt");
    EXPECT_TRUE(in.good()) << "missing tests/data/golden_cells.txt";
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(grid + " ", 0) == 0)
            lines.push_back(line);
    }
    return lines;
}

/**
 * Run every job of grid @p grid (ops/thread @p ops, 4 cores, seed 1)
 * whose id contains @p only, and compare each cell's line against the
 * recording.
 */
void
checkGrid(const std::string &grid, std::uint64_t ops,
          const std::string &only)
{
    const exp::Sweep sweep = exp::figureSweep(grid, ops, /*cores=*/4,
                                              /*seed=*/1);
    std::vector<std::string> actual;
    for (const exp::ExperimentSpec &spec : sweep.jobs) {
        if (spec.id().find(only) == std::string::npos)
            continue;
        const exp::JobOutcome o = exp::runJob(spec);
        ASSERT_TRUE(o.ok) << spec.id() << ": " << o.error;
        ASSERT_TRUE(o.result.completed) << spec.id();
        EXPECT_TRUE(o.result.violations.empty()) << spec.id();
        actual.push_back(cellLine(grid, o));
    }
    const std::vector<std::string> golden = goldenLines(grid);
    EXPECT_EQ(actual.size(), golden.size()) << "cells of " << grid;
    for (std::size_t i = 0; i < std::min(actual.size(), golden.size());
         ++i)
        EXPECT_EQ(actual[i], golden[i]);
    if (::testing::Test::HasFailure()) {
        std::string computed;
        for (const std::string &line : actual)
            computed += line + "\n";
        ADD_FAILURE() << "computed lines:\n" << computed;
    }
}

} // namespace

TEST(GoldenBehaviour, Fig14LbColumn)
{
    checkGrid("fig14", 200, "/LB/");
}

TEST(GoldenBehaviour, Fig11Grid)
{
    checkGrid("fig11", 20, "");
}

} // namespace persim
