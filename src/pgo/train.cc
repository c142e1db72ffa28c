/**
 * @file
 * persim_pgo_train — the training run of the profile-guided Release
 * build (src/pgo/CMakeLists.txt).
 *
 * Runs every registered grid at 32 cores and a twentieth of its default
 * ops on seed 101, one worker, and reduces each to its table, the way
 * persim_sweep does; it writes no file. The profile is spread over the
 * whole registry rather than the benchmark's grids and seeds, so it
 * cannot be tuned to them. Exits 1 when a cell fails, does not complete
 * or breaks persist ordering: a build must not learn from a broken run.
 */

#include <cstdio>
#include <vector>

#include "exp/figures.hh"
#include "exp/runner.hh"

using namespace persim;

int
main()
{
    int bad = 0;
    for (const exp::Grid &grid : exp::grids()) {
        const exp::Sweep sweep =
            exp::figureSweep(grid.name, grid.defaultOps / 20, 32, 101);
        exp::RunnerOptions opts;
        opts.maxAttempts = 1;
        opts.progress = false;
        const std::vector<exp::JobOutcome> outcomes =
            exp::SweepRunner(opts).run(sweep);
        for (const exp::JobOutcome &o : outcomes) {
            if (o.ok && o.result.completed && o.result.violations.empty())
                continue;
            std::fprintf(stderr, "persim_pgo_train: %s failed: %s\n",
                         o.spec.id().c_str(),
                         o.ok ? "incomplete or ordering violation"
                              : o.error.c_str());
            ++bad;
        }
        exp::figureTable(grid.name, outcomes);
        exp::sweepToJson(sweep, outcomes);
    }
    return bad ? 1 : 0;
}
