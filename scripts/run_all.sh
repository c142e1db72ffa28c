#!/bin/sh
# Build, test, and regenerate every registered grid (paper figures,
# side tables, ablations), recording the outputs the repository
# documents (test_output.txt, bench_output.txt).
set -e
cd "$(dirname "$0")/.."
cmake -B build -G Ninja
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt
: > bench_output.txt
sweep=build/tools/persim_sweep
for grid in $("$sweep" --list | cut -d' ' -f1); do
    echo "==== $grid ====" | tee -a bench_output.txt
    "$sweep" --figure "$grid" --jobs "$(nproc)" --quiet \
        --out "sweep_$grid.json" 2>&1 | tee -a bench_output.txt
done
