#!/usr/bin/env bash
# Host-time profile regression gate for scripts/bench_trace.sh.
#
# Profiles one representative sweep cell with the current build
# (--prof-out) and, when BASELINE_BUILD is set, with the baseline
# binary too, then runs
#
#   persim_prof diff <before> <after> --threshold ${PROF_GATE_PP:-10}
#
# so any phase whose share of host samples moved by more than the
# threshold (percentage points) fails the bench with nonzero exit —
# the regression gate the ROADMAP's profiling item left open. Without
# BASELINE_BUILD there is nothing to diff against: the current profile
# is still captured (copied next to the bench output for the record)
# and the gate passes.
#
# Knobs:
#   PROF_GATE=0       skip entirely (required for -pg builds, where
#                     gprof owns ITIMER_PROF)
#   PROF_GATE_PP=N    threshold in percentage points (default 10)
#
# Usage: prof_gate.sh <build-dir> <out-prefix> -- <persim_sweep args...>
set -euo pipefail

if [ "${PROF_GATE:-1}" = "0" ]; then
    echo "[prof-gate] disabled (PROF_GATE=0)" >&2
    exit 0
fi

build=$1
prefix=$2
shift 2
[ "${1:-}" = "--" ] && shift

find_sweep() { # find_sweep <build-dir-or-binary>
    if [ -x "$1/tools/persim_sweep" ]; then echo "$1/tools/persim_sweep"
    elif [ -x "$1/persim_sweep" ]; then echo "$1/persim_sweep"
    else echo "$1"; fi
}

sweep=$(find_sweep "$build")
prof_tool="$build/tools/persim_prof"
threshold=${PROF_GATE_PP:-10}

if [ ! -x "$prof_tool" ]; then
    echo "[prof-gate] $prof_tool not built; skipping" >&2
    exit 0
fi

echo "[prof-gate] profiling current build ..." >&2
"$sweep" "$@" --quiet --no-stats --out "$prefix.sweep.json" \
    --prof-out "$prefix.after.json" >/dev/null
rm -f "$prefix.sweep.json" "$prefix.sweep.json.journal"

if [ -z "${BASELINE_BUILD:-}" ]; then
    echo "[prof-gate] no BASELINE_BUILD: captured $prefix.after.json," \
         "nothing to diff" >&2
    exit 0
fi

base_sweep=$(find_sweep "$BASELINE_BUILD")
echo "[prof-gate] profiling baseline build ..." >&2
if ! "$base_sweep" "$@" --quiet --no-stats \
    --out "$prefix.base_sweep.json" \
    --prof-out "$prefix.before.json" >/dev/null 2>&1; then
    echo "[prof-gate] baseline does not support --prof-out;" \
         "skipping diff" >&2
    rm -f "$prefix.base_sweep.json" "$prefix.base_sweep.json.journal"
    exit 0
fi
rm -f "$prefix.base_sweep.json" "$prefix.base_sweep.json.journal"

echo "[prof-gate] persim_prof diff (threshold ${threshold}pp) ..." >&2
if ! "$prof_tool" diff "$prefix.before.json" "$prefix.after.json" \
    --threshold "$threshold"; then
    echo "error: a phase's host-time share moved by more than" \
         "${threshold}pp vs the baseline (profiles kept at" \
         "$prefix.{before,after}.json)" >&2
    exit 1
fi
echo "[prof-gate] ok: no phase moved more than ${threshold}pp" >&2
