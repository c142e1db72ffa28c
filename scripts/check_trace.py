#!/usr/bin/env python3
"""Check driver behind the labelled ctest entries in tools/CMakeLists.txt.

  check_trace.py trace FILE [--require-counter N]... [--require-span P]...
      Validate a Chrome trace-event JSON file written by persim_sweep:
      valid JSON with a traceEvents array; only M, B, E, X and C
      events (spans, counters, metadata); stack-matched B/E pairs per
      (pid, tid) lane; timestamps non-decreasing per lane and strictly
      increasing per counter track (pid, name); every C event has a
      non-empty all-numeric args object (Perfetto drops anything else);
      optionally, the named counter tracks and span-name prefixes.

  check_trace.py CHECK --bin DIR --dir DIR
      Run one named check (see CHECKS) with the tools in --bin, writing
      every file into --dir (emptied first).

Exit status is 0 when the check passes, 1 otherwise.
"""

import argparse
import filecmp
import glob
import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BIN = "."


class CheckFailed(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def check(path, require_counters, require_spans):
    errors = []
    with open(path) as fh:
        doc = json.load(fh)

    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents missing or empty"]

    stacks = defaultdict(list)  # (pid, tid) -> [B names]
    lane_ts = {}  # (pid, tid) -> last ts
    counter_ts = {}  # (pid, counter name) -> last ts
    counters_seen = set()
    span_names = set()

    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in ("M", "B", "E", "X", "C"):
            errors.append(f"event {i}: unexpected ph {ph!r}: {ev}")
            continue
        if ph == "M":
            continue
        key = (ev.get("pid"), ev.get("tid"))
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            errors.append(f"event {i}: missing/invalid ts: {ev}")
            continue

        if ph in ("B", "E", "X"):
            last = lane_ts.get(key)
            if last is not None and ts < last:
                errors.append(
                    f"event {i}: ts {ts} < {last} on lane {key}")
            lane_ts[key] = ts

        if ph == "B":
            stacks[key].append(ev.get("name"))
            span_names.add(ev.get("name", ""))
        elif ph == "E":
            if not stacks[key]:
                errors.append(f"event {i}: E without open B on {key}")
            elif stacks[key][-1] != ev.get("name"):
                errors.append(
                    f"event {i}: E '{ev.get('name')}' does not match "
                    f"open B '{stacks[key][-1]}' on lane {key}")
            else:
                stacks[key].pop()
        elif ph == "X":
            span_names.add(ev.get("name", ""))
            if not isinstance(ev.get("dur"), (int, float)):
                errors.append(f"event {i}: X without dur: {ev}")
        elif ph == "C":
            name = ev.get("name")
            counters_seen.add(name)
            track = (ev.get("pid"), name)
            last = counter_ts.get(track)
            if last is not None and ts <= last:
                errors.append(
                    f"event {i}: counter '{name}' ts {ts} <= {last}"
                    f" on pid {ev.get('pid')}")
            counter_ts[track] = ts
            args_obj = ev.get("args")
            if not isinstance(args_obj, dict) or not args_obj:
                errors.append(
                    f"event {i}: counter '{name}' without args object")
            else:
                for k, v in args_obj.items():
                    if not isinstance(v, (int, float)) or isinstance(
                            v, bool):
                        errors.append(
                            f"event {i}: counter '{name}' arg "
                            f"'{k}' is not numeric: {v!r}")

    for key, stack in stacks.items():
        if stack:
            errors.append(f"lane {key}: unclosed B events: {stack}")

    for name in require_counters:
        if name not in counters_seen:
            errors.append(f"required counter track missing: {name}")
    for prefix in require_spans:
        if not any(n.startswith(prefix) for n in span_names):
            errors.append(f"no span name starts with: {prefix!r}")

    return errors


def tool(name, *args, status=0, env=None):
    """Run a tool and return its exit status. Signal death reads
    128 + signo, as in a shell. @p status is the status the tool must
    exit with, or None to accept any."""
    cmd = [os.path.join(BIN, name)] + [str(a) for a in args]
    print("+", " ".join(cmd), flush=True)
    p = subprocess.run(cmd, env=dict(os.environ, **(env or {})))
    rc = 128 - p.returncode if p.returncode < 0 else p.returncode
    expect(status is None or rc == status,
           f"{name} exited {rc}, expected {status}")
    return rc


def sweep(*args, **kw):
    return tool("persim_sweep", *args, **kw)


def same(a, b):
    expect(filecmp.cmp(a, b, shallow=False), f"{a} and {b} differ")


def same_runs(tag, grid, *variants):
    """Run @p grid once per variant (extra flags) into TAG_<i>.json; the
    documents must be byte-identical."""
    for i, extra in enumerate(variants):
        sweep(*grid, *extra, "--out", f"{tag}_{i}.json")
        same(f"{tag}_0.json", f"{tag}_{i}.json")


def load(path):
    with open(path) as f:
        return json.load(f)


def fresh_dir(path):
    """Make @p path an empty directory. One that holds files but not the
    marker a check leaves is refused, never cleared."""
    marker = os.path.join(path, ".check_trace")
    if os.path.isdir(path) and os.listdir(path):
        expect(os.path.exists(marker),
               f"{path} is not empty and was not made by a check")
        shutil.rmtree(path)
    os.makedirs(path, exist_ok=True)
    open(marker, "w").close()


def smoke_jobs_deterministic():
    """--jobs does not change the sweep document."""
    same_runs("fig11", ("--figure", 11, "--ops", 50, "--cores", 4),
              ("--jobs", 2), ("--jobs", 1, "--quiet"))


def smoke_hot_path_deterministic():
    """--jobs does not change the hot-path cells' documents or trace.

    fig11 hash/LB++ runs the front-end fast paths; fig14 canneal/LB
    drives the heaviest LLC eviction and flush traffic."""
    for fig, only in ((11, "hash/LB++/"), (13, "/LB300/"),
                      (14, "canneal/LB/")):
        trace = [("--trace", f"trace_{j}.json") if fig == 13 else ()
                 for j in (0, 1)]
        same_runs(f"fig{fig}", ("--figure", fig, "--only", only, "--ops",
                                200, "--cores", 4, "--quiet"),
                  ("--jobs", 8, *trace[0]), ("--jobs", 1, *trace[1]))
    same("trace_0.json", "trace_1.json")


def obs_traced_sweep():
    """A traced sweep writes valid documents and a well-formed trace."""
    sweep("--figure", 14, "--ops", 500, "--cores", 4, "--jobs", 2,
          "--only", "canneal/LB++/", "--progress",
          "--trace", "trace.json",
          "--trace-flags", "Epoch,Flush,Exec,Mshr,NvmQ",
          "--interval", 2000, "--interval-csv", "counters.csv",
          "--timing-out", "timing.json", "--out", "sweep.json")
    for doc in ("trace.json", "timing.json", "sweep.json"):
        load(doc)
    errors = check("trace.json", ["epochsInFlight", "nvmQueueDepth", "ipc"],
                   ["epoch ", "execute"])
    expect(not errors, "\n".join(errors[:20]))


def obs_shards_partition():
    """Sharded sweeps merge to exactly the full grid."""
    grid = ("--figure", 13, "--ops", 50, "--cores", 2, "--jobs", 1,
            "--quiet", "--no-stats")
    sweep(*grid, "--out", "full.json")
    full = {j["id"] for j in load("full.json")["jobs"]}
    merged = set()
    for s in (1, 2, 3):
        sweep(*grid, "--shard", f"{s}/3", "--out", f"shard{s}.json")
        part = {j["id"] for j in load(f"shard{s}.json")["jobs"]}
        expect(not merged & part, "shards overlap")
        merged |= part
    expect(merged == full, "shards do not cover the grid")
    print(f"shards partition {len(full)} jobs exactly")


def prof_profiled_sweep():
    """--prof-out leaves the sweep document alone and writes phase
    samples, at least 90% of them on a named phase, and nothing else."""
    same_runs("sweep", ("--figure", 14, "--ops", 2000, "--cores", 8,
                        "--jobs", 2, "--only", "/LB/", "--quiet",
                        "--no-stats"),
              ("--prof-out", "prof_a.json"), ("--prof-out", "prof_b.json"),
              ())
    load("prof_b.json")
    prof = load("prof_a.json")
    expect(prof["phases"], "profile has no phases")
    for key in ("counters", "jobs", "hostCpus"):
        expect(key not in prof, f"profile still carries {key!r}")
    ratio = prof["attributionRatio"]
    expect(ratio >= 0.90, f"attribution {100 * ratio:.1f}%")


# The fault checks assert signal death, which a sanitizer runtime
# intercepts: sanitizer builds skip them (ctest -LE fault).
FAULT_GRID = ("--figure", 11, "--ops", 50, "--cores", 4)
FAULT_HASH = FAULT_GRID + ("--workload", "hash", "--retries", 0,
                           "--quiet")


def one_failed_cell(fault, out, error, *args):
    """Inject @p fault: exit 1, exactly one cell failed with @p error."""
    sweep(*FAULT_HASH, *args, "--out", out, status=1,
          env={"PERSIM_FAULT": fault})
    jobs = load(out)["jobs"]
    bad = [j for j in jobs if not j["ok"]]
    expect(len(bad) == 1, [j["id"] for j in bad])
    expect(bad[0]["error"] == error, bad[0])
    expect(sum(j["ok"] for j in jobs) == len(jobs) - 1, "ok count")


def fault_throw_costs_one_cell():
    """An injected exception fails exactly one cell: exit 1, no crash."""
    one_failed_cell("throw:1", "throw.json", "injected fault: throw")


def fault_watchdog_times_out_hang():
    """The watchdog turns a hung cell into a timeout."""
    one_failed_cell("hang:0", "hang.json", "timeout",
                    "--job-timeout-ms", 2000, "--timing-out", "tel.json")
    tel = load("tel.json")
    expect(tel["timedOut"] == 1, tel["timedOut"])
    states = [j["state"] for j in tel["jobs"]]
    expect(states.count("timed-out") == 1, states)


def fault_isolate_contains_segv():
    """--isolate contains a segfault to one cell."""
    one_failed_cell("segv:2", "segv.json", "signal: SIGSEGV", "--isolate")


def fault_isolate_byte_identical():
    """An isolated green sweep is byte-identical to an in-process one."""
    same_runs("iso", FAULT_GRID + ("--jobs", 2, "--quiet"), (),
              ("--isolate",))


def fault_resume_after_crash():
    """A crash leaves a journal; --resume finishes byte-identical."""
    sweep(*FAULT_GRID, "--quiet", "--out", "resume_ref.json")
    rc = sweep(*FAULT_GRID, "--retries", 0, "--quiet",
               "--out", "resume.json", status=None,
               env={"PERSIM_FAULT": "segv:1"})
    expect(rc > 1, f"exit {rc}: expected death by signal")
    expect(not os.path.exists("resume.json"), "torn output document")
    expect(os.path.getsize("resume.json.journal") > 0, "empty journal")
    sweep(*FAULT_GRID, "--quiet", "--resume", "--out", "resume.json")
    same("resume_ref.json", "resume.json")
    expect(not os.path.exists("resume.json.journal"),
           "finalize kept the journal")


def fault_resume_refuses_changed_grid():
    """--resume refuses a journal written for another grid."""
    sweep(*FAULT_GRID, "--retries", 0, "--quiet", "--out", "mm.json",
          status=None, env={"PERSIM_FAULT": "segv:1"})
    rc = sweep("--figure", 11, "--ops", 60, "--cores", 4, "--quiet",
               "--resume", "--out", "mm.json", status=None)
    expect(rc != 0, "resume accepted a mismatched grid")


def trace_fig11_capture_replay():
    """Capture -> replay is byte-identical; captures validate and
    convert losslessly."""
    same_runs("fig11", ("--figure", 11, "--ops", 50, "--cores", 4,
                        "--jobs", 2, "--quiet", "--no-stats"),
              ("--capture-dir", "traces"), ("--replay-dir", "traces"))
    captures = glob.glob("traces/*.ptrace")
    expect(captures, "no captured traces")
    for f in captures:
        tool("persim_trace", "validate", f)
    hash_trace = "traces/fig11_hash_LB++_s1.ptrace"
    tool("persim_trace", "stats", hash_trace)
    tool("persim_trace", "to-text", hash_trace, "hash.txt.ptrace")
    tool("persim_trace", "to-binary", "hash.txt.ptrace", "hash.bin.ptrace")
    same("hash.bin.ptrace", hash_trace)


def trace_fig14_capture_replay():
    """Capture -> replay of a fig14 synthetic cell is byte-identical."""
    same_runs("fig14", ("--figure", 14, "--workload", "canneal", "--ops",
                        300, "--cores", 4, "--jobs", 1, "--quiet",
                        "--no-stats"),
              ("--capture-dir", "traces"), ("--replay-dir", "traces"))


def trace_fixture_validates():
    """persim_trace validates the checked-in fixture."""
    fixture = os.path.join(ROOT, "tests", "data", "fixture.ptrace")
    tool("persim_trace", "validate", fixture)
    tool("persim_trace", "stats", fixture)


def trace_seeds_table_ci():
    """A multi-seed figure table carries 95% confidence columns."""
    sweep("--figure", 11, "--workload", "hash", "--ops", 50, "--cores", 4,
          "--seeds", 3, "--jobs", 2, "--quiet", "--no-stats",
          "--out", "seeds.json", "--csv", "seeds.csv")
    table = load("seeds.json")["table"]
    expect(table["seedCount"] == 3, table.get("seedCount"))
    expect("cellsCi95" in table, "missing CI cells")
    with open("seeds.csv") as f:
        header = f.readline()
    expect("_ci95" in header, header)


def soak_fig13_fig14_seeds():
    """fig13 and fig14 at default size for seeds 1-20: no failed cell."""
    failed = []
    for fig in (13, 14):
        for seed in range(1, 21):
            out = f"fig{fig}_s{seed}.json"
            sweep("--figure", fig, "--seed", seed, "--jobs", 4,
                  "--retries", 0, "--quiet", "--no-stats", "--out", out,
                  status=None)
            failed += [(j["id"], j.get("error", ""))
                       for j in load(out)["jobs"] if not j["ok"]]
    for f in failed:
        print("failed cell:", *f)
    expect(not failed, f"{len(failed)} failed cell(s)")


# Check "obs.shards_partition" is the function obs_shards_partition; its
# ctest entry carries the same name.
CHECKS = {f.__name__.replace("_", ".", 1): f for f in (
    smoke_jobs_deterministic, smoke_hot_path_deterministic,
    obs_traced_sweep, obs_shards_partition,
    prof_profiled_sweep,
    fault_throw_costs_one_cell, fault_watchdog_times_out_hang,
    fault_isolate_contains_segv, fault_isolate_byte_identical,
    fault_resume_after_crash, fault_resume_refuses_changed_grid,
    trace_fig11_capture_replay, trace_fig14_capture_replay,
    trace_fixture_validates, trace_seeds_table_ci,
    soak_fig13_fig14_seeds)}


def main():
    global BIN
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = ap.add_subparsers(dest="check", required=True)
    t = sub.add_parser("trace", help="validate a trace-event JSON file")
    t.add_argument("file", help="Chrome trace JSON file")
    t.add_argument("--require-counter", action="append", default=[],
                   help="fail unless this ph:C track exists")
    t.add_argument("--require-span", action="append", default=[],
                   help="fail unless a span name starts with this")
    for name, fn in CHECKS.items():
        c = sub.add_parser(
            name, help=fn.__doc__.splitlines()[0].replace("%", "%%"))
        c.add_argument("--bin", required=True,
                       help="directory holding the built tools")
        c.add_argument("--dir", required=True,
                       help="working directory for the check's files")
    args = ap.parse_args()

    try:
        if args.check == "trace":
            errors = check(args.file, args.require_counter,
                           args.require_span)
            expect(not errors, "\n".join(errors[:20]))
        else:
            BIN = os.path.abspath(args.bin)
            fresh_dir(args.dir)
            os.chdir(args.dir)
            CHECKS[args.check]()
    except CheckFailed as e:
        print(f"check_trace: {args.check}: {e}", file=sys.stderr)
        return 1
    print(f"check_trace: {args.check} OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
