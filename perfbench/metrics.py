"""Metric derivations for the persimmon benchmark.

Pure functions over the documents persim_sweep writes: the sweep
document (--out, with or without --no-stats), the timing document
(--timing-out) and the profile document (--prof-out), plus the cell
report of perfbench_probe cells. run.py does the I/O; test_metrics.py
checks these on canned documents.
"""

import re
import statistics

# --prof-out phase key -> per-layer metric prefix. Layers are named after
# the modules in src/; "sim.loop" is the eventLoop bucket, which still
# includes the cpu cores and the write buffer.
PHASES = {
    "eventLoop": "sim.loop",
    "l1Access": "cache.l1",
    "llcBank": "cache.llc",
    "noc": "noc",
    "nvm": "nvm",
    "persistArbiter": "persist.arbiter",
    "flushEngine": "persist.flush_engine",
    "workloadGen": "workload.gen",
    "statExport": "exp.stat_export",
    "other": "other",
}

# Figure-table mean rows as read off the paper's plots (EXPERIMENTS.md).
# Figure-read approximations, not a validated reference.
PAPER_MEANS = {
    11: {"LB": 1.00, "LB+IDT": 1.03, "LB+PF": 1.17, "LB++": 1.22},
    14: {"LB": 1.5, "LB+IDT": 1.35, "LB++": 1.30, "LB++NOLOG": 1.16},
}


def ratio(num, den):
    """num / den, or 0.0 when den is 0 (e.g. no epochs in NP cells)."""
    return num / den if den else 0.0


def cell_failed(job):
    """A cell failed unless it ran ok, completed, did not deadlock or
    time out, and reported no ordering violation. Takes a sweep-document
    job (outcome under "result", violations a list) or a perfbench_probe
    job (outcome fields inline, violations a count)."""
    result = job.get("result", job)
    return not (job.get("ok") and result.get("completed")
                and not result.get("deadlocked")
                and not result.get("timedOut")
                and not result.get("violations"))


def count_failed_cells(doc):
    """(failed, attempted) over a sweep document's cells."""
    jobs = doc["jobs"]
    return sum(1 for j in jobs if cell_failed(j)), len(jobs)


def stat_totals(doc):
    """A stats-on sweep document's scalar counters summed over cells and
    component instances, keyed "<group>.<counter>" with every "[n]"
    instance index removed: "llc[3]" counts toward "llc.missesToMemory"."""
    totals = {}
    for job in doc["jobs"]:
        for group, stats in job.get("groups", {}).items():
            base = re.sub(r"\[\d+\]", "", group)
            for key, value in stats.get("scalars", {}).items():
                name = base + "." + key
                totals[name] = totals.get(name, 0.0) + value
    return totals


def phase_metrics(prof, timing, events):
    """Per-phase host time of a profiled sweep: share of the --prof-out
    samples, that share of the jobs' summed wall ms from the run's
    --timing-out document, and those ms per simulated event. The
    sampler's clock ticks coarser than its nominal period, so sample
    counts times the period would undercount; shares do not."""
    job_ms = sum(j["wallMs"] for j in timing["jobs"])
    phases = prof["phases"]
    total = sum(phases.values())
    out = {}
    for key, name in PHASES.items():
        samples = phases.get(key, 0)
        ms = ratio(samples, total) * job_ms
        out[name + ".ms"] = ms
        out[name + ".share"] = ratio(samples, total)
        out[name + ".ns_per_event"] = ratio(ms * 1e6, events)
    out["prof.attributed"] = ratio(total - phases.get("other", 0), total)
    return out


def structural_metrics(totals, events, job_ms):
    """Counts per simulated memory op (and per epoch) from stat_totals,
    plus host ns per event from the jobs' summed untraced wall ms."""
    ops = totals.get("core.ops", 0.0)
    t = lambda key: totals.get(key, 0.0)
    epochs = t("persist.arbiter.epochsPersisted")
    conflicted = (t("persist.arbiter.flushIntra")
                  + t("persist.arbiter.flushInter")
                  + t("persist.arbiter.flushReplacement"))
    return {
        "sim.ops": ops,
        "sim.events_per_op": ratio(events, ops),
        "sim.ns_per_event": ratio(job_ms * 1e6, events),
        "cpu.wb_stalls_per_kop": ratio(t("core.wbStalls") * 1000, ops),
        "cache.l1_miss_ratio": ratio(t("l1.misses"),
                                     t("l1.hits") + t("l1.misses")),
        "cache.llc_mem_misses_per_op": ratio(t("llc.missesToMemory"), ops),
        "cache.llc_victim_retries": t("llc.victimRetries"),
        "cache.llc_pin_waits": t("llc.pinWaits"),
        "noc.packets_per_op": ratio(t("mesh.packets"), ops),
        "noc.flits_per_op": ratio(t("mesh.flits"), ops),
        "nvm.writes_per_op": ratio(t("mc.nvram.writes"), ops),
        "nvm.log_writes_per_op": ratio(t("mc.logWrites"), ops),
        "persist.epochs_persisted": epochs,
        "persist.conflict_frac": ratio(conflicted, epochs),
        "persist.msgs_per_epoch": ratio(t("persist.protocolMessages"),
                                        epochs),
        "persist.splits": t("persist.arbiter.splits"),
    }


def best_cells_ms(passes):
    """Sum over cells of each cell's fastest ms across @p passes, each a
    dict of cell -> ms for the same cells."""
    best = {}
    for cells in passes:
        for cell, ms in cells.items():
            best[cell] = min(best.get(cell, ms), ms)
    return sum(best.values())


def fastest_grid_s(reps):
    """Host wall seconds of one grid from several runs of it, each a
    (wall seconds, --timing-out document) pair: every cell's fastest
    wallMs over the runs, summed and divided by the workers, plus the
    smallest rest of a run's wall time (process start, runner, document
    write, and at --jobs > 1 the workers' idle tail).

    The host's cores each switch between a fast and a ~1.6x slower state
    within a second or so, and how often they are slow drifts over
    minutes. A cell runs for a fraction of a second, so over several
    runs nearly every cell meets a fast core at least once, where a whole
    multi-second run rarely does."""
    workers = max(1, reps[0][1]["workers"])
    passes = [{j["id"]: j["wallMs"] for j in timing["jobs"]}
              for _, timing in reps]
    rest = min(wall - sum(cells.values()) / 1000.0 / workers
               for (wall, _), cells in zip(reps, passes))
    return best_cells_ms(passes) / 1000.0 / workers + rest


def median_ratio(num_ms, den_ms):
    """Median over cells of num_ms[i] / den_ms[i]. A host slowdown that
    overlaps a few cells of one run moves a few ratios, not the median."""
    return statistics.median(ratio(n, d) for n, d in zip(num_ms, den_ms))


def runner_metrics(timing, baseline):
    """exp runner metrics from a timing document: worker busy fraction,
    per-cell wall percentiles, and how much slower the LB cells ran than
    in @p baseline, a timing document of those cells at --jobs 1 (the
    median per-cell ratio)."""
    jobs = timing["jobs"]
    job_ms = [j["wallMs"] for j in jobs]
    workers = max(1, timing["workers"])
    lb_ms = {j["id"]: j["wallMs"] for j in jobs if "/LB/" in j["id"]}
    base = [j for j in baseline["jobs"] if j["id"] in lb_ms]
    return {
        "exp.busy_frac": ratio(sum(job_ms), timing["wallMs"] * workers),
        "exp.job_inflation": median_ratio([lb_ms[j["id"]] for j in base],
                                          [j["wallMs"] for j in base]),
        "exp.cell_wall_p50_ms": statistics.median(job_ms),
        "exp.cell_wall_max_ms": max(job_ms),
    }


def fidelity(figure, table):
    """The sweep's figure-table mean row next to the paper's approximate
    values: {col: (measured, paper)}; empty when the grid lacks the
    figure's baseline (every mean is 0)."""
    paper = PAPER_MEANS.get(figure, {})
    means = dict(zip(table["cols"], table["means"]))
    if not any(means.values()):
        return {}
    return {c: (m, paper.get(c)) for c, m in means.items()}


def comparable(a, b):
    """Raise ValueError unless two saved results share a build type and
    IPO setting; numbers from different builds are not comparable."""
    pa, pb = a["provenance"], b["provenance"]
    for key in ("buildType", "ipo"):
        if pa[key] != pb[key]:
            raise ValueError(
                "refusing to compare: %s differs (%r vs %r)"
                % (key, pa[key], pb[key]))
