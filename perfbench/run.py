#!/usr/bin/env python3
"""Benchmark of the CNI simulator: host time, set-up time and memory of
three figure workloads, with per-layer spans and exact simulated counters.

    python3 perfbench/run.py --workload jacobi|water|collectives \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The first call builds perfbench_worker
from ../src into .bench_build/perfbench (Release). Each pass of a workload
runs in its own single-threaded worker process; passes repeat until
--seconds is used up, and every metric is the median over passes. The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb,
pass_ratio) from untraced passes, with a host-speed kernel timed between
them; the host times are scaled to reference speed by that kernel's median.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics: span host times from the traced passes, the simulated counters of
every board, and the tracing overhead.
README.md lists every metric and why it exists.
"""
import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKER = os.path.join(BUILD, "perfbench_worker")

WORKLOADS = ("jacobi", "water", "collectives")
BOARDS = ("cni", "standard")
# Knobs the simulator reads from the environment. Every CNI_* variable is
# dropped from the worker's environment; these are the ones that change
# the engine mode, the sweep pool, the figure sizes or the log format.
PINNED_ENV = ("CNI_SIM_SHARDS", "CNI_SIM_FUSION", "CNI_SIM_PAIR_LOOKAHEAD",
              "CNI_BENCH_JOBS", "CNI_BENCH_FAST", "CNI_LOG_JSON")
PASS_TIMEOUT_S = 60.0
# A run must end within 180 s; no pass starts after this much of it.
LAST_START_S = 110.0
# Host time at reference speed: the worker's host-speed kernel (no simulator
# code) took this long on the 4-core VM the bounds were set on. wall_s and
# setup_s are scaled by CALIB_REF_S / (the run's median kernel time).
CALIB_REF_S = 0.40
# The kernel runs as often before each pass as fills this share of the last
# pass's time (at least once), so long passes do not leave the scale resting
# on a few kernel samples.
CALIB_SHARE = 0.125

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

# Deterministic per-board counters, as the worker names them, with units.
COUNTERS = {
    "sim.elapsed_ps": "ps",
    "sim.events": "count",
    "cluster.compute_e9": "1e9cycles",
    "cluster.synch_overhead_e9": "1e9cycles",
    "cluster.synch_delay_e9": "1e9cycles",
    "core.mcache_hit_pct": "%",
    "core.mcache_evictions": "count",
    "core.mcache_snoop_updates": "count",
    "nic.messages_sent": "count",
    "nic.cells_sent": "count",
    "nic.dma_bytes": "bytes",
    "nic.host_interrupts": "count",
    "nic.host_polls": "count",
    "atm.frames_sent": "count",
    "atm.cells_sent": "count",
    "dsm.faults": "count",
    "dsm.pages_fetched": "count",
    "dsm.diffs_applied": "count",
    "dsm.write_notices_received": "count",
    "dsm.lock_acquires": "count",
    "dsm.barriers": "count",
    "dsm.fault_latency_p50_ps": "ps",
    "dsm.fault_latency_p99_ps": "ps",
}

# Span host times (traced passes) and the ratios derived from them.
DERIVED = {
    "cluster.build_s": "s",
    "dsm.build_s": "s",
    "apps.run_cni_s": "s",
    "apps.run_standard_s": "s",
    "apps.jacobi_ns_per_point": "ns",
    "dsm.water_us_per_diff": "us",
    "sim.run_s": "s",
    "sim.ns_per_event": "ns",
    "dsm.round_host_us_p50": "us",
    "dsm.round_host_us_p90": "us",
    "obs.snapshot_s": "s",
    "apps.verify_s": "s",
    "bench.self_s": "s",
    "trace_overhead_pct": "%",
    "apps.cni_vs_standard": "ratio",
}


def per_layer_units():
    units = dict(DERIVED)
    for board in BOARDS:
        for name, unit in COUNTERS.items():
            units[f"{name}.{board}"] = unit
    return units


# ---- Statistics --------------------------------------------------------------

def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def percentile(values, pct):
    """Nearest-rank percentile, or None unless at least ten samples lie
    beyond it: a tail figure resting on fewer is not reported."""
    n = len(values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    if n - rank < 10:
        return None
    return sorted(values)[rank - 1]


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its children cover (overlapping children are counted once)."""
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s["parent"], []).append(i)
    out = []
    for i, s in enumerate(spans):
        cuts = sorted((max(spans[c]["start"], s["start"]), min(spans[c]["end"], s["end"]))
                      for c in children.get(i, []))
        covered, reach = 0.0, s["start"]
        for a, b in cuts:
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append(s["end"] - s["start"] - covered)
    return out


def ratio_line(name, num, base, base_text, unit, scale=1.0):
    """A ratio printed with its base, so it can be recomputed."""
    value = scale * num / base
    return value, f"{name} = {value:.6g} {unit} (= {num:.6g} / base {base:.6g}; base: {base_text})"


# ---- Answer checks -------------------------------------------------------------

def judge(record, fallback_ops=1):
    """(attempted, failed, notes) for one pass. A checksum outside its
    relative tolerance, a wrong reduce value, an exception in a simulation
    or a pass that produced no record counts as failed; nothing aborts."""
    if record is None:
        return fallback_ops, fallback_ops, ["pass produced no result"]
    attempted = failed = 0
    notes = []
    for sim in record["sims"]:
        ops = sim["ops"]
        attempted += ops
        ans = sim["answer"]
        if sim["error"]:
            failed += ops
            notes.append(f"{sim['board']}: {sim['error']}")
        elif "wrong" in ans:
            failed += ans["wrong"]
            if ans["wrong"]:
                notes.append(f"{sim['board']}: {ans['wrong']} of {ops} reduce results wrong")
        elif abs(ans["checksum"] - ans["reference"]) > abs(ans["reference"]) * ans["rel_tol"]:
            failed += ops
            notes.append(f"{sim['board']}: checksum {ans['checksum']!r} vs reference "
                         f"{ans['reference']!r} (rel tol {ans['rel_tol']})")
    return attempted, failed, notes


def counters_of(record):
    return {sim["board"]: sim["counters"] for sim in record["sims"] if not sim["error"]}


def determinism_mismatches(reference, counters, where):
    """Every counter that differs from the reference, as printable lines."""
    out = []
    for board in sorted(set(reference) | set(counters)):
        a, b = reference.get(board, {}), counters.get(board, {})
        for name in sorted(set(a) | set(b)):
            if a.get(name) != b.get(name):
                out.append(f"{where}: {board} {name}: {a.get(name)} != {b.get(name)}")
    return out


# ---- Build and passes ------------------------------------------------------------

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "cluster", "cluster.hpp")):
        log("perfbench: simulator sources (src/) not found; run from a full checkout")
        return False
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("CNI_")}


def run_pass(workload, seed, run_id, traced):
    """Runs one worker process. Returns (record or None, peak RSS in MB,
    wall seconds of the process)."""
    out_path = os.path.join(BUILD, f"pass-{os.getpid()}.json")
    cmd = [WORKER, "--workload", workload, "--seed", str(seed),
           "--run", str(run_id), "--trace", "1" if traced else "0"]
    t0 = time.monotonic()
    with open(out_path, "w") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=sys.stderr, env=clean_env())
    status, rusage = 0, None
    try:
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() - t0 > PASS_TIMEOUT_S:
                proc.kill()
                _, status, rusage = os.wait4(proc.pid, 0)
                log(f"perfbench: pass {run_id} killed after {PASS_TIMEOUT_S:.0f} s")
                break
            time.sleep(0.01)
    finally:
        if rusage is None:  # interrupted: never leave the worker behind
            proc.kill()
            os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    elapsed = time.monotonic() - t0
    record = None
    if proc.returncode == 0:
        try:
            with open(out_path) as f:
                record = json.loads(f.read())
        except ValueError:
            log(f"perfbench: pass {run_id} printed no valid record")
    else:
        log(f"perfbench: pass {run_id} exited with status {proc.returncode}")
    os.remove(out_path)
    return record, rusage.ru_maxrss / 1024.0, elapsed


def calibrate(seed):
    """Seconds the worker's host-speed kernel took, or None if it failed."""
    record, _, _ = run_pass("calibrate", seed, -1, False)
    return record["calib_s"] if record else None


# ---- Reference counters kept across runs -------------------------------------------

def reference_path(workload):
    return os.path.join(BUILD, f"counters-{workload}.json")


def check_against_stored(workload, record, seed):
    """Compares this run's counters with those stored by the first run in
    this build tree (any seed, traced or not); stores them if none are."""
    path = reference_path(workload)
    mine = {"config": record["config"], "counters": counters_of(record)}
    if os.path.isfile(path):
        with open(path) as f:
            stored = json.load(f)
        if stored["config"] == mine["config"]:
            return determinism_mismatches(stored["counters"], mine["counters"],
                                          f"vs stored run (seed {stored['seed']})")
    if any(sim["error"] for sim in record["sims"]):
        return []  # a failed simulation is no reference
    mine["seed"] = seed
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(mine, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return []


# ---- Metrics -------------------------------------------------------------------------

def end_to_end(passes, attempted, failed, calib):
    """Medians over the passes; host times scaled to the reference speed."""
    walls = [p["record"]["wall_s"] for p in passes]
    setups = [v for p in passes for v in p["record"]["setup_samples"]]
    rss = [p["rss_mb"] for p in passes]
    lines = []
    for name, vals in (("wall_s (unscaled)", walls), ("setup_s (unscaled)", setups),
                       ("peak_rss_mb", rss), ("host-speed kernel", calib)):
        lo, hi = quartiles(vals)
        unit = "MB" if name == "peak_rss_mb" else "s"
        lines.append(f"{name}: median {median(vals):.6g} {unit}, "
                     f"quartiles {lo:.6g}..{hi:.6g}, n={len(vals)}")
    scale, line = ratio_line("host speed scale", CALIB_REF_S, median(calib),
                             "median host-speed kernel seconds of this run", "x")
    lines.append(line + "; wall_s and setup_s are multiplied by it")
    metrics = {"wall_s": median(walls) * scale, "setup_s": median(setups) * scale,
               "peak_rss_mb": median(rss), "pass_ratio": 1.0 - failed / attempted}
    lines.append(f"pass_ratio = {metrics['pass_ratio']:.6g} "
                 f"(failed {failed} of {attempted} attempted)")
    return metrics, lines


def span_totals(record):
    """Per pass: total host seconds of each span name, and the root's self
    time. Set-up spans are per set-up sample (jacobi/water: one probe per
    board, warm-up probes included), so they divide by the sample count."""
    spans = record["spans"]
    totals = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + s["end"] - s["start"]
    reps = max(1, sum(s["name"] == "setup.probe" for s in spans) // len(BOARDS))
    for name in ("cluster.build", "dsm.build"):
        if name in totals:
            totals[name] /= reps
    roots = [t for s, t in zip(spans, self_times(spans)) if s["parent"] == -1]
    totals["bench.self"] = sum(roots)
    return totals


def per_layer(workload, traced, untraced):
    """Per-layer metrics from a traced run. Returns (metrics, lines); a
    metric that does not apply to the workload reads 0 and gets a line
    saying why."""
    units = per_layer_units()
    metrics, lines, absent = {}, [], {}
    recs = [p["record"] for p in traced]
    totals = [span_totals(r) for r in recs]

    def span_median(span):
        vals = [t[span] for t in totals if span in t]
        return median(vals) if vals else None

    for metric, span, why in (
            ("cluster.build_s", "cluster.build", None),
            ("dsm.build_s", "dsm.build", None),
            ("apps.run_cni_s", "apps.run_cni", "the workload does not call apps::run_*"),
            ("apps.run_standard_s", "apps.run_standard", "the workload does not call apps::run_*"),
            ("sim.run_s", "sim.run", "apps::run_* runs the engine inside; see apps.run_*_s"),
            ("obs.snapshot_s", "obs.snapshot", "apps::run_* takes the snapshot inside"),
            ("apps.verify_s", "apps.verify", None),
            ("bench.self_s", "bench.self", None)):
        v = span_median(span)
        if v is None:
            absent[metric] = why or "no span recorded"
        else:
            metrics[metric] = v

    counters = counters_of(recs[0])
    cfg = recs[0]["config"]
    if workload == "jacobi" and "apps.run_cni_s" in metrics:
        runs = metrics["apps.run_cni_s"] + metrics["apps.run_standard_s"]
        base = len(BOARDS) * cfg["iterations"] * (cfg["n"] - 2) ** 2
        metrics["apps.jacobi_ns_per_point"], line = ratio_line(
            "apps.jacobi_ns_per_point", runs, base,
            f"{len(BOARDS)} boards x {cfg['iterations']} iterations x ({cfg['n']}-2)^2 points",
            "ns", 1e9)
        lines.append(line)
    else:
        absent["apps.jacobi_ns_per_point"] = "jacobi only"
    if (workload == "water" and "apps.run_cni_s" in metrics
            and all(b in counters for b in BOARDS)):
        runs = metrics["apps.run_cni_s"] + metrics["apps.run_standard_s"]
        base = sum(counters[b]["dsm.diffs_applied"] for b in BOARDS)
        metrics["dsm.water_us_per_diff"], line = ratio_line(
            "dsm.water_us_per_diff", runs, base, "dsm.diffs_applied, both boards", "us", 1e6)
        lines.append(line)
    else:
        absent["dsm.water_us_per_diff"] = "water only"
    if "sim.run_s" in metrics and "sim.events" in counters.get("cni", {}):
        metrics["sim.ns_per_event"], line = ratio_line(
            "sim.ns_per_event", metrics["sim.run_s"], counters["cni"]["sim.events"],
            "sim.events executed", "ns", 1e9)
        lines.append(line)
    else:
        absent["sim.ns_per_event"] = "needs sim.run_s and sim.events; collectives only"

    gaps = []
    for r in recs:
        stamps = r["round_end_s"]
        gaps += [1e6 * (b - a) for a, b in zip(stamps, stamps[1:])]
    for pct in (50, 90):
        name = f"dsm.round_host_us_p{pct}"
        v = percentile(gaps, pct) if gaps else None
        if v is None:
            absent[name] = (f"{len(gaps)} round intervals: fewer than 10 beyond p{pct}"
                            if gaps else "collectives only")
        else:
            metrics[name] = v
    if gaps:
        lines.append(f"dsm.round_host_us: n={len(gaps)} intervals of node 0 over "
                     f"{len(recs)} traced passes")

    if all(b in counters for b in BOARDS):
        metrics["apps.cni_vs_standard"], line = ratio_line(
            "apps.cni_vs_standard", counters["standard"]["sim.elapsed_ps"],
            counters["cni"]["sim.elapsed_ps"], "sim.elapsed_ps of the CNI board", "x")
        lines.append(line)
    else:
        absent["apps.cni_vs_standard"] = "needs both boards; collectives runs the CNI board only"

    t_wall = median([p["record"]["wall_s"] for p in traced])
    u_wall = median([p["record"]["wall_s"] for p in untraced])
    metrics["trace_overhead_pct"], line = ratio_line(
        "trace_overhead_pct", t_wall - u_wall, u_wall,
        f"untraced wall_s median of {len(untraced)} passes; traced median of {len(traced)}",
        "%", 100.0)
    lines.append(line)

    for board in BOARDS:
        for name in COUNTERS:
            key = f"{name}.{board}"
            if board not in counters:
                absent[key] = f"the workload has no {board}-board simulation"
            elif name not in counters[board]:
                absent[key] = ("apps::RunResult carries no fabric counters; nic.cells_sent "
                               "is the node-side count" if name.startswith("atm.") else
                               "apps::RunResult::parsim counts events only in sharded mode, "
                               "and the default engine is the single-engine one")
            else:
                metrics[key] = counters[board][name]

    for name, why in sorted(absent.items()):
        lines.append(f"absent: {name} (reported as 0): {why}")
        metrics[name] = 0
    return {k: metrics[k] for k in units}, lines


# ---- Run context ------------------------------------------------------------------

def run_context(seed, record):
    compiler = "unknown"
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    out = subprocess.run([path, "--version"], capture_output=True, text=True)
                    compiler = out.stdout.splitlines()[0] if out.stdout else path
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = out.stdout.strip() or commit
    eng = record["engine"] if record else {}
    return (f"context: host={platform.node()} nproc={os.cpu_count()} compiler=\"{compiler}\" "
            f"build=Release commit={commit} seed={seed} "
            f"engine={'sharded' if eng.get('sharded') else 'single'} "
            f"shards={eng.get('shards', '?')} pinned_unset={','.join(PINNED_ENV)}")


# ---- Main ----------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not build():
        return 1
    # A TERM from outside still reaps the current worker (run_pass's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    t0 = time.monotonic()
    passes, attempted, failed, notes, mismatches = [], 0, 0, [], []
    ops_per_pass, first, calib, kernel_reps = 1, None, [], 1
    while True:
        k = len(passes)
        t_cycle = time.monotonic()
        if args.trace == 0:  # host speed next to every pass, and after the last
            calib += [calibrate(args.seed) for _ in range(kernel_reps)]
        traced = args.trace == 1 and k % 2 == 1
        record, rss, pass_s = run_pass(args.workload, args.seed, k, traced)
        kernel_reps = max(1, round(CALIB_SHARE * pass_s / CALIB_REF_S))
        a, f, why = judge(record, ops_per_pass)
        attempted, failed = attempted + a, failed + f
        notes += [f"pass {k}: {w}" for w in why]
        if record is not None:
            ops_per_pass = a
            if first is None:
                first = record
                mismatches += check_against_stored(args.workload, record, args.seed)
            else:
                mismatches += determinism_mismatches(counters_of(first), counters_of(record),
                                                     f"pass {k} vs pass 0")
        passes.append({"record": record, "rss_mb": rss, "traced": traced})
        elapsed = time.monotonic() - t0
        took = time.monotonic() - t_cycle
        need_more = args.trace == 1 and len(passes) < 2
        # Another pass if it would end less than half a pass past --seconds,
        # so a run measures --seconds on average whatever the pass length.
        if not need_more and (elapsed + took / 2 > args.seconds or elapsed > LAST_START_S):
            break
    if args.trace == 0:
        calib.append(calibrate(args.seed))

    good = [p for p in passes if p["record"] is not None]
    print(run_context(args.seed, first))
    for n in notes:
        print("FAILED " + n)
    for m in mismatches:
        print("DETERMINISM MISMATCH " + m)
    if not good:
        log("perfbench: no pass produced a result")
        return 1
    if None in calib:
        log("perfbench: the host-speed kernel failed")
        return 1

    if args.trace == 0:
        metrics, lines = end_to_end(good, attempted, failed, calib)
        units = END_TO_END
    else:
        traced = [p for p in good if p["traced"]]
        untraced = [p for p in good if not p["traced"]]
        if not traced or not untraced:
            log("perfbench: a traced run needs a traced and an untraced pass")
            return 1
        metrics, lines = per_layer(args.workload, traced, untraced)
        units = per_layer_units()
        spans_path = os.path.join(BUILD, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w") as f:
            json.dump([s for p in traced for s in p["record"]["spans"]], f)
        lines.append(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
