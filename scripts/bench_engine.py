#!/usr/bin/env python3
"""Regenerates BENCH_engine.json, BENCH_obs.json, BENCH_parsim.json,
BENCH_topology.json and BENCH_collectives.json.

Usage: scripts/bench_engine.py [build-dir]
       scripts/bench_engine.py --suite [build-dir]
       scripts/bench_engine.py --trajectory

With --suite only BENCH_suite.json is written: the end-to-end wall time and
peak RSS of the whole reproduction suite (every fig/tab binary plus
abl_mechanisms), each binary run SUITE_REPS times, interleaved round-robin.
Any nonzero exit fails the writer. CNI_BENCH_FAST=1 gives the smoke-size
suite CI runs; the committed file is the full-size one.

With --trajectory no benchmark runs: the script aggregates the current
payload plus the history blocks of every BENCH_*.json into one cross-PR
perf-trajectory table (TRAJECTORY.md + BENCH_trajectory.json, also printed
to stdout) so the headline numbers' drift across sessions is visible in one
place instead of scattered over six files.

Captures the machine-readable throughput numbers the PR/README quote:
events/sec from micro_engine, lookups/sec from micro_mcache, the
observability overhead ladder from micro_obs (live metrics, causal
records and full tracing over the runtime-off default), the sharded-engine
scaling points from micro_parsim (wall clock plus the machine-independent
event-parallelism bound per shard count), and the fabric-topology scaling
grid from micro_topology (banyan/Clos/torus at 256/1024/4096 nodes under
incast, permutation and hot-spot traffic, with each topology's exported
per-shard-pair lookahead range), and the collective scaling grid from
fig_barrier_scaling (barrier/reduce latency per episode for the NIC-resident
combining tree vs the centralized baselines, all three fabrics).

Every context block records CNI_BENCH_JOBS / CNI_SIM_SHARDS and the resolved
sweep worker count so runs taken under different fan-out settings are never
compared apples-to-oranges.
"""
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_ARGS = [a for a in sys.argv[1:] if not a.startswith("--")]
BUILD = Path(_ARGS[0]) if _ARGS else ROOT / "build"

# How many prior payloads each BENCH file keeps. Wall numbers are host-bound
# (a cores_limited run on a narrow VM understates real speedup), so a re-run
# on a wider host should sit next to the old point, not erase it.
HISTORY_DEPTH = 4


def load_history(path: Path) -> list:
    """Prior payloads of `path`, newest first: the current file (minus its own
    history block) is pushed onto its history list before being overwritten.
    This is what --trajectory later walks to chart the cross-PR drift."""
    if not path.exists():
        return []
    try:
        prev = json.loads(path.read_text())
    except ValueError:
        return []
    history = prev.get("history", [])
    snapshot = {k: v for k, v in prev.items() if k != "history"}
    if snapshot:
        history.insert(0, snapshot)
    return history[:HISTORY_DEPTH]


def run(binary: str) -> dict:
    out = subprocess.run(
        [str(BUILD / "bench" / binary), "--benchmark_format=json", "--benchmark_min_time=0.5"],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return json.loads(out)


def sweep_jobs() -> int:
    """Worker count the sweep runner would use — mirrors apps::parallel_indexed."""
    env = os.environ.get("CNI_BENCH_JOBS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def env_context() -> dict:
    """Knobs that shape how a run executes, recorded so two BENCH files can be
    compared apples-to-apples: the sweep fan-out and the in-run shard count."""
    return {
        "cni_bench_jobs": os.environ.get("CNI_BENCH_JOBS"),
        "cni_sim_shards": os.environ.get("CNI_SIM_SHARDS"),
        "sweep_workers": sweep_jobs(),
    }


def context_of(report: dict) -> dict:
    return {
        "host": report["context"]["host_name"],
        "num_cpus": report["context"]["num_cpus"],
        "mhz_per_cpu": report["context"]["mhz_per_cpu"],
        "date": report["context"]["date"],
        **env_context(),
    }


def write_obs() -> None:
    report = run("micro_obs")
    by_name = {b["name"]: b for b in report["benchmarks"]}

    NS_PER = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

    def ns(name: str) -> float:
        b = by_name[name]
        return b["real_time"] * NS_PER[b.get("time_unit", "ns")]

    # The reference is the shipped default: null handles, tracing off (one
    # pointer test per emit site).
    base = ns("BM_ProbeRuntimeOff")

    def pct_over_base(name: str) -> float:
        return round(100.0 * (ns(name) - base) / base, 2)

    jac_off = ns("BM_JacobiRuntimeOff")
    jac_on = ns("BM_JacobiTracingOn")
    result = {
        "context": context_of(report),
        "probe": {
            "runtime_off_ns": round(base, 2),
            "metrics_on_ns": round(ns("BM_ProbeMetricsOn"), 2),
            "metrics_on_overhead_pct": pct_over_base("BM_ProbeMetricsOn"),
            # Trace ring live, metrics handles null: the span + instant +
            # causal record sites alone — the cost added per hot-path op by
            # causal span propagation when tracing is actually on.
            "causal_on_ns": round(ns("BM_ProbeCausalOn"), 2),
            "causal_on_overhead_pct": pct_over_base("BM_ProbeCausalOn"),
            "tracing_on_ns": round(ns("BM_ProbeTracingOn"), 2),
            "tracing_on_overhead_pct": pct_over_base("BM_ProbeTracingOn"),
        },
        "jacobi_end_to_end": {
            # Whole-simulation cost of the *runtime* switch (trace rings +
            # snapshot materialization). Tracing is opt-in via --trace-out.
            "runtime_off_ms": round(jac_off / 1e6, 3),
            "tracing_on_ms": round(jac_on / 1e6, 3),
            "tracing_on_overhead_pct": round(100.0 * (jac_on - jac_off) / jac_off, 2),
        },
    }

    path = ROOT / "BENCH_obs.json"
    result["history"] = load_history(path)
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {path}")


PARSIM_SCHEMA_VERSION = 5

# Per-mode fields micro_parsim --json must emit. wall_vs_k1 is null on a
# host with fewer cores than shard threads (the ratio measures scheduler
# thrash there), and cores_limited says so — a quotable number and the flag
# that disqualifies it can never coexist. shard_profile is the per-shard
# wall-time phase attribution (idle/busy/drain/barrier_wait/fused_window)
# from the shard execution profiler, one entry per shard, so the
# wall_vs_k1-vs-event_parallelism gap has a breakdown. Schema v5 dropped
# the legacy single-engine mode (and with it every null epoch statistic)
# and the k4-nofuse mode.
PARSIM_MODE_FIELDS = ("wall_ms", "elapsed_cycles", "wall_vs_k1",
                      "cores_limited", "shard_profile", "epochs",
                      "events_total", "critical_path_events", "fused_epochs",
                      "barriers", "event_parallelism")
PARSIM_PROFILE_FIELDS = ("shard", "idle_ms", "busy_ms", "drain_ms",
                         "barrier_wait_ms", "fused_window_ms", "transitions")


def validate_parsim(report: dict) -> None:
    """Shape contract for BENCH_parsim.json points (schema v5): every point
    carries num_cpus, every mode all PARSIM_MODE_FIELDS measured (only
    wall_vs_k1 may be null, exactly when the run was cores_limited) and one
    shard_profile entry per shard. Raises ValueError on violation so a
    drifting micro_parsim emitter can't silently corrupt the pinned file."""
    for pname, point in report["points"].items():
        where = f"points.{pname}"
        if not isinstance(point.get("num_cpus"), int):
            raise ValueError(f"{where}: missing integer num_cpus")
        for mname, mode in point["modes"].items():
            mwhere = f"{where}.modes.{mname}"
            for field in PARSIM_MODE_FIELDS:
                if field not in mode:
                    raise ValueError(f"{mwhere}: missing {field}")
                if field != "wall_vs_k1" and mode[field] is None:
                    raise ValueError(f"{mwhere}: {field} must be measured")
            if not isinstance(mode["cores_limited"], bool):
                raise ValueError(f"{mwhere}: cores_limited must be boolean")
            if mode["cores_limited"] and mode["wall_vs_k1"] is not None:
                raise ValueError(
                    f"{mwhere}: wall_vs_k1 must be null when cores_limited "
                    "(the ratio measures thread thrash, not speedup)")
            if not mode["cores_limited"] and mode["wall_vs_k1"] is None:
                raise ValueError(
                    f"{mwhere}: wall_vs_k1 missing on a full-width run")
            profile = mode["shard_profile"]
            # Mode names encode the shard count ("k4" -> 4): one profile
            # entry per shard, indexed densely from 0.
            if not isinstance(profile, list) or len(profile) != int(mname[1:]):
                raise ValueError(
                    f"{mwhere}: shard_profile must list one entry per shard")
            for idx, slot in enumerate(profile):
                for field in PARSIM_PROFILE_FIELDS:
                    if field not in slot:
                        raise ValueError(
                            f"{mwhere}.shard_profile[{idx}]: missing {field}")
                if slot["shard"] != idx:
                    raise ValueError(
                        f"{mwhere}.shard_profile[{idx}]: shard index "
                        f"{slot['shard']} out of order")


def warn_cores_limited(report: dict, what: str) -> None:
    """Prints a loud banner when any point in `report` ran with fewer host
    cores than shard threads: those wall numbers are excluded from headline
    speedups, and the machine-independent stats (event_parallelism, barrier
    counts) are the only figures worth quoting from such a run."""
    limited = sorted(
        f"{pname}/{mname}"
        for pname, point in report["points"].items()
        for mname, mode in point["modes"].items()
        if mode.get("cores_limited")
    )
    if limited:
        print(f"WARNING: {what}: {len(limited)} mode(s) ran cores_limited "
              "(host cores < shard threads).", file=sys.stderr)
        print("WARNING: their wall_vs_k1 is null and MUST NOT be quoted as "
              "speedup; cite event_parallelism instead.", file=sys.stderr)
        print(f"WARNING: affected: {', '.join(limited)}", file=sys.stderr)


PARSIM_RUNS = (["--point=pingpong"], ["--point=jacobi"])


def write_parsim() -> None:
    # micro_parsim is a plain binary (no google-benchmark), so the context
    # block is assembled here. It also CNI_CHECKs in-process that every
    # shard count produced the same simulated-cycle count.
    report = {"points": {}}
    for args in PARSIM_RUNS:
        out = subprocess.run(
            [str(BUILD / "bench" / "micro_parsim"), "--json", *args],
            check=True,
            capture_output=True,
            text=True,
        ).stdout
        report["points"].update(json.loads(out)["points"])
    validate_parsim(report)
    warn_cores_limited(report, "BENCH_parsim")

    path = ROOT / "BENCH_parsim.json"
    result = {
        "schema_version": PARSIM_SCHEMA_VERSION,
        "context": {
            "host": platform.node(),
            "num_cpus": os.cpu_count(),
            "date": datetime.datetime.now().astimezone().isoformat(timespec="seconds"),
            **env_context(),
        },
        **report,
        "history": load_history(path),
    }

    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {path}")


TOPOLOGY_SCHEMA_VERSION = 1

TOPOLOGY_MODE_FIELDS = ("wall_ms", "elapsed_cycles", "events_total",
                        "events_per_sec", "epochs", "barriers",
                        "event_parallelism", "wall_vs_k1", "cores_limited")
TOPOLOGY_LOOKAHEAD_FIELDS = ("uniform_ns", "matrix_min_ns", "matrix_max_ns",
                             "shards")
TOPOLOGIES = ("banyan", "clos", "torus")
SCENARIOS = ("incast", "permutation", "hotspot")
TOPOLOGY_NODE_COUNTS = (256, 1024, 4096)


def validate_topology(report: dict) -> None:
    """Shape contract for BENCH_topology.json (schema v1): the full
    topology x scenario x node-count grid is present, every point carries
    the lookahead block (uniform floor plus matrix off-diagonal range), each
    mode has the parsim honesty fields (wall_vs_k1 null iff cores_limited),
    and K=1/K=4 agree on simulated elapsed cycles."""
    points = report["points"]
    for topo in TOPOLOGIES:
        for sc in SCENARIOS:
            for nodes in TOPOLOGY_NODE_COUNTS:
                key = f"{topo}/{sc}/{nodes}"
                if key not in points:
                    raise ValueError(f"missing point {key}")
    for pname, point in points.items():
        where = f"points.{pname}"
        for field in TOPOLOGY_LOOKAHEAD_FIELDS:
            if field not in point.get("lookahead", {}):
                raise ValueError(f"{where}: lookahead missing {field}")
        la = point["lookahead"]
        if la["matrix_min_ns"] < la["uniform_ns"] - 2 * 150:
            raise ValueError(
                f"{where}: matrix floor below the topology's own bound")
        cycles = set()
        for mname, mode in point["modes"].items():
            mwhere = f"{where}.modes.{mname}"
            for field in TOPOLOGY_MODE_FIELDS:
                if field not in mode:
                    raise ValueError(f"{mwhere}: missing {field}")
            if mode["cores_limited"] and mode["wall_vs_k1"] is not None:
                raise ValueError(
                    f"{mwhere}: wall_vs_k1 must be null when cores_limited")
            cycles.add(mode["elapsed_cycles"])
        if len(cycles) != 1:
            raise ValueError(f"{where}: elapsed_cycles diverged across K")


def write_topology() -> None:
    # micro_topology is a plain binary (no google-benchmark); the full sweep
    # covers 256/1024/4096 nodes for all three topologies, so this is the
    # slowest bench here (~a minute on one core).
    out = subprocess.run(
        [str(BUILD / "bench" / "micro_topology"), "--json"],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    report = json.loads(out)
    validate_topology(report)
    warn_cores_limited(report, "BENCH_topology")

    result = {
        "schema_version": TOPOLOGY_SCHEMA_VERSION,
        "context": {
            "host": platform.node(),
            "num_cpus": os.cpu_count(),
            "date": datetime.datetime.now().astimezone().isoformat(timespec="seconds"),
            **env_context(),
        },
        **report,
    }

    path = ROOT / "BENCH_topology.json"
    result["history"] = load_history(path)
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {path}")


COLLECTIVES_SCHEMA_VERSION = 1

COLLECTIVE_MODES = ("cni_tree", "cni_host", "standard_host")
COLLECTIVE_MODE_FIELDS = ("barrier_ps", "reduce_ps", "elapsed_cycles",
                          "fanin", "depth")
COLLECTIVE_NODE_COUNTS = (256, 1024, 4096)


def validate_collectives(report: dict) -> None:
    """Shape contract for BENCH_collectives.json (schema v1): the full
    topology x node-count grid is present, every point carries all three
    modes with their latency/tree-shape fields, and the NIC combining tree
    beats both centralized baselines once the O(N) manager serialization
    dominates (>= 1024 nodes) — the fig_barrier_scaling acceptance bar."""
    points = report["points"]
    for topo in TOPOLOGIES:
        for nodes in COLLECTIVE_NODE_COUNTS:
            key = f"{topo}/{nodes}"
            if key not in points:
                raise ValueError(f"missing point {key}")
    for pname, point in points.items():
        where = f"points.{pname}"
        modes = point["modes"]
        for mname in COLLECTIVE_MODES:
            if mname not in modes:
                raise ValueError(f"{where}: missing mode {mname}")
            for field in COLLECTIVE_MODE_FIELDS:
                if field not in modes[mname]:
                    raise ValueError(f"{where}.modes.{mname}: missing {field}")
        tree = modes["cni_tree"]
        if point["nodes"] >= 1024:
            for base in ("cni_host", "standard_host"):
                if tree["barrier_ps"] >= modes[base]["barrier_ps"]:
                    raise ValueError(
                        f"{where}: cni_tree barrier lost to {base}")
        if tree["fanin"] < 1 or tree["depth"] < 1:
            raise ValueError(f"{where}: degenerate combining tree")


def write_collectives() -> None:
    # fig_barrier_scaling sweeps 256/1024/4096 nodes for all three fabrics in
    # all three collective modes; the 4096-node centralized baselines make it
    # the slowest artifact here (several minutes on one core).
    out = subprocess.run(
        [str(BUILD / "bench" / "fig_barrier_scaling"), "--json"],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    report = json.loads(out)
    validate_collectives(report)

    result = {
        "schema_version": COLLECTIVES_SCHEMA_VERSION,
        "context": {
            "host": platform.node(),
            "num_cpus": os.cpu_count(),
            "date": datetime.datetime.now().astimezone().isoformat(timespec="seconds"),
            **env_context(),
        },
        **report,
    }

    path = ROOT / "BENCH_collectives.json"
    result["history"] = load_history(path)
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {path}")


SUITE_SCHEMA_VERSION = 1

# The reproduction suite: every fig/tab binary plus abl_mechanisms, the set
# the golden_* ctests pin (tests/CMakeLists.txt).
SUITE_BINARIES = (
    "tab01_params", "fig02_jacobi_speedup_128", "fig03_jacobi_speedup_256",
    "fig04_jacobi_speedup_1024", "fig05_jacobi_pagesize", "tab02_jacobi_overhead",
    "fig06_water_speedup_64", "fig07_water_speedup_216", "fig08_water_speedup_343",
    "fig09_water_pagesize", "tab03_water_overhead", "fig10_cholesky_bcsstk14",
    "fig11_cholesky_bcsstk15", "fig12_cholesky_pagesize", "tab04_cholesky_overhead",
    "fig13_mcache_size", "fig14_latency_micro", "fig_barrier_scaling",
    "tab05_cellsize", "abl_mechanisms",
)
SUITE_REPS = 3
SUITE_BINARY_FIELDS = ("wall_s_median", "wall_s_cv", "wall_s_samples",
                       "peak_rss_mb", "exit_status")
SUITE_TOTAL_FIELDS = ("wall_s_median", "wall_s_cv", "wall_s_samples",
                      "peak_rss_mb", "slowest")
SUITE_CONTEXT_FIELDS = ("host", "num_cpus", "date", "commit", "reps",
                        "cni_bench_jobs", "cni_sim_shards", "cni_bench_fast")


def timed_run(cmd: list) -> tuple:
    """(wall seconds, peak RSS in MB, exit status, stderr tail) of one child
    process. Peak RSS is the child's ru_maxrss, read with os.wait4; it counts
    the forked interpreter's pages before exec, so no binary reads below the
    launching Python's RSS (about 16 MB)."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        tail = err.read().decode(errors="replace")[-2000:]
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, tail


def cv(samples: list) -> float:
    """Coefficient of variation (sample stdev / mean); 0 for one sample."""
    if len(samples) < 2:
        return 0.0
    return statistics.stdev(samples) / statistics.mean(samples)


def build_commit(build: Path) -> str:
    """`git describe --always --dirty` of the source tree `build` was
    configured from — the same id the binaries stamp into run reports."""
    src = ROOT
    cache = build / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                src = Path(line.split("=", 1)[1])
    out = subprocess.run(["git", "-C", str(src), "describe", "--always", "--dirty"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def validate_suite(report: dict) -> None:
    """Shape contract for BENCH_suite.json (schema v1): context, one entry per
    suite binary with its wall/RSS/exit fields, every exit status zero, and a
    totals row whose per-repetition sums match the binaries'."""
    if report.get("schema_version") != SUITE_SCHEMA_VERSION:
        raise ValueError("suite: wrong schema_version")
    for field in SUITE_CONTEXT_FIELDS:
        if field not in report["context"]:
            raise ValueError(f"suite: context missing {field}")
    binaries = report["binaries"]
    if sorted(binaries) != sorted(SUITE_BINARIES):
        raise ValueError("suite: binary set differs from SUITE_BINARIES")
    reps = report["context"]["reps"]
    for name, entry in binaries.items():
        for field in SUITE_BINARY_FIELDS:
            if field not in entry:
                raise ValueError(f"suite: {name} missing {field}")
        if entry["exit_status"] != 0:
            raise ValueError(f"suite: {name} exited {entry['exit_status']}")
        if len(entry["wall_s_samples"]) != reps:
            raise ValueError(f"suite: {name} has {len(entry['wall_s_samples'])} "
                             f"samples, want {reps}")
    total = report["total"]
    for field in SUITE_TOTAL_FIELDS:
        if field not in total:
            raise ValueError(f"suite: total missing {field}")
    for rep, got in enumerate(total["wall_s_samples"]):
        want = sum(e["wall_s_samples"][rep] for e in binaries.values())
        if abs(got - want) > 1e-3 * len(binaries):
            raise ValueError(f"suite: total of repetition {rep} is {got}, want {want}")


def write_suite() -> None:
    """Runs the reproduction suite SUITE_REPS times, binary by binary in
    round-robin order so slow host drift spreads over every binary, and
    writes BENCH_suite.json."""
    samples = {name: [] for name in SUITE_BINARIES}
    rss = {name: 0.0 for name in SUITE_BINARIES}
    for rep in range(SUITE_REPS):
        for name in SUITE_BINARIES:
            wall, peak, status, err = timed_run([str(BUILD / "bench" / name)])
            if status != 0:
                sys.exit(f"{name} exited {status} (repetition {rep + 1}):\n{err}")
            samples[name].append(wall)
            rss[name] = max(rss[name], peak)
            print(f"  [{rep + 1}/{SUITE_REPS}] {name}: {wall:.2f} s, {peak:.0f} MB")

    binaries = {
        name: {
            "wall_s_median": round(statistics.median(samples[name]), 3),
            "wall_s_cv": round(cv(samples[name]), 4),
            "wall_s_samples": [round(w, 3) for w in samples[name]],
            "peak_rss_mb": round(rss[name], 1),
            "exit_status": 0,
        }
        for name in SUITE_BINARIES
    }
    totals = [round(sum(b["wall_s_samples"][rep] for b in binaries.values()), 3)
              for rep in range(SUITE_REPS)]
    result = {
        "schema_version": SUITE_SCHEMA_VERSION,
        "context": {
            "host": platform.node(),
            "num_cpus": os.cpu_count(),
            "date": datetime.datetime.now().astimezone().isoformat(timespec="seconds"),
            "commit": build_commit(BUILD),
            "reps": SUITE_REPS,
            "cni_bench_fast": os.environ.get("CNI_BENCH_FAST"),
            **env_context(),
        },
        "binaries": binaries,
        "total": {
            "wall_s_median": round(statistics.median(totals), 3),
            "wall_s_cv": round(cv(totals), 4),
            "wall_s_samples": totals,
            "peak_rss_mb": max(b["peak_rss_mb"] for b in binaries.values()),
            "slowest": max(binaries, key=lambda n: binaries[n]["wall_s_median"]),
        },
    }
    validate_suite(result)

    path = ROOT / "BENCH_suite.json"
    result["history"] = load_history(path)
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {path}")


def _num(d, *path):
    """Digs `path` out of nested dicts, returning None on any missing key —
    history blocks written by older schema versions may lack newer fields."""
    cur = d
    for key in path:
        if not isinstance(cur, dict) or key not in cur:
            return None
        cur = cur[key]
    return cur


def _headline_engine(s: dict) -> dict:
    rates = s.get("engine_events_per_sec") or {}
    mcache = s.get("mcache_lookups_per_sec") or {}
    return {
        "peak_engine_events_per_sec": max(rates.values(), default=None),
        "peak_mcache_lookups_per_sec": max(mcache.values(), default=None),
    }


def _headline_obs(s: dict) -> dict:
    return {
        "probe_tracing_on_pct": _num(s, "probe", "tracing_on_overhead_pct"),
        "jacobi_tracing_pct": _num(s, "jacobi_end_to_end", "tracing_on_overhead_pct"),
    }


def _headline_parsim(s: dict) -> dict:
    points = s.get("points") or {}
    k4 = _num(points, "jacobi", "modes", "k4") or {}
    limited = sum(1 for p in points.values()
                  for m in (p.get("modes") or {}).values()
                  if m.get("cores_limited"))
    return {
        "jacobi_k4_event_parallelism": k4.get("event_parallelism"),
        "jacobi_k4_wall_vs_k1": k4.get("wall_vs_k1"),
        "cores_limited_modes": limited,
    }


def _headline_topology(s: dict) -> dict:
    best_rate = None
    best_par = None
    for p in (s.get("points") or {}).values():
        k4 = (p.get("modes") or {}).get("k4") or {}
        rate = k4.get("events_per_sec")
        par = k4.get("event_parallelism")
        if rate is not None and (best_rate is None or rate > best_rate):
            best_rate = rate
        if par is not None and (best_par is None or par > best_par):
            best_par = par
    return {
        "peak_k4_events_per_sec": best_rate,
        "peak_k4_event_parallelism": best_par,
    }


def _headline_collectives(s: dict) -> dict:
    points = s.get("points") or {}

    def speedup(key):
        modes = (points.get(key) or {}).get("modes") or {}
        tree = (modes.get("cni_tree") or {}).get("barrier_ps")
        host = (modes.get("standard_host") or {}).get("barrier_ps")
        if not tree or not host:
            return None
        return round(host / tree, 2)

    return {
        "banyan_1024_barrier_speedup": speedup("banyan/1024"),
        "banyan_4096_barrier_speedup": speedup("banyan/4096"),
        "torus_4096_barrier_speedup": speedup("torus/4096"),
    }


def _headline_suite(s: dict) -> dict:
    return {
        "commit": _num(s, "context", "commit"),
        "bench_jobs": _num(s, "context", "cni_bench_jobs"),
        "total_wall_s": _num(s, "total", "wall_s_median"),
        "total_wall_cv": _num(s, "total", "wall_s_cv"),
        "peak_rss_mb": _num(s, "total", "peak_rss_mb"),
        "slowest": _num(s, "total", "slowest"),
    }


TRAJECTORY_BENCHES = (
    ("suite", "BENCH_suite.json", _headline_suite),
    ("engine", "BENCH_engine.json", _headline_engine),
    ("obs", "BENCH_obs.json", _headline_obs),
    ("parsim", "BENCH_parsim.json", _headline_parsim),
    ("topology", "BENCH_topology.json", _headline_topology),
    ("collectives", "BENCH_collectives.json", _headline_collectives),
)


def write_trajectory() -> None:
    """Aggregates the current payload plus the history blocks of every
    BENCH_*.json into one cross-PR perf trajectory: BENCH_trajectory.json for
    machines, TRAJECTORY.md for humans, and the markdown echoed to stdout so
    the CI bench job surfaces it in the log."""
    benches = {}
    for name, fname, headline in TRAJECTORY_BENCHES:
        path = ROOT / fname
        if not path.exists():
            continue
        try:
            current = json.loads(path.read_text())
        except ValueError:
            continue
        snapshots = [{k: v for k, v in current.items() if k != "history"}]
        snapshots += [s for s in current.get("history", []) if isinstance(s, dict)]
        rows = []
        for snap in snapshots:
            ctx = snap.get("context") or {}
            rows.append({
                "date": (ctx.get("date") or "")[:10] or None,
                "host": ctx.get("host"),
                "num_cpus": ctx.get("num_cpus"),
                **headline(snap),
            })
        benches[name] = rows

    out_json = ROOT / "BENCH_trajectory.json"
    out_json.write_text(json.dumps({"schema_version": 1, "benches": benches},
                                   indent=2) + "\n")

    lines = [
        "# Performance trajectory",
        "",
        "Headline numbers per benchmark family, newest row first; older rows",
        f"come from each BENCH file's history block (capped at {HISTORY_DEPTH}",
        "entries). Wall-clock columns are host-bound — compare rows only when",
        "host/num_cpus match. Regenerated by `scripts/bench_engine.py",
        "--trajectory` (and automatically after a full bench run).",
        "",
    ]
    for name, rows in benches.items():
        lines.append(f"## {name}")
        lines.append("")
        if not rows:
            lines.extend(["(no data)", ""])
            continue
        cols = list(rows[0].keys())
        lines.append("| " + " | ".join(cols) + " |")
        lines.append("|" + "|".join(" --- " for _ in cols) + "|")
        for row in rows:
            cells = ["-" if row.get(c) is None else str(row[c]) for c in cols]
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
    md = "\n".join(lines)
    (ROOT / "TRAJECTORY.md").write_text(md)
    print(md)
    print(f"wrote {out_json}")
    print(f"wrote {ROOT / 'TRAJECTORY.md'}")


def main() -> None:
    if "--trajectory" in sys.argv[1:]:
        write_trajectory()
        return
    if "--suite" in sys.argv[1:]:
        write_suite()
        return

    engine = run("micro_engine")
    mcache = run("micro_mcache")

    result = {
        "context": context_of(engine),
        "engine_events_per_sec": {},
        "mcache_lookups_per_sec": {},
    }
    for b in engine["benchmarks"]:
        if b.get("items_per_second"):
            result["engine_events_per_sec"][b["name"]] = round(b["items_per_second"])
    for b in mcache["benchmarks"]:
        # mcache benches report one lookup/insert per iteration.
        result["mcache_lookups_per_sec"][b["name"]] = round(1e9 / b["real_time"])

    path = ROOT / "BENCH_engine.json"
    result["history"] = load_history(path)
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {path}")

    write_obs()
    write_parsim()
    write_topology()
    write_collectives()
    write_trajectory()


if __name__ == "__main__":
    main()
