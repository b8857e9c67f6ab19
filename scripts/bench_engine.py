#!/usr/bin/env python3
"""Regenerates BENCH_layers.json, BENCH_topology.json and
BENCH_collectives.json, then the trajectory.

Usage: scripts/bench_engine.py [build-dir]
       scripts/bench_engine.py --suite [build-dir]
       scripts/bench_engine.py --scaling [build-dir]
       scripts/bench_engine.py --trajectory

The default mode writes:
- BENCH_layers.json: host time by simulator layer (`cni::<layer>`) for each
  suite binary in LAYER_BINARIES. They run round-robin at full size on one
  sweep worker under the SIGPROF sampler (tools/layer_prof.cpp), each in a
  temporary directory, until each one's sample files hold
  LAYER_MIN_SAMPLES; profile_layers.py attributes the samples.
- BENCH_topology.json: the fabric-topology scaling grid from micro_topology
  (banyan/Clos/torus at 256/1024/4096 nodes under incast, permutation and
  hot-spot traffic).
- BENCH_collectives.json: the collective scaling grid from
  fig_barrier_scaling (barrier/reduce latency per episode for the
  NIC-resident combining tree vs the centralized baselines, all three
  fabrics).

With --suite only BENCH_suite.json is written: the end-to-end wall time and
peak RSS of the whole reproduction suite (every fig/tab binary plus
abl_mechanisms), each binary run SUITE_REPS times, interleaved round-robin.
Any nonzero exit fails the writer. CNI_BENCH_FAST=1 gives the smoke-size
suite CI runs; the committed file is the full-size one.

With --scaling only BENCH_scaling.json is written: host wall time and peak
RSS against node count, from `fig_barrier_scaling --nodes=N
--topology=banyan --rounds=2` on one sweep worker for N = 512 .. 4096, each
node count run SCALING_REPS times, interleaved round-robin (ROADMAP item 4's
table; about half a minute). Any nonzero exit fails the writer.

With --trajectory no benchmark runs: the script aggregates the current
payload plus the history blocks of every BENCH_*.json into one cross-PR
perf-trajectory table (TRAJECTORY.md + BENCH_trajectory.json, also printed
to stdout) so the headline numbers' drift across sessions is visible in one
place instead of scattered over five files.

Every context block records CNI_BENCH_JOBS and the resolved sweep worker
count so runs taken under different fan-out settings are never compared
apples-to-oranges. A CNI_BENCH_JOBS the binaries would reject (anything but
a count >= 1) stops the script, naming it, and an unknown flag prints usage
and exits 2, both before anything runs or is written.
"""
import argparse
import datetime
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import profile_layers

ROOT = Path(__file__).resolve().parent.parent
# The build tree whose bench/ binaries run; main() sets it from the command
# line.
BUILD = ROOT / "build"

# How many prior payloads each BENCH file keeps. Wall numbers are
# host-bound, so a re-run on another host should sit next to the old point,
# not erase it.
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


def sweep_jobs() -> int:
    """Worker count the sweep runner would use. Mirrors apps::sweep_jobs,
    which takes CNI_BENCH_JOBS only as a count >= 1 (decimal digits of a
    value that fits 32 bits): any other value stops the script."""
    env = os.environ.get("CNI_BENCH_JOBS")
    if env is None:
        return os.cpu_count() or 1
    if not re.fullmatch(r"[0-9]+", env) or not 1 <= int(env) < 2**32:
        sys.exit(f"bench_engine.py: CNI_BENCH_JOBS must be a count >= 1, not '{env}'")
    return int(env)


def env_context() -> dict:
    """The knob that shapes how a run executes, recorded so two BENCH files
    can be compared apples-to-apples: the sweep fan-out."""
    return {
        "cni_bench_jobs": os.environ.get("CNI_BENCH_JOBS"),
        "sweep_workers": sweep_jobs(),
    }


TOPOLOGY_SCHEMA_VERSION = 2

# One run per point. Schema v2 dropped v1's per-shard-count modes, their
# epoch/barrier/event-parallelism counts and the lookahead block.
TOPOLOGY_POINT_FIELDS = ("topology", "scenario", "nodes", "wall_ms",
                         "elapsed_cycles", "events_total", "events_per_sec")
TOPOLOGIES = ("banyan", "clos", "torus")
SCENARIOS = ("incast", "permutation", "hotspot")
TOPOLOGY_NODE_COUNTS = (256, 1024, 4096)


def validate_topology(report: dict) -> None:
    """Shape contract for BENCH_topology.json (schema v2): the full
    topology x scenario x node-count grid is present and every point carries
    all TOPOLOGY_POINT_FIELDS."""
    points = report["points"]
    for topo in TOPOLOGIES:
        for sc in SCENARIOS:
            for nodes in TOPOLOGY_NODE_COUNTS:
                key = f"{topo}/{sc}/{nodes}"
                if key not in points:
                    raise ValueError(f"missing point {key}")
    for pname, point in points.items():
        for field in TOPOLOGY_POINT_FIELDS:
            if field not in point:
                raise ValueError(f"points.{pname}: missing {field}")


def write_topology() -> None:
    # The full sweep covers 256/1024/4096 nodes for all three topologies, so
    # this is the slowest bench here after fig_barrier_scaling.
    out = subprocess.run(
        [str(BUILD / "bench" / "micro_topology"), "--json"],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    report = json.loads(out)
    validate_topology(report)

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


SUITE_SCHEMA_VERSION = 2

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
SUITE_CONTEXT_FIELDS = ("host", "num_cpus", "date", "base_commit", "dirty", "reps",
                        "cni_bench_jobs", "cni_bench_fast")


def timed_run(cmd: list, env=None) -> tuple:
    """(wall seconds, peak RSS in MB, exit status, stderr tail) of one child
    process, run with `env` (default: this process's environment) through
    the build's tools/cni_peak_rss launcher. Peak RSS is the child's
    ru_maxrss, which counts the pages its process held before exec: forked
    from this interpreter, no binary could read below its resident set
    (about 17 MB); forked from the launcher, the floor is the launcher's
    (about 1 MB)."""
    launcher = BUILD / "tools" / "cni_peak_rss"
    if not launcher.exists():
        sys.exit(f"{launcher} is missing: build the cni_peak_rss target")
    with tempfile.TemporaryFile() as err, tempfile.NamedTemporaryFile("r") as rss:
        start = time.perf_counter()
        subprocess.run([str(launcher), rss.name, *cmd], stdout=subprocess.DEVNULL,
                       stderr=err, env=env, check=False)
        wall = time.perf_counter() - start
        err.seek(0)
        tail = err.read().decode(errors="replace")[-2000:]
        reading = rss.read().split()
    if len(reading) != 2:
        sys.exit(f"{launcher} recorded nothing for {cmd[0]}:\n{tail}")
    peak_kb, status = (int(v) for v in reading)
    return wall, peak_kb / 1024.0, status, tail


def cv(samples: list) -> float:
    """Coefficient of variation (sample stdev / mean); 0 for one sample."""
    if len(samples) < 2:
        return 0.0
    return statistics.stdev(samples) / statistics.mean(samples)


def build_commit(build: Path) -> dict:
    """The commit checked out in the source tree `build` was configured from
    (`git describe --always`) as `base_commit`, and as `dirty` whether any of
    the tree's files differ from it or are new (ignored build output aside).
    Outside a checkout: "unknown" and None."""
    src = ROOT
    cache = build / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                src = Path(line.split("=", 1)[1])
    git = ["git", "-C", str(src)]
    head = subprocess.run(git + ["describe", "--always"], capture_output=True, text=True)
    status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True)
    if head.returncode != 0 or status.returncode != 0:
        return {"base_commit": "unknown", "dirty": None}
    return {"base_commit": head.stdout.strip(), "dirty": status.stdout.strip() != ""}


def validate_suite(report: dict) -> None:
    """Shape contract for BENCH_suite.json (schema v2): context, one entry per
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
            **build_commit(BUILD),
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


SCALING_SCHEMA_VERSION = 1

SCALING_NODE_COUNTS = (512, 1024, 2048, 4096)
SCALING_REPS = 3
SCALING_ARGS = ("--topology=banyan", "--rounds=2")
SCALING_POINT_FIELDS = ("wall_s_median", "wall_s_samples", "peak_rss_mb",
                        "peak_rss_mb_samples")
SCALING_CONTEXT_FIELDS = ("host", "num_cpus", "date", "base_commit", "dirty", "reps",
                          "command", "cni_bench_jobs", "launcher_floor_mb")


def validate_scaling(report: dict) -> None:
    """Shape contract for BENCH_scaling.json (schema v1): context, one point
    per node count in SCALING_NODE_COUNTS with `reps` wall and RSS samples
    and their medians, and the per-doubling peak-RSS ratios."""
    if report.get("schema_version") != SCALING_SCHEMA_VERSION:
        raise ValueError("scaling: wrong schema_version")
    for field in SCALING_CONTEXT_FIELDS:
        if field not in report["context"]:
            raise ValueError(f"scaling: context missing {field}")
    reps = report["context"]["reps"]
    points = report["points"]
    if sorted(points, key=int) != [str(n) for n in SCALING_NODE_COUNTS]:
        raise ValueError("scaling: node counts differ from SCALING_NODE_COUNTS")
    for nodes, point in points.items():
        for field in SCALING_POINT_FIELDS:
            if field not in point:
                raise ValueError(f"scaling: {nodes} missing {field}")
        for field in ("wall_s_samples", "peak_rss_mb_samples"):
            if len(point[field]) != reps:
                raise ValueError(f"scaling: {nodes} has {len(point[field])} {field}, "
                                 f"want {reps}")
        if point["peak_rss_mb"] != statistics.median(point["peak_rss_mb_samples"]):
            raise ValueError(f"scaling: {nodes} peak_rss_mb is not the samples' median")
    ratios = report["peak_rss_ratio"]
    for lo, hi in zip(SCALING_NODE_COUNTS, SCALING_NODE_COUNTS[1:]):
        if f"{lo}->{hi}" not in ratios:
            raise ValueError(f"scaling: missing peak_rss_ratio {lo}->{hi}")


def write_scaling() -> None:
    """Runs fig_barrier_scaling at each node count in SCALING_NODE_COUNTS,
    SCALING_REPS times round-robin on one sweep worker, and writes
    BENCH_scaling.json: median wall time and wait4 peak RSS per node count,
    and how the peak grows per doubling."""
    binary = str(BUILD / "bench" / "fig_barrier_scaling")
    env = {**os.environ, "CNI_BENCH_JOBS": "1", "CNI_BENCH_FAST": "0", "CNI_TRACE": "0"}
    # What the launcher reports for a child that maps almost nothing: the
    # peaks below cannot read lower (see timed_run).
    _, floor, _, _ = timed_run(["true"])
    walls = {n: [] for n in SCALING_NODE_COUNTS}
    peaks = {n: [] for n in SCALING_NODE_COUNTS}
    for rep in range(SCALING_REPS):
        for nodes in SCALING_NODE_COUNTS:
            wall, peak, status, err = timed_run([binary, f"--nodes={nodes}", *SCALING_ARGS],
                                                env)
            if status != 0:
                sys.exit(f"fig_barrier_scaling --nodes={nodes} exited {status} "
                         f"(repetition {rep + 1}):\n{err}")
            walls[nodes].append(round(wall, 3))
            peaks[nodes].append(round(peak, 1))
            print(f"  [{rep + 1}/{SCALING_REPS}] {nodes} nodes: {wall:.2f} s, {peak:.1f} MB")

    points = {
        str(n): {
            "wall_s_median": statistics.median(walls[n]),
            "wall_s_samples": walls[n],
            "peak_rss_mb": statistics.median(peaks[n]),
            "peak_rss_mb_samples": peaks[n],
        }
        for n in SCALING_NODE_COUNTS
    }
    rss = {n: points[str(n)]["peak_rss_mb"] for n in SCALING_NODE_COUNTS}
    result = {
        "schema_version": SCALING_SCHEMA_VERSION,
        "context": {
            "host": platform.node(),
            "num_cpus": os.cpu_count(),
            "date": datetime.datetime.now().astimezone().isoformat(timespec="seconds"),
            **build_commit(BUILD),
            "reps": SCALING_REPS,
            "command": "fig_barrier_scaling --nodes=N " + " ".join(SCALING_ARGS),
            "cni_bench_jobs": env["CNI_BENCH_JOBS"],
            "launcher_floor_mb": round(floor, 1),
        },
        "points": points,
        "peak_rss_ratio": {
            f"{lo}->{hi}": round(rss[hi] / rss[lo], 2)
            for lo, hi in zip(SCALING_NODE_COUNTS, SCALING_NODE_COUNTS[1:])
        },
    }
    validate_scaling(result)

    path = ROOT / "BENCH_scaling.json"
    result["history"] = load_history(path)
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {path}")


LAYERS_SCHEMA_VERSION = 1

# The suite binaries that use >= 1 CPU-s in one full-size pass on one sweep
# worker (fig08, the largest Water figure, used 0.9 CPU-s on a 4-core VM);
# a shorter run gives too few samples at the kernel tick to be worth
# repeating. fig13 and tab05 run Water among their apps.
LAYER_BINARIES = (
    "fig03_jacobi_speedup_256", "fig04_jacobi_speedup_1024", "fig05_jacobi_pagesize",
    "tab02_jacobi_overhead", "fig11_cholesky_bcsstk15", "fig13_mcache_size",
    "fig_barrier_scaling", "tab05_cellsize",
)
# Samples per binary: about 16 CPU-s at the ~250 Hz tick.
LAYER_MIN_SAMPLES = 4000
LAYER_TOP = 5
LAYER_CONTEXT_FIELDS = ("host", "num_cpus", "date", "base_commit", "dirty", "cni_bench_jobs")
LAYER_ROW_FIELDS = ("samples", "runs", "layers", "top")


def validate_layers(report: dict) -> None:
    """Shape contract for BENCH_layers.json (schema v1): context, one row per
    LAYER_BINARIES entry with at least LAYER_MIN_SAMPLES samples, layer
    shares that sum to 100 % (within their rounding), and at most LAYER_TOP
    top functions, each in one of the row's layers."""
    if report.get("schema_version") != LAYERS_SCHEMA_VERSION:
        raise ValueError("layers: wrong schema_version")
    for field in LAYER_CONTEXT_FIELDS:
        if field not in report["context"]:
            raise ValueError(f"layers: context missing {field}")
    binaries = report["binaries"]
    if sorted(binaries) != sorted(LAYER_BINARIES):
        raise ValueError("layers: binary set differs from LAYER_BINARIES")
    for name, row in binaries.items():
        for field in LAYER_ROW_FIELDS:
            if field not in row:
                raise ValueError(f"layers: {name} missing {field}")
        if row["samples"] < LAYER_MIN_SAMPLES or row["runs"] < 1:
            raise ValueError(f"layers: {name} has {row['samples']} samples in "
                             f"{row['runs']} runs, want >= {LAYER_MIN_SAMPLES}")
        shares = row["layers"].values()
        if min(shares) < 0 or abs(sum(shares) - 100.0) > 0.1:
            raise ValueError(f"layers: {name}'s shares sum to {sum(shares)}, not 100")
        if not 1 <= len(row["top"]) <= LAYER_TOP:
            raise ValueError(f"layers: {name} lists {len(row['top'])} top functions")
        for entry in row["top"]:
            if entry["layer"] not in row["layers"] or not 0 < entry["pct"] <= 100:
                raise ValueError(f"layers: {name}: bad top entry {entry}")


def write_layers() -> None:
    """Profiles every LAYER_BINARIES entry under the layer sampler and writes
    BENCH_layers.json. Every CNI_* variable but CNI_BENCH_JOBS=1 is dropped,
    so each binary runs at full size on one sweep worker whatever the
    caller's environment says, in a temporary directory of its own. The
    binaries run in round-robin passes, each pass running those whose sample
    files hold fewer than LAYER_MIN_SAMPLES, so slow host drift spreads over
    every row."""
    lib = BUILD / "tools" / "libcni_layer_prof.so"
    if not lib.exists():
        sys.exit(f"{lib} is missing: build the cni_layer_prof target")
    env = {k: v for k, v in os.environ.items() if not k.startswith("CNI_")}
    env.update(CNI_BENCH_JOBS="1", LD_PRELOAD=str(lib))
    runs = dict.fromkeys(LAYER_BINARIES, 0)
    samples = dict.fromkeys(LAYER_BINARIES, 0)
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {name: Path(tmp, name) for name in LAYER_BINARIES}
        for d in dirs.values():
            d.mkdir()

        def files(name):
            return sorted(str(f) for f in dirs[name].glob("layer_prof.*.out"))

        while todo := [n for n in LAYER_BINARIES if samples[n] < LAYER_MIN_SAMPLES]:
            for name in todo:
                subprocess.run([str(BUILD / "bench" / name)], cwd=dirs[name], env=env,
                               check=True, stdout=subprocess.DEVNULL)
                runs[name] += 1
                before, samples[name] = samples[name], sum(
                    len(profile_layers.read_samples(f)[1]) for f in files(name))
                if samples[name] == before:
                    sys.exit(f"{name}: a run under {lib} left no samples")
                print(f"  {name}: {samples[name]} samples in {runs[name]} runs")
        binaries = {}
        for name in LAYER_BINARIES:
            prof = profile_layers.rounded(profile_layers.profile(files(name), top=LAYER_TOP))
            binaries[name] = {"samples": prof["samples"], "runs": runs[name],
                              "layers": prof["layers"], "top": prof["top"]}
    result = {
        "schema_version": LAYERS_SCHEMA_VERSION,
        "context": {
            "host": platform.node(),
            "num_cpus": os.cpu_count(),
            "date": datetime.datetime.now().astimezone().isoformat(timespec="seconds"),
            **build_commit(BUILD),
            "cni_bench_jobs": "1",
        },
        "binaries": binaries,
    }
    validate_layers(result)

    path = ROOT / "BENCH_layers.json"
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


def _headline_topology(s: dict) -> dict:
    rates = []
    for p in (s.get("points") or {}).values():
        # Schema v1 snapshots in the history block keep each rate under a
        # per-shard-count mode; their k1 mode is the same one-engine run.
        rate = p.get("events_per_sec", _num(p, "modes", "k1", "events_per_sec"))
        if rate is not None:
            rates.append(rate)
    return {"peak_events_per_sec": max(rates, default=None)}


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


def _row_commit(s: dict):
    """The commit a suite or layers row measured: `<sha>+wt` for a working
    tree that differed from commit <sha>. Suite rows older than schema v2
    keep their `git describe --dirty` id."""
    base = _num(s, "context", "base_commit")
    if base is None:
        return _num(s, "context", "commit")
    return base + "+wt" if _num(s, "context", "dirty") else base


def _headline_suite(s: dict) -> dict:
    return {
        "commit": _row_commit(s),
        "bench_jobs": _num(s, "context", "cni_bench_jobs"),
        "total_wall_s": _num(s, "total", "wall_s_median"),
        "total_wall_cv": _num(s, "total", "wall_s_cv"),
        "peak_rss_mb": _num(s, "total", "peak_rss_mb"),
        "slowest": _num(s, "total", "slowest"),
    }


def _headline_scaling(s: dict) -> dict:
    points = s.get("points") or {}
    row = {"commit": _row_commit(s)}
    for nodes in SCALING_NODE_COUNTS:
        row[f"rss_mb_{nodes}"] = _num(points, str(nodes), "peak_rss_mb")
    for nodes in SCALING_NODE_COUNTS:
        row[f"wall_s_{nodes}"] = _num(points, str(nodes), "wall_s_median")
    row["rss_ratio_2048_4096"] = _num(s, "peak_rss_ratio", "2048->4096")
    return row


def _headline_layers(s: dict) -> dict:
    """The sample-weighted share of each layer across the profiled binaries,
    largest first."""
    rows = (s.get("binaries") or {}).values()
    total = sum(r["samples"] for r in rows)
    weighted = {}
    for r in rows:
        for layer, share in r["layers"].items():
            weighted[layer] = weighted.get(layer, 0.0) + share * r["samples"] / total
    order = sorted(weighted, key=lambda k: (-weighted[k], k))
    return {"commit": _row_commit(s), "samples": total,
            **{layer: round(weighted[layer], 1) for layer in order}}


def within_noise(row: dict, older: dict) -> bool:
    """True when a suite row's total wall time differs from the next older
    row's by less than twice the larger of the two rows' run-to-run CVs:
    such a delta is not a measured change."""
    new, old = row.get("total_wall_s"), older.get("total_wall_s")
    cvs = [c for c in (row.get("total_wall_cv"), older.get("total_wall_cv")) if c is not None]
    if new is None or old is None or not cvs:
        return False
    return abs(new - old) < 2 * max(cvs) * old


TRAJECTORY_BENCHES = (
    ("suite", "BENCH_suite.json", _headline_suite),
    ("layers", "BENCH_layers.json", _headline_layers),
    ("topology", "BENCH_topology.json", _headline_topology),
    ("collectives", "BENCH_collectives.json", _headline_collectives),
    ("scaling", "BENCH_scaling.json", _headline_scaling),
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
        "--trajectory` (and automatically after a full bench run). A suite",
        "total marked (within noise) differs from the row below it by less",
        "than twice the larger of the two rows' total_wall_cv.",
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
        for i, row in enumerate(rows):
            cells = ["-" if row.get(c) is None else str(row[c]) for c in cols]
            if name == "suite" and i + 1 < len(rows) and within_noise(row, rows[i + 1]):
                at = cols.index("total_wall_s")
                cells[at] += " (within noise)"
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
    md = "\n".join(lines)
    (ROOT / "TRAJECTORY.md").write_text(md)
    print(md)
    print(f"wrote {out_json}")
    print(f"wrote {ROOT / 'TRAJECTORY.md'}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Regenerates the BENCH_*.json files from a build tree.")
    parser.add_argument("build", nargs="?", default=str(ROOT / "build"),
                        help="build directory holding bench/ (default: build)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--suite", action="store_true",
                      help="time the reproduction suite; writes BENCH_suite.json only")
    mode.add_argument("--scaling", action="store_true",
                      help="time fig_barrier_scaling against node count; writes "
                           "BENCH_scaling.json only")
    mode.add_argument("--trajectory", action="store_true",
                      help="run nothing; aggregate the BENCH files into TRAJECTORY.md")
    return parser.parse_args(argv)


def main() -> None:
    global BUILD
    args = parse_args()
    # Resolved here: the layer binaries run with a temporary directory as cwd.
    BUILD = Path(args.build).resolve()
    sweep_jobs()  # exits on a CNI_BENCH_JOBS the binaries would reject
    if args.trajectory:
        write_trajectory()
        return
    if args.suite:
        write_suite()
        return
    if args.scaling:
        write_scaling()
        return
    write_layers()
    write_topology()
    write_collectives()
    write_trajectory()


if __name__ == "__main__":
    main()
