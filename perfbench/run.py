#!/usr/bin/env python3
"""Pipeline benchmark for the cISP design system.

Builds perfbench/_ws/bench/pipeline.ml against the checkout's lib/ in
.bench_build/, runs one workload in one process, checks every
operation's outputs and prints the metrics.  The last line of standard
output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, op_cpu_s,
peak_rss_mb); with --trace 1 the workload runs once untraced and once
under Cisp_util.Telemetry tracing, and the metrics are the per-layer
ones, including each layer's self time from the trace.  The line
before the result records the run: code revision, host, pool width,
OCaml version, seed and calibration time.  See README.md.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
WORKSPACE = BUILD_DIR / "ws"
EXE = WORKSPACE / "_build" / "default" / "bench" / "pipeline.exe"

WORKLOADS = ("design-us", "design-eu", "operate-us")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Stretch, availability and loss are ratios of floats: allow for the
# last bit when checking the paper's bounds on them.
EPS = 1e-9

LAYERS = ("bench", "terrain", "towers", "fiber", "traffic", "graph", "design", "weather", "sim")

# First component of a span name recorded inside lib/ -> its layer.
# Spans not listed here belong to the layer of the span around them.
PROGRAM_SPAN_LAYERS = {
    "towers": "towers",
    "hops": "towers",
    "ch": "graph",
    "alt": "graph",
    "apsp": "graph",
    "greedy": "design",
    "capacity": "design",
    "weather": "weather",
    "scenarios": "weather",
    "sim": "sim",
}

# Every timed call the workloads make, by "<layer>.<call>".  The
# scenario suite's per-spec calls are summed into weather.scenarios.
CALLS = (
    "terrain.dem",
    "terrain.dem_cache",
    "towers.synth",
    "towers.culling",
    "fiber.conduit",
    "traffic.matrix",
    "towers.hops_build",
    "graph.all_links",
    "design.heuristic",
    "design.capacity",
    "weather.year",
    "weather.scenarios",
    "sim.routing",
    "sim.build",
    "sim.run",
)

# Calls that allocate next to nothing (a DEM handle, a conduit table,
# a 30x30 matrix): no allocation metrics for them.
TRIVIAL_CALLS = ("terrain.dem", "fiber.conduit", "traffic.matrix")

SCENARIO_SPECS = ("uniform-rain", "rain-replay", "hurricane", "correlated-towers")


# ---------- build ----------


def mirror(src, dst):
    """Make dst an exact copy of src, rewriting only files that differ."""
    dst.mkdir(parents=True, exist_ok=True)
    wanted = set()
    for entry in src.iterdir():
        wanted.add(entry.name)
        target = dst / entry.name
        if entry.is_dir():
            if target.exists() and not target.is_dir():
                target.unlink()
            mirror(entry, target)
        else:
            if target.is_dir():
                shutil.rmtree(target)
            data = entry.read_bytes()
            if not target.exists() or target.read_bytes() != data:
                target.write_bytes(data)
    for entry in dst.iterdir():
        if entry.name not in wanted:
            if entry.is_dir():
                shutil.rmtree(entry)
            else:
                entry.unlink()


def build():
    """Build pipeline.exe from the checkout's sources in .bench_build/ws."""
    lib = ROOT / "lib"
    if not (lib / "core" / "dune").is_file():
        sys.exit(f"perfbench: no cISP sources at {lib}; run from a checkout of the repository")
    WORKSPACE.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(BENCH_DIR / "_ws" / "dune-project", WORKSPACE / "dune-project")
    mirror(BENCH_DIR / "_ws" / "bench", WORKSPACE / "bench")
    mirror(lib, WORKSPACE / "lib")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "./bench/pipeline.exe"],
        cwd=WORKSPACE,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=BUILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: build failed (exit {proc.returncode})")


# ---------- checks ----------


def same(a, b):
    """Bit-for-bit equality of recorded outputs (NaN equals NaN)."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return type(a) is type(b) and a == b


def finite_positive(x):
    return isinstance(x, (int, float)) and math.isfinite(x) and x > 0


def is_stretch(x):
    return isinstance(x, (int, float)) and math.isfinite(x) and x >= 1.0 - EPS


def frontier_rows(csv):
    lines = csv.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def invariant_problems(op, out):
    """The paper's invariants, which hold at any seed."""
    problems = []
    if "towers_kept" in out and not out["towers_kept"] > 0:
        problems.append("no towers survive culling")
    if "links" in out:
        if not out["links"] >= 1:
            problems.append("empty design")
        if not is_stretch(out["stretch"]):
            problems.append(f"stretch {out['stretch']} < 1")
        if not out["towers"] <= out["budget"]:
            problems.append(f"towers {out['towers']} over budget {out['budget']}")
        if not finite_positive(out["cost_per_gb"]):
            problems.append(f"cost per GB {out['cost_per_gb']} not finite positive")
    if op == "year":
        for key in ("median_best", "median_median", "median_p99", "median_worst", "median_fiber"):
            if not is_stretch(out[key]):
                problems.append(f"{key} {out[key]} < 1")
    if op == "scenarios":
        rows = frontier_rows(out["frontier_csv"])
        if len(rows) != len(SCENARIO_SPECS) * 3:
            problems.append(f"frontier has {len(rows)} rows")
        for row in rows:
            avail = float(row["availability"])
            if not 0.0 <= avail <= 1.0:
                problems.append(f"{row['scenario']}/{row['scheme']} availability {avail}")
            for key in ("mean_stretch", "p99_stretch", "worst_stretch"):
                x = float(row[key])
                if not (math.isnan(x) or is_stretch(x)):
                    problems.append(f"{row['scenario']}/{row['scheme']} {key} {x} < 1")
            if not float(row["mean_failed_links"]) >= 0.0:
                problems.append(f"{row['scenario']} negative failed links")
    if op == "sim":
        if not 0.0 <= out["loss_rate"] <= 1.0:
            problems.append(f"loss rate {out['loss_rate']}")
        if not (out["sent"] > 0 and out["delivered"] + out["dropped"] <= out["sent"]):
            problems.append(f"packets sent {out['sent']} delivered {out['delivered']} dropped {out['dropped']}")
        if not finite_positive(out["mean_delay_ms"]):
            problems.append(f"mean delay {out['mean_delay_ms']} ms")
    return problems


def op_problems(op, golden):
    """Everything wrong with one operation: its exception, a broken
    invariant, or (when golden values apply) any output that differs
    from the recorded one."""
    if op["error"]:
        return [f"raised {op['error']}"]
    try:
        problems = invariant_problems(op["op"], op["outputs"])
    except (KeyError, ValueError, TypeError) as e:
        return [f"malformed outputs ({e!r})"]
    for key, want in (golden or {}).get(op["op"], {}).items():
        got = op["outputs"].get(key)
        if not same(got, want):
            problems.append(f"{key} = {got!r}, golden {want!r}")
    return problems


def assess(ops, golden):
    """(attempted, failed, messages) over a run's operations."""
    failed = 0
    messages = []
    for op in ops:
        problems = op_problems(op, golden)
        if problems:
            failed += 1
            messages.append(f"{op['op']}: " + "; ".join(problems))
    return len(ops), failed, messages


def load_golden(workload, seed):
    """Golden outputs recorded at the default seed; none at other seeds."""
    if seed != 0:
        return None
    with open(BENCH_DIR / "golden.json") as f:
        return json.load(f)[workload]


# ---------- trace ----------


def read_trace(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def span_layer(name, parent_layer):
    parts = name.split(".")
    if parts[0] == "bench":
        return parts[1] if len(parts) > 2 else "bench"
    return PROGRAM_SPAN_LAYERS.get(parts[0], parent_layer)


def self_times(events):
    """Self time per layer: each span's duration minus that of the spans
    directly inside it, summed by layer.  The self times of all spans
    add up to the duration of the outermost ones."""
    spans = [e for e in events if e.get("ph") == "X"]
    spans.sort(key=lambda e: (e["tid"], e["ts"], -e["dur"]))
    totals = {}
    stack = []  # [end_us, layer, self_us] of the open spans on one thread
    tid = None

    def close(entry):
        totals[entry[1]] = totals.get(entry[1], 0.0) + entry[2] / 1e6

    for e in spans:
        if e["tid"] != tid:
            while stack:
                close(stack.pop())
            tid = e["tid"]
        # Times are rounded to 0.1 us, so a span that starts within half
        # a microsecond of another's end comes after it.
        while stack and stack[-1][0] <= e["ts"] + 0.5:
            close(stack.pop())
        if stack:
            stack[-1][2] -= e["dur"]
        layer = span_layer(e["name"], stack[-1][1] if stack else "bench")
        stack.append([e["ts"] + e["dur"], layer, e["dur"]])
    while stack:
        close(stack.pop())
    return totals


# ---------- metrics ----------


def call_sums(calls, field):
    sums = {name: 0.0 for name in CALLS}
    for c in calls:
        name = c["name"]
        if name.startswith("weather.scenario."):
            name = "weather.scenarios"
        sums[name] = sums.get(name, 0.0) + c[field]
    return sums


def end_to_end(record):
    return {
        "setup_s": (statistics.median(record["setup_cpu_s"]), "s"),
        "op_cpu_s": (statistics.median(record["cycle_cpu_s"]), "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
    }


def last_stat(ops, key):
    values = [op["stats"][key] for op in ops if key in op["stats"]]
    return values[-1] if values else 0


def per_layer(record, events, failed_share):
    """Per-layer metrics from a traced run.  Every name is present for
    every workload; a layer the workload does not run reads 0."""
    wall = call_sums(record["calls"], "wall_s")
    words = call_sums(record["calls"], "minor_words")
    gcs = call_sums(record["calls"], "major_gcs")
    scen = {s: 0.0 for s in SCENARIO_SPECS}
    for c in record["calls"]:
        if c["name"].startswith("weather.scenario."):
            spec = c["name"][len("weather.scenario."):]
            scen[spec] = scen.get(spec, 0.0) + c["wall_s"]
    counters, spans, ops = record["counters"], record["spans"], record["ops"]
    los_tests = counters["hops.los_tests"]
    hits, misses = last_stat(ops, "cache_hits"), last_stat(ops, "cache_misses")
    events_run = counters["sim.events"]
    selfs = self_times(events)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "host.calib_s": (statistics.mean(record["calib_s"]), "s"),
        "failed_share": (failed_share, "share"),
        "telemetry.overhead": (record["traced_cpu_s"] / record["untraced_cpu_s"], "ratio"),
        "towers.hops_build_s": (wall["towers.hops_build"], "s"),
        "towers.tower_los_s": (spans["hops.tower_los"], "s"),
        "towers.los_tests": (los_tests, "count"),
        "towers.feasible_ratio": (ratio(counters["hops.feasible_hops"], los_tests), "share"),
        "towers.los_us_per_test": (ratio(spans["hops.tower_los"] * 1e6, los_tests), "us"),
        "terrain.cache_hits": (hits, "count"),
        "terrain.cache_misses": (misses, "count"),
        "terrain.hit_ratio": (ratio(hits, hits + misses), "share"),
        "graph.all_links_s": (wall["graph.all_links"], "s"),
        "graph.ch_build_s": (spans["ch.build"], "s"),
        "graph.ch_shortcuts": (counters["ch.shortcuts"], "count"),
        "graph.apsp_sources": (counters["apsp.sources"], "count"),
        "design.heuristic_s": (wall["design.heuristic"], "s"),
        "design.capacity_s": (wall["design.capacity"], "s"),
        "weather.year_s": (wall["weather.year"], "s"),
        "weather.scenarios_s": (wall["weather.scenarios"], "s"),
        "weather.failed_links_mean": (last_stat(ops, "mean_failed_links"), "count"),
        "sim.routing_s": (wall["sim.routing"], "s"),
        "sim.build_s": (wall["sim.build"], "s"),
        "sim.run_s": (wall["sim.run"], "s"),
        "sim.events": (events_run, "count"),
        "sim.events_per_s": (ratio(events_run, wall["sim.run"]), "1/s"),
        "gc.top_heap_mb": (record["top_heap_mb"], "MB"),
    }
    for spec in SCENARIO_SPECS:
        m[f"weather.scenario.{spec}_s"] = (scen[spec], "s")
    for layer in LAYERS:
        m[f"self_s.{layer}"] = (selfs.get(layer, 0.0), "s")
    for call in CALLS:
        if call not in TRIVIAL_CALLS:
            m[f"gc.minor_mwords.{call}"] = (words[call] / 1e6, "Mwords")
            m[f"gc.major_gcs.{call}"] = (gcs[call], "count")
    return m


# ---------- run ----------


def code_revision():
    """The git revision when there is one, and a digest of the sources
    built, which identifies the code in a checkout without git."""
    rev = os.environ.get("CISP_GIT_REV") or os.environ.get("GITHUB_SHA")
    if not rev and (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = None
    digest = hashlib.sha256()
    for base in (ROOT / "lib", BENCH_DIR / "_ws"):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return rev or "unknown", digest.hexdigest()[:16]


def run(workload, seed, seconds, trace):
    out_dir = BUILD_DIR / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    out = out_dir / f"{stem}.json"
    trace_file = out_dir / f"{stem}.trace.jsonl"
    for f in (out, trace_file):
        if f.exists():
            f.unlink()
    cmd = [str(EXE), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--out", str(out)]
    if trace:
        cmd += ["--trace", str(trace_file)]
    proc = subprocess.Popen(cmd, cwd=WORKSPACE, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
    if code != 0 or not out.exists():
        sys.exit(f"perfbench: {workload} exited with code {code}")
    with open(out) as f:
        record = json.load(f)
    return record, (read_trace(trace_file) if trace else None)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    build()
    record, events = run(args.workload, args.seed, args.seconds, args.trace)
    attempted, failed, messages = assess(record["ops"], load_golden(args.workload, args.seed))
    for msg in messages:
        print(f"perfbench: failed op {msg}", file=sys.stderr)
    if not args.trace and not record["cycle_cpu_s"]:
        sys.exit(f"perfbench: {args.workload} completed no timed cycle")
    failed_share = failed / attempted
    metrics = per_layer(record, events, failed_share) if args.trace else end_to_end(record)

    rev, src = code_revision()
    run_record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rev": rev,
        "src_sha256": src,
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": record["jobs"],
        "ocaml": record["ocaml"],
        "host.calib_s": record["calib_s"],
        "failed_share": failed_share,
    }
    if not args.trace:
        # Wall time includes the host's steal; CPU time, reported as
        # the metric, does not.
        run_record["setup_wall_s"] = statistics.median(record["setup_wall_s"])
        run_record["op_wall_s"] = statistics.median(record["cycle_wall_s"])
    print(json.dumps({"run": run_record}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
