#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, every metric by
name and unit, outputs checked on every run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke] [--out DIR]

Run from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (the library sources plus the v6t_perfbench
harness) into .bench_build/perfbench; later runs only re-check the build.

Each measured unit is a child process of v6t_perfbench, so peak RSS, CPU
time, context switches and faults are that unit's own (the child reads
its rusage before any correctness work). Layers are measured from
outside: spans around public calls, plus RunnerStats/ShardStats and the
final obs::Registry. With --trace 0 the last stdout line carries the
end-to-end metrics of BENCHMARK.json; with --trace 1 it carries the
per-layer metrics, and a Chrome trace JSON plus a per-layer self-time
table are written next to the run record.

Workloads (BENCHMARK.json says why each exists):
  paper_timeline  default config, in-memory capture, full report
  capture_flood   2.5x the volume spilled through an 8 MiB memtable
  query_mix       QueryEngine + Server over paper_timeline T1 captures

Correctness: a batch run's capture and report digests must equal those of
a reference the run computes itself at 1 shard from the same seed; every
served response must equal QueryEngine::evaluate's. A mismatch counts as
a failed operation and makes "correct" false.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("paper_timeline", "capture_flood", "query_mix")

END_TO_END_UNITS = {
    "time_to_report_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "query_p50_ms": "ms",
}

PER_LAYER_UNITS = {
    "core.plan_s": "s",
    "core.epochs_s": "s",
    "core.merge_s": "s",
    "core.barrier_wait_share": "ratio",
    "core.busy_imbalance": "ratio",
    "core.epochs_1shard_s": "s",
    "core.epoch_speedup": "ratio",
    "sim.events": "count",
    "sim.queue_high_water": "count",
    "bgp.deliveries": "count",
    "bgp.delivery_share": "ratio",
    "bgp.useful_delivery_ratio": "ratio",
    "fabric.packets_sent": "count",
    "fabric.dropped_no_route": "count",
    "telescope.packets_captured": "count",
    "telescope.spill_flush_s": "s",
    "telescope.spill_compact_s": "s",
    "telescope.spill_bytes": "bytes",
    "telescope.segments": "count",
    "telescope.stream_read_s": "s",
    "analysis.sessionize_s": "s",
    "analysis.index_build_s": "s",
    "analysis.taxonomy_s": "s",
    "analysis.sched_efficiency": "ratio",
    "analysis.stream_s": "s",
    "serve.query_p99_ms": "ms",
    "serve.max_rate_rps": "1/s",
    "serve.index_build_s": "s",
    "serve.evaluate_ms.table6": "ms",
    "serve.evaluate_ms.heavy_hitters": "ms",
    "serve.evaluate_ms.sources_seen": "ms",
    "serve.evaluate_ms.sources_unseen": "ms",
    "serve.evaluate_ms.reaction_delays": "ms",
    "serve.evaluate_ms.metrics": "ms",
    "serve.parse_us": "us",
    "serve.cache_get_us": "us",
    "serve.cache_hit_ratio": "ratio",
    "serve.generator_lag_ms": "ms",
    "proc.user_cpu_s": "s",
    "proc.sys_cpu_s": "s",
    "proc.vol_ctx_switches": "count",
    "proc.minor_faults": "count",
    "trace.overhead_s": "s",
}

# Layer readings a batch child reports itself (everything else is derived).
BATCH_LAYER_KEYS = [k for k in PER_LAYER_UNITS
                    if k.split(".")[0] in ("core", "sim", "bgp", "fabric",
                                           "telescope", "analysis", "proc")
                    and k not in ("core.epochs_1shard_s", "core.epoch_speedup")]
SERVE_LAYER_KEYS = [k for k in PER_LAYER_UNITS if k.startswith("serve.")]
PROC_KEYS = [k for k in PER_LAYER_UNITS if k.startswith("proc.")]

# time_to_report_s is the mean over a run's repetitions: one repetition
# lands in one of two modes (slab-pool mutex contention on or off in the
# nproc-shard epochs, ~1.2 s vs ~1.8 s on paper_timeline), and a median
# of ten such values jumps between them. Ten seeds spread 0.10-0.16 as a
# mean against 0.11-0.20 as a median.
#
# Workload seeds per run. A seed moves the capture size by up to ±25%
# (its heavy hitters), and every figure here follows the capture size:
# each input seed gets its own reference and children, and the run
# reports medians over all of them -- except peak_rss_mib, the mean over
# input seeds: a capture vector's capacity doubling makes one seed's peak
# jump in steps, and a median of a few such steps jumps with them.
INPUTS_PER_RUN = {"paper_timeline": 3, "capture_flood": 4, "query_mix": 3}
# Seconds one serve iteration (three cold dashboards, a warm-up and a
# reference-rate leg) takes; query_mix's iteration count is fixed from
# --seconds, so cache warmth at each leg is the same in every run.
SERVE_ITERATION_S = 2.5


# No single child may take longer than this (a run must end in 180 s).
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", str(cores())],
                   check=True, stdout=sys.stderr)
    binary = out / "v6t_perfbench"
    if not binary.is_file():
        raise BenchError(f"build produced no {binary}")
    return binary


def run_child(binary, args):
    """One measured unit; returns its JSON result line."""
    try:
        proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"v6t_perfbench {' '.join(args)} timed out") from e
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"v6t_perfbench {' '.join(args)} exited "
                         f"{proc.returncode}")
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        raise BenchError(f"v6t_perfbench {' '.join(args)} printed no result")
    return json.loads(lines[-1])


# ---------------------------------------------------------------- provenance

def provenance(binary, args, config_hash):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    version = run_child(binary, ["version"])
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    # The checkout the benchmark runs in need not be a git repository, so
    # the library sources are identified by content as well.
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return {
        "nproc": cores(),
        "cpu_model": cpu,
        "compiler": version["compiler"],
        "build_type": version["build_type"],
        "cxx_flags": version["cxx_flags"].strip(),
        "git_commit": commit,
        "source_sha256": h.hexdigest(),
        "seed": args.seed,
        "input_seeds": input_seeds(args),
        "workload": args.workload,
        "config_hash": config_hash,
        "smoke": args.smoke,
        "run_seconds": args.seconds,
    }


# ------------------------------------------------------------------ tracing

def self_times(spans):
    """Per-span self time: duration minus the union of its children."""
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(int(s["parent"]), []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        last_end = s["start"]
        for c in sorted(children.get(i, []), key=lambda c: spans[c]["start"]):
            start = max(spans[c]["start"], last_end)
            end = min(spans[c]["end"], s["end"])
            if end > start:
                covered += end - start
                last_end = end
        out.append(max(0.0, s["end"] - s["start"] - covered))
    return out


def layer_of(name):
    """Span name without its telescope suffix ("analysis.taxonomy.T1")."""
    parts = name.split(".")
    if parts[-1] in ("T1", "T2", "T3", "T4"):
        parts = parts[:-1]
    return ".".join(parts)


def write_trace(units, path):
    """Chrome trace-event JSON (one pid per child process) and the
    per-layer table: total and self seconds, summed over every unit."""
    events = []
    table = {}
    for pid, (label, spans) in enumerate(units, start=1):
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "args": {"name": label}})
        for s, self_s in zip(spans, self_times(spans)):
            events.append({"ph": "X", "name": s["name"], "pid": pid, "tid": 1,
                           "ts": s["start"] * 1e6,
                           "dur": (s["end"] - s["start"]) * 1e6,
                           "args": {"parent": int(s["parent"]),
                                    "self_s": self_s}})
            row = table.setdefault(layer_of(s["name"]),
                                   {"total_s": 0.0, "self_s": 0.0, "count": 0})
            row["total_s"] += s["end"] - s["start"]
            row["self_s"] += self_s
            row["count"] += 1
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    return table


# ---------------------------------------------------------------- workloads

def child_common(args, work, seed):
    common = ["--workload", args.workload, "--seed", str(seed),
              "--work", str(work), "--cores", str(cores())]
    if args.smoke:
        common.append("--smoke")
    return common


def input_seeds(args):
    """Workload seeds of one run: K*s .. K*s+K-1 (see INPUTS_PER_RUN), or
    --seed itself on the smoke scale."""
    k = 1 if args.smoke else INPUTS_PER_RUN[args.workload]
    return [args.seed] if k == 1 else [args.seed * k + i for i in range(k)]


def run_batch(binary, args, work):
    """Per input seed: a reference at 1 shard, then measured children at
    nproc shards for that seed's share of --seconds. The first reference
    also serves its own T1 result."""
    seeds = input_seeds(args)
    # At least three measured children per run (four when traced, half of
    # them traced), spread over the input seeds.
    total = 4 if args.trace else 3
    min_reps = max(2 if args.trace else 1, -(-total // len(seeds)))
    refs, reps = [], []
    for k, seed in enumerate(seeds):
        common = child_common(args, work, seed)
        extra = ["--iterations", str(serve_iterations(args))] if k == 0 else []
        if args.trace:
            extra += ["--trace"] + (["--ladder"] if k == 0 else [])
        ref = run_child(binary, ["batch", "--shards", "1"] + common + extra)
        if args.corrupt_reference:
            ref["report_digest"] = "corrupted-" + ref["report_digest"]
        refs.append(ref)
        mine = []
        start = time.monotonic()
        budget = args.seconds / len(seeds)
        while True:
            traced = args.trace and len(mine) % 2 == 1
            rep = run_child(binary, ["batch", "--shards", str(cores())] +
                            common + (["--trace"] if traced else []))
            rep["traced"] = traced
            rep["ok"] = (rep["capture_digests"] == ref["capture_digests"] and
                         rep["report_digest"] == ref["report_digest"])
            mine.append(rep)
            elapsed = time.monotonic() - start
            if len(mine) >= min_reps and elapsed * (1 + 1 / len(mine)) > budget:
                break
        reps += mine

    serve = refs[0]["serve"]
    attempted = len(reps) + refs[0]["serve_attempted"]
    failed = sum(1 for r in reps if not r["ok"]) + refs[0]["serve_failed"]
    untraced = [r for r in reps if not r["traced"]]
    e2e = {
        "time_to_report_s": statistics.mean(r["time_to_report_s"]
                                            for r in untraced),
        # One runner construction per measured child, as in v6t_run; the
        # median is over every untraced child of the run (at least three).
        "setup_s": statistics.median(r["setup_s"] for r in untraced),
        "peak_rss_mib": statistics.mean(
            statistics.median(r["peak_rss_mib"] for r in untraced
                              if r["seed"] == seed)
            for seed in seeds),
        "query_p50_ms": serve["query_p50_ms"],
    }
    layers = None
    if args.trace:
        traced = [r for r in reps if r["traced"]]
        layers = {k: statistics.median(r[k] for r in traced)
                  for k in BATCH_LAYER_KEYS}
        layers.update({k: serve[k] for k in SERVE_LAYER_KEYS})
        layers["core.epochs_1shard_s"] = statistics.median(
            r["core.epochs_s"] for r in refs)
        layers["core.epoch_speedup"] = (layers["core.epochs_1shard_s"] /
                                        layers["core.epochs_s"])
        layers["trace.overhead_s"] = (
            statistics.mean(r["time_to_report_s"] for r in traced) -
            e2e["time_to_report_s"])
    units = [(f"reference (1 shard, seed {r['seed']})", r.get("spans", []))
             for r in refs]
    units += [(f"measured {i} ({r['shards']} shards, seed {r['seed']})",
               r.get("spans", [])) for i, r in enumerate(reps) if r["traced"]]
    details = {
        "references": [{k: v for k, v in r.items() if k != "spans"}
                       for r in refs],
        "reps": [{k: v for k, v in r.items() if k != "spans"} for r in reps],
    }
    return e2e, layers, attempted, failed, refs[0]["config_hash"], units, details


def serve_iterations(args):
    """One for a batch workload's serve leg and for smoke runs; query_mix's
    count follows --seconds."""
    if args.smoke or args.workload != "query_mix":
        return 1
    return max(1, round(args.seconds / SERVE_ITERATION_S))


def run_query_mix(binary, args, work):
    """paper_timeline T1 captures, one per input seed, generated before
    timing, each served by its own child: one set-up, then a fixed number
    of iterations. Separate processes also keep a second load's allocator
    reuse out of the peak RSS."""
    seeds = input_seeds(args)
    children = len(seeds)
    gens, runs = [], []
    for k, seed in enumerate(seeds):
        capture = work / f"T1-{k}.v6tcap"
        gens.append(run_child(binary, ["batch", "--shards", str(cores()),
                                       "--dump-t1", str(capture)] +
                              child_common(args, work, seed)))
    serve_args = []
    for k, seed in enumerate(seeds):
        serve_args.append(
            ["serve", "--workload", args.workload, "--seed", str(seed),
             "--capture", str(work / f"T1-{k}.v6tcap"), "--iterations",
             str(max(1, serve_iterations(args) // children)),
             "--cores", str(cores())] +
            (["--smoke"] if args.smoke else []) +
            (["--corrupt-reference"] if args.corrupt_reference else []))
        runs.append(run_child(binary, serve_args[-1]))
    serves = [r["serve"] for r in runs]
    e2e = {
        "time_to_report_s": statistics.mean(
            t for s in serves for t in s["cold_report_samples_s"]),
        "setup_s": statistics.median(s["setup_s"] for s in serves),
        "peak_rss_mib": statistics.mean(r["peak_rss_mib"] for r in runs),
        "query_p50_ms": statistics.median(s["query_p50_ms"] for s in serves),
    }
    attempted = sum(r["serve_attempted"] for r in runs)
    failed = sum(r["serve_failed"] for r in runs)
    layers = None
    units = []
    details = {"captures": [{k: v for k, v in g.items() if k != "spans"}
                            for g in gens],
               "serve": [{k: v for k, v in r.items() if k != "spans"}
                         for r in runs]}
    gen = gens[0]
    if args.trace:
        ref = run_child(binary, ["batch", "--shards", "1", "--trace"] +
                        child_common(args, work, seeds[0]))
        traced = run_child(binary, serve_args[0] + ["--trace", "--ladder"])
        attempted += traced["serve_attempted"] + 1
        failed += traced["serve_failed"]
        # The served capture must be the determinism reference's.
        if ref["capture_digests"] != gen["capture_digests"]:
            failed += 1
        tserve = traced["serve"]
        layers = {k: gen[k] for k in BATCH_LAYER_KEYS}
        layers.update({k: tserve[k] for k in SERVE_LAYER_KEYS})
        layers.update({k: traced[k] for k in PROC_KEYS})
        layers["core.epochs_1shard_s"] = ref["core.epochs_s"]
        layers["core.epoch_speedup"] = ref["core.epochs_s"] / gen["core.epochs_s"]
        layers["trace.overhead_s"] = (tserve["time_to_report_s"] -
                                      serves[0]["time_to_report_s"])
        units = [(f"reference (1 shard, seed {seeds[0]})", ref.get("spans", [])),
                 ("serve (traced)", traced.get("spans", []))]
        details["traced_serve"] = {k: v for k, v in traced.items() if k != "spans"}
    return e2e, layers, attempted, failed, gen["config_hash"], units, details


# --------------------------------------------------------------------- main

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs: every workload in seconds")
    p.add_argument("--out", default=None,
                   help="directory for the run record (default: "
                        ".bench_build/perfbench/results)")
    # Test hook: compare against a deliberately wrong reference, so the
    # correctness gate must trip.
    p.add_argument("--corrupt-reference", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    # A terminated run still kills and reaps its child (subprocess.run does
    # on any exception) and removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        binary = build()
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2
    work = build_dir() / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = run_query_mix if args.workload == "query_mix" else run_batch
        e2e, layers, attempted, failed, config_hash, units, details = \
            runner(binary, args, work)
        prov = provenance(binary, args, config_hash)
    except (BenchError, KeyError, ValueError, OSError) as e:
        log(f"run failed: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    correct = failed == 0 and all(
        isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
        for m in metrics.values())

    out_dir = Path(args.out) if args.out else build_dir() / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "correct": correct,
              "attempted": attempted, "failed": failed,
              "end_to_end": e2e, "provenance": prov, "details": details}
    if args.trace:
        table = write_trace(units, out_dir / f"{stem}.trace.json")
        record["per_layer"] = layers
        record["layer_table"] = table
        print("layer                              total_s     self_s  count")
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{name:32s} {row['total_s']:9.4f} {row['self_s']:9.4f} "
                  f"{row['count']:6d}")
        print(f"tracing overhead: {layers['trace.overhead_s']:+.4f} s "
              "(traced minus untraced time_to_report_s)")
    with open(out_dir / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1)

    print("# provenance " + json.dumps(prov, sort_keys=True))
    for k, m in metrics.items():
        print(f"{k} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
