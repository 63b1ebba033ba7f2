#!/usr/bin/env python3
"""The repository benchmark: three TranSend workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload zipf_steady --seed 1 --seconds 30 --trace 0

Builds perfbench/ (the repository's src/ plus the sns_bench program) into
$CARGO_TARGET_DIR, default .bench_build, then runs sns_bench repeatedly for
--seconds, each run in a fresh process. With --trace 0 it prints the
end-to-end metrics, with --trace 1 the per-layer metrics and the tracing
overhead. The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
See perfbench/README.md for the workloads, the metrics and the output checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("zipf_steady", "zipf_overload", "stream_faults")
# Runs cycle through this many workload seeds derived from --seed, so a
# figure fixed by the seed does not hang on one draw.
SUB_SEEDS = 10
RUN_TIMEOUT_S = 120

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_req_per_wall_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("artifact_mb", "MB"),
    ("yield", "fraction"),
    ("harvest", "fraction"),
]
# Fixed by the workload seed rather than by host speed, so averaged over the
# sub-seeds' first runs; the timings are fast-side quartiles over all runs.
PER_SEED = ("peak_rss_mb", "artifact_mb", "yield", "harvest")
HIGHER_IS_BETTER = ("sim_req_per_wall_s", "sim.events_per_s")

ZONES = ["sim.schedule", "sim.cancel", "sim.fire", "sim.dispatch", "san.route", "san.deliver",
         "cache.ring_lookup", "cache.rebalance", "manager.beacon_fanin", "manager.policy_scan"]
STAGES = ["fe_accept_queue_wait", "fe_processing", "cache_lookup", "cache_write",
          "profile_lookup", "origin_fetch", "worker_queue_wait", "worker_service",
          "san_transit", "retry_backoff_idle", "manager_stub_lookup"]
EXPORTS = ["snapshot", "timeseries", "critical_path", "availability", "traces"]


def per_layer_units():
    """Every per-layer metric, in print order, with its unit."""
    units = [
        ("latency_p50_s", "s"), ("latency_p99_s", "s"), ("latency_samples", "count"),
        ("max_outage_s", "s"), ("offered", "count"), ("failed_requests", "count"),
        ("sim.events", "count"), ("sim.events_per_s", "1/s"),
        ("sim.events_per_request", "ratio"),
        ("san.messages_delivered", "count"), ("san.messages_per_request", "ratio"),
        ("san.datagrams_dropped", "count"),
        ("fe.deadline_expired", "count"), ("fe.cache_failover_reads", "count"),
        ("fe.task_retries", "count"), ("fe.task_timeouts", "count"),
        ("fe.retries_backoff", "count"), ("fe.requests_shed", "count"),
        ("cache.gets", "count"), ("cache.puts", "count"), ("cache.hit_rate", "ratio"),
        ("cache.expired_gets", "count"), ("cache.reads_per_request", "ratio"),
        ("cache.rebalance_bytes", "bytes"),
        ("worker.completed_tasks", "count"), ("worker.expired_tasks", "count"),
        ("worker.rejected_tasks", "count"), ("worker.useful_ratio", "ratio"),
        ("manager.spawns_initiated", "count"), ("manager.fe_restarts", "count"),
        ("content.generated_count", "count"), ("content.generated_mb", "MB"),
        ("workload.gen_s", "s"),
    ]
    units += [("export.%s_s" % e, "s") for e in EXPORTS]
    units += [("export.%s_bytes" % e, "bytes") for e in EXPORTS]
    units += [("obs.retained_traces", "count")]
    units += [("cp.%s.%s" % (s, q), "s") for s in STAGES for q in ("p50_s", "p99_s")]
    units += [("chaos.invariants_s", "s"), ("chaos.faults_injected", "count"),
              ("manager.quorum_losses", "count"), ("fencing.kills", "count")]
    for z in ZONES:
        units += [(z + ".count", "count"), (z + ".self_ms", "ms")]
    units += [("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.overhead_share", "ratio"),
              ("trace.phase_coverage", "ratio"), ("profiler.coverage", "ratio"),
              ("zones.self_share", "ratio"), ("zones.times_are_estimates", "bool")]
    return units


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures the build directory `out` once, then builds into it."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no repository sources next to perfbench/: %s/src is missing" % ROOT)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "4"], check=True, stdout=sys.stderr)


def sub_seed(seed, i):
    return (seed + i * 0x9E3779B97F4A7C15) % (1 << 64)


def run_once(binary, workload, seed, traced, out_dir):
    try:
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed), "--trace", "1" if traced else "0",
             "--out", out_dir], capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "seed %d: sns_bench ran longer than %d s" % (seed, RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None, "sns_bench exited %d without output: %s" % (proc.returncode,
                                                                   proc.stderr[-500:])
    result = json.loads(lines[-1])
    if proc.returncode != 0 or result["errors"]:
        why = "; ".join(result["errors"]) or "exit %d" % proc.returncode
        return result, "seed %d: %s" % (seed, why)
    return result, None


def validate(out, artifact):
    proc = subprocess.run([os.path.join(out, "validate_bench_artifact"), artifact],
                          capture_output=True, text=True)
    return None if proc.returncode == 0 else "artifact: " + (proc.stderr or proc.stdout).strip()


def fast_quartile(values, higher_is_better=False):
    """The host-timing statistic: the quartile on the fast side over runs.
    Interference on a shared host only ever slows a run, and it comes in
    bursts that slow some runs of an invocation; this quartile is steadier
    than the median."""
    if len(values) < 2:
        return values[0] if values else 0.0
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    return quartiles[2] if higher_is_better else quartiles[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    try:
        build(out)
    except (RuntimeError, subprocess.CalledProcessError, FileNotFoundError) as e:
        print("build failed: %s" % e, file=sys.stderr)
        return 2
    binary = os.path.join(out, "sns_bench")
    out_dir = os.path.join(out, "runs", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    traced = bool(args.trace)

    # Sub-seed i runs untraced, and in a traced run traced as well, until
    # --seconds have passed. An untraced run first runs every sub-seed once and
    # sub-seed 0 twice; a traced run compares each traced run with its
    # untraced twin. Either way some seed runs twice and must repeat exactly.
    errors = []
    untraced, traced_runs = [], []
    first = {}  # Sub-seed index -> its first run.
    start = time.monotonic()
    min_iterations = 1 if traced else SUB_SEEDS + 1
    i = 0
    while i < min_iterations or time.monotonic() - start < args.seconds:
        index = i % SUB_SEEDS
        seed = sub_seed(args.seed, index)
        for with_trace in ((False, True) if traced else (False,)):
            result, err = run_once(binary, args.workload, seed, with_trace, out_dir)
            if err:
                errors.append(err)
            if result is None:
                break
            result["_seed_index"] = index
            (traced_runs if with_trace else untraced).append(result)
            if index not in first:
                first[index] = result
            elif result["sim"] != first[index]["sim"]:
                errors.append("seed %d: simulated metrics differ between runs" % seed)
            if i == 0:
                err = validate(out, result["artifact"])
                if err:
                    errors.append(err)
        if errors:
            break
        i += 1

    base = first[0]["sim"] if 0 in first else {}
    compiler = untraced[0]["compiler"] if untraced else "?"
    build_type = untraced[0]["build_type"] if untraced else "?"
    print("# perfbench %s seed %d: %d untraced + %d traced runs in %.1f s; %s, %s build"
          % (args.workload, args.seed, len(untraced), len(traced_runs),
             time.monotonic() - start, compiler, build_type))
    print("# clients are simulated and open-loop; the SAN is modelled; load is never late")

    metrics = {}
    if not errors:
        host = lambda runs, key: fast_quartile([r["host"][key] for r in runs],
                                               key in HIGHER_IS_BETTER)
        if not traced:
            for name, unit in END_TO_END:
                if name in PER_SEED:
                    value = statistics.fmean({**first[k]["sim"], **first[k]["host"]}[name]
                                             for k in range(SUB_SEEDS))
                else:
                    value = host(untraced, name)
                metrics[name] = {"value": value, "unit": unit}
            # The client-latency figures saturate or vanish on some workloads, so
            # they are per-layer metrics; print them here too.
            units = dict(per_layer_units())
            for name in ("latency_p50_s", "latency_p99_s", "latency_samples", "max_outage_s",
                         "offered", "failed_requests"):
                print("%-28s %14.6g %s (seed %d)" % (name, base[name], units.get(name, "count"),
                                                     args.seed))
        else:
            metrics = layer_metrics(base, untraced, traced_runs, host)
        for name, m in metrics.items():
            print("%-28s %14.6g %s" % (name, m["value"], m["unit"]))
    for err in errors:
        print("# CHECK FAILED: %s" % err)

    attempted = len(untraced) + len(traced_runs)
    failed = len(errors)
    print(json.dumps({"correct": not errors, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if not errors else 1


def layer_metrics(base, untraced, traced_runs, host):
    offered = base["offered"]
    completed = base["worker.completed_tasks"]
    tasks = completed + base["worker.expired_tasks"] + base["worker.rejected_tasks"]
    values = dict(base)
    values["sim.events_per_request"] = base["sim.events"] / offered
    values["san.messages_per_request"] = base["san.messages_delivered"] / offered
    values["cache.reads_per_request"] = base["cache.gets"] / offered
    values["worker.useful_ratio"] = completed / tasks if tasks else 0.0
    for key in ["sim.events_per_s", "workload.gen_s", "chaos.invariants_s"] + [
            "export.%s_s" % e for e in EXPORTS]:
        values[key] = host(traced_runs, key)

    # Zone counts are exact and repeat for a seed; zone times are estimates.
    seed0 = [r for r in traced_runs if r["_seed_index"] == 0]
    zones0 = {z["name"]: z for z in seed0[0]["zones"]}
    for z in ZONES:
        values[z + ".count"] = zones0.get(z, {}).get("count", 0)
        values[z + ".self_ms"] = fast_quartile(
            [next((x["self_ns"] for x in r["zones"] if x["name"] == z), 0) / 1e6
             for r in traced_runs])

    # Tracing overhead: traced minus untraced wall time, paired by sub-seed.
    pairs = [(t["host"]["wall_s"], u["host"]["wall_s"]) for t, u in zip(traced_runs, untraced)]
    values["trace.wall_s"] = fast_quartile([t for t, _ in pairs])
    values["trace.overhead_s"] = statistics.median([t - u for t, u in pairs])
    values["trace.overhead_share"] = statistics.median([(t - u) / u for t, u in pairs])
    # Coverage from the benchmark's own phase spans, not Profiler::Coverage().
    values["trace.phase_coverage"] = statistics.median(
        [sum(v for k, v in r["host"].items() if k.startswith("phase.")) / r["host"]["wall_s"]
         for r in traced_runs])
    values["profiler.coverage"] = statistics.median(
        [r["host"]["profiler.coverage"] for r in traced_runs])
    shares = [sum(z["self_ns"] for z in r["zones"]) / 1e9 / r["host"]["profiler.measured_wall_s"]
              for r in traced_runs]
    values["zones.self_share"] = statistics.median(shares)
    values["zones.times_are_estimates"] = 1 if max(shares) > 1.0 else 0
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units()}


if __name__ == "__main__":
    sys.exit(main())
