#!/usr/bin/env python3
"""The repository's benchmark: simulator speed and modelled aggregation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Builds perfbench/ (which compiles the checkout's src/) into .bench_build/,
runs one workload for about S seconds in one single-threaded process, checks
every task result against an independent reference fold and prints, as the
last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (and
writes the run's spans to .bench_build/spans/). A human-readable table goes
to stderr. The exit code is 0 only when every check passed. See
perfbench/README.md for the workloads and what each metric predicts.
"""

import argparse
import json
import os
import subprocess
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "ask_perfbench")
WORKLOADS = ["uniform_fabric", "zipf_wordcount", "lossy_tenants"]

# (name, unit, better, exact). "exact" metrics repeat bit-for-bit for one
# seed: the benchmark fails if two repetitions disagree, so a later change
# may rest a count claim on them. The rest are host-time measurements.
END_TO_END = [
    ("wall_s", "s", "lower", False),
    ("ns_per_sim_packet", "ns", "lower", False),
    ("setup_s", "s", "lower", False),
    ("peak_rss_mb", "MB", "lower", False),
    ("sim_makv_per_s", "MAKV/s", "higher", True),
    ("jct_ms", "ms", "lower", True),
    ("task_latency_p50_ms", "ms", "lower", True),
    ("task_latency_p90_ms", "ms", "lower", True),
    ("receiver_pkt_ratio", "ratio", "lower", True),
]

PER_LAYER = [
    ("sim.events", "count", "lower", True),
    ("sim.ns_per_event", "ns", "lower", False),
    ("sim.other_s", "s", "lower", False),
    ("net.packets_delivered", "count", "lower", True),
    ("net.packets_dropped", "count", "lower", True),
    ("net.drop_ratio", "ratio", "lower", True),
    ("net.bytes_sent", "B", "lower", True),
    ("net.rtt_p50_us", "us", "lower", True),
    ("net.rtt_p99_us", "us", "lower", True),
    ("switch.process_s", "s", "lower", False),
    ("switch.passes", "count", "lower", True),
    ("switch.ns_per_pass", "ns", "lower", False),
    ("switch.absorb_ratio", "ratio", "higher", True),
    ("switch.tuples_collided", "count", "lower", True),
    ("switch.packets_acked", "count", "higher", True),
    ("switch.packets_forwarded", "count", "lower", True),
    ("switch.residual_forwarded", "count", "lower", True),
    ("switch.duplicates", "count", "lower", True),
    ("switch.stale_dropped", "count", "lower", True),
    ("switch.swaps", "count", "lower", True),
    ("switch.long_packets", "count", "lower", True),
    ("host.data_packets_sent", "count", "lower", True),
    ("host.tuples_per_packet", "tuples", "higher", True),
    ("host.long_packets_sent", "count", "lower", True),
    ("host.retransmissions", "count", "lower", True),
    ("host.retransmit_ratio", "ratio", "lower", True),
    ("host.tuples_aggregated_locally", "count", "lower", True),
    ("host.duplicates_received", "count", "lower", True),
    ("host.swap_requests", "count", "lower", True),
    ("host.fetch_tuples", "count", "lower", True),
    ("host.core_occupancy_mean", "ratio", "lower", True),
    ("host.cwnd_mean", "packets", "higher", True),
    ("builder.ns_per_packet", "ns", "lower", False),
    ("builder.tuples_per_packet", "tuples", "higher", True),
    ("wal.appends", "count", "lower", True),
    ("wal.bytes", "B", "lower", True),
    ("wal.bytes_per_tuple", "B", "lower", True),
    ("wal.replay_s", "s", "lower", False),
    ("mgmt.rpcs", "count", "lower", True),
    ("mgmt.retries", "count", "lower", True),
    ("mgmt.giveups", "count", "lower", True),
    ("recovery.channels_fenced", "count", "lower", True),
    ("recovery.regions_reinstalled", "count", "lower", True),
    ("recovery.tasks_reset", "count", "lower", True),
    ("recovery.streams_replayed", "count", "lower", True),
    ("recovery.bypass_conversions", "count", "lower", True),
    ("tasks.latency_samples", "count", "higher", True),
    ("trace.overhead_ratio", "ratio", "lower", False),
]

# Values the traced repetitions add; the sampler and the standalone
# builder pass are deterministic too, so they must agree across traced runs.
TRACED_EXACT = ["host.core_occupancy_mean", "host.cwnd_mean",
                "builder.tuples_per_packet", "builder.packets",
                "wal.records_replayed"]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure and build ask_perfbench; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "ask", "cluster.h")):
        log("perfbench: no ASK sources next to perfbench/ (expected "
            "src/ask/cluster.h); cannot build")
        return False
    os.makedirs(BUILD, exist_ok=True)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "ask_perfbench", "-j4"],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           cwd=ROOT, check=False)
        if r.returncode != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            return False
    return True


def run_binary(args, extra):
    env = {k: v for k, v in os.environ.items()
           if k not in ("ASK_SIM_THREADS", "ASK_SEED", "ASK_VERIFY_ACCESSES")}
    # Pin glibc's mmap threshold at its default: left dynamic, it grows
    # after the first large free, and whether a set-up then page-faults
    # its 40 MB of switch registers again flips from run to run.
    env["GLIBC_TUNABLES"] = "glibc.malloc.mmap_threshold=131072"
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                       env=env, cwd=ROOT, timeout=170, check=False, text=True)
    if r.returncode != 0:
        raise RuntimeError(f"ask_perfbench exited with {r.returncode}")
    lines = [ln for ln in r.stdout.splitlines() if ln.strip()]
    return json.loads(lines[-1])


def summarize(raw, trace):
    """Turn raw repetitions into metrics; returns (metrics, problems)."""
    problems = []
    reps = raw["reps"]
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]

    for r in reps:
        for f in r["failures"]:
            problems.append(f)
    exact = reps[0]["exact"]
    for i, r in enumerate(reps[1:], 1):
        if r["exact"] != exact:
            diff = sorted(k for k in set(exact) | set(r["exact"])
                          if exact.get(k) != r["exact"].get(k))
            kind = "traced" if r["traced"] else "plain"
            problems.append(f"repetition {i} ({kind}) disagrees with "
                            f"repetition 0 on exact metrics: {diff}")
    for key in TRACED_EXACT:
        vals = {json.dumps(r["host"].get(key)) for r in traced}
        if len(vals) > 1:
            problems.append(f"traced repetitions disagree on {key}")

    # Percentiles need at least ten samples beyond them.
    n = exact["tasks.latency_samples"]
    if n - (-(-9 * n // 10)) < 10:
        problems.append(f"only {n} task latencies: too few for a p90")

    walls = [r["wall_s"] for r in plain]
    m = {}
    if not trace:
        m["wall_s"] = median(walls)
        m["ns_per_sim_packet"] = median(
            [r["wall_s"] * 1e9 / r["host"]["packets_delivered"]
             for r in plain])
        m["setup_s"] = median(raw["setup_only_s"])
        m["peak_rss_mb"] = raw["peak_rss_mb"]
        for name, _, _, is_exact in END_TO_END:
            if is_exact:
                m[name] = exact.get(name, 0.0)
        catalogue = END_TO_END
    else:
        for name, _, _, is_exact in PER_LAYER:
            if is_exact and name in exact:
                m[name] = exact[name]
        t0 = traced[0]["host"]
        for key in ("host.core_occupancy_mean", "host.cwnd_mean",
                    "builder.tuples_per_packet"):
            m[key] = t0[key]
        m["sim.ns_per_event"] = median(
            [r["wall_s"] * 1e9 / r["host"]["events"] for r in plain])
        m["sim.other_s"] = median(
            [r["wall_s"] - r["host"]["switch.process_s"] for r in traced])
        m["switch.process_s"] = median(
            [r["host"]["switch.process_s"] for r in traced])
        m["switch.ns_per_pass"] = median(
            [r["host"]["switch.process_s"] * 1e9 / r["exact"]["switch.passes"]
             for r in traced])
        m["builder.ns_per_packet"] = median(
            [r["host"]["builder.ns_per_packet"] for r in traced])
        m["wal.replay_s"] = median(
            [r["host"]["wal.replay_s"] for r in traced])
        m["trace.overhead_ratio"] = (
            median([r["wall_s"] for r in traced]) / median(walls))
        catalogue = PER_LAYER

    metrics = {}
    for name, unit, _, _ in catalogue:
        if name not in m:
            problems.append(f"metric {name} was not measured")
            continue
        metrics[name] = {"value": m[name], "unit": unit}
    if not trace:
        for name, value in metrics.items():
            if not value["value"] > 0:
                problems.append(f"end-to-end metric {name} is "
                                f"{value['value']}, expected > 0")
    return metrics, problems


def report(args, raw, metrics, problems):
    reps = raw["reps"]
    log(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{raw['tasks']} tasks, {raw['tuples']} tuples, "
        f"{sum(not r['traced'] for r in reps)} plain + "
        f"{sum(r['traced'] for r in reps)} traced repetitions, "
        f"{len(raw['setup_only_s'])} set-up-only repetitions")
    for name, v in metrics.items():
        log(f"  {name:32s} {v['value']:>16.6g} {v['unit']}")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    log(f"  task_fail_frac {failed}/{attempted}")
    for p in problems[:20]:
        log("  FAIL:", p)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


def selfcheck():
    """Tiny-scale check of the benchmark itself: every metric is printed
    with its unit, and a corrupted reference fold fails the run."""
    ok = True
    bench_file = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(bench_file):
        with open(bench_file, encoding="utf-8") as f:
            spec = json.load(f)
        for key, catalogue in (("end_to_end", END_TO_END),
                               ("per_layer", PER_LAYER)):
            want = [(n, u, b) for n, u, b, _ in catalogue]
            got = [(x["name"], x["unit"], x["better"]) for x in spec[key]]
            if want != got:
                log(f"selfcheck: BENCHMARK.json {key} differs from run.py")
                ok = False
        if [w["name"] for w in spec["workloads"]] != WORKLOADS:
            log("selfcheck: BENCHMARK.json workloads differ from run.py")
            ok = False
    me = [sys.executable, os.path.abspath(__file__)]
    for workload in WORKLOADS:
        for trace, catalogue in ((0, END_TO_END), (1, PER_LAYER)):
            cmd = me + ["--workload", workload, "--seed", "7", "--seconds",
                        "1", "--trace", str(trace), "--scale", "0.05"]
            r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               check=False)
            last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else "{}"
            out = json.loads(last)
            printed = {k: v.get("unit") for k, v in
                       out.get("metrics", {}).items()}
            want = {n: u for n, u, _, _ in catalogue}
            good = r.returncode == 0 and out.get("correct") and printed == want
            log(f"selfcheck: {workload} trace={trace}: "
                f"{'ok' if good else 'FAILED'}")
            ok = ok and good
        cmd = me + ["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", "0", "--scale", "0.05", "--corrupt-reference"]
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, check=False)
        out = json.loads(r.stdout.strip().splitlines()[-1])
        caught = r.returncode != 0 and not out["correct"] and out["failed"] > 0
        log(f"selfcheck: {workload} corrupted reference "
            f"{'caught' if caught else 'NOT caught'}")
        ok = ok and caught
    log("selfcheck:", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="input volume factor (the self-check uses 0.05)")
    p.add_argument("--corrupt-reference", action="store_true",
                   help="perturb one reference result; the run must fail")
    p.add_argument("--selfcheck", action="store_true")
    args = p.parse_args()

    if not build():
        return 2
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        p.error("--workload is required")

    extra = ["--scale", str(args.scale)]
    if args.corrupt_reference:
        extra.append("--corrupt-reference")
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        extra += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-{args.seed}.json")]
    try:
        raw = run_binary(args, extra)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            IndexError) as e:
        log("perfbench:", e)
        return 3
    metrics, problems = summarize(raw, args.trace)
    return report(args, raw, metrics, problems)


if __name__ == "__main__":
    sys.exit(main())
