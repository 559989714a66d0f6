"""The simulator's benchmark: one workload per invocation, its rounds
run in fresh worker processes.

    python3 perfbench/run.py --workload d2d-small --seed 1 --seconds 25 \\
        --trace 0

``--trace 0`` runs untraced rounds back to back for ``--seconds``,
spread over three or four worker processes, and reports the end-to-end
metrics as medians.  ``--trace 1`` makes the separate traced run:
untraced rounds for the wall-time base, one round under the profiler
(self time per layer) and one with a metrics session (modelled
counters).  The last line of standard output is the JSON result; see
README.md for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import SUM_TOLERANCE

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
FINGERPRINTS = SCRATCH / "fingerprints.json"

WORKLOADS = ("d2d-small", "swift-mix", "hdfs-bulk", "d2d-observed")
MIN_WORKERS = 3          # worker processes in a --trace 0 run ...
MAX_WORKERS = 4          # ... each given --seconds / MAX_WORKERS
TRACED_PLAIN_S = 8       # untraced rounds beside the traced ones
DEADLINE_S = 170         # the whole invocation ends within this
# Must stay in step with repro.host.costs.CAT (the CPU-busy categories).
CPU_CATEGORIES = ("application", "data-copy", "device-control",
                  "filesystem", "gpu-control", "gpu-data-copy", "hash",
                  "hdc-driver", "kernel-other", "network",
                  "request-completion")
# These modelled counters must be non-zero on these workloads, which do
# host CPU work and NVMe commands by construction.
NONZERO_COUNTERS = ("host.cpu_busy_ns", "devices.nvme.commands")
NONZERO_ON = ("swift-mix", "hdfs-bulk")


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed
    operation, which is reported in the result)."""


def source_digest() -> str:
    """Identifies the simulator's and the benchmark's source, standing
    in for the commit."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "repro").rglob("*.py"),
                        *BENCH_DIR.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def spawn(workload: str, seed: int, mode: str, seconds: float,
          deadline: float) -> dict:
    """Run rounds for ``seconds`` (at least one) in a fresh worker
    process and return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, str(BENCH_DIR / "worker.py"),
               "--workload", workload, "--seed", str(seed), "--mode", mode,
               "--seconds", str(seconds), "--scratch", str(SCRATCH)]
    started = time.monotonic()
    proc = subprocess.Popen(command, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{mode} round of {workload} ran past the deadline")
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"{mode} worker for {workload} exited with "
                         f"{proc.returncode}")
    worker = json.loads(stdout.strip().splitlines()[-1])
    worker["setup_s"] = worker["rounds"][0]["ready"] - started
    print(f"# {mode} worker: setup={worker['setup_s']:.3f}s "
          f"rss={worker['peak_rss_mb']:.1f}MB", flush=True)
    for report in worker["rounds"]:
        print(f"#   round ops={report['planned_ops']} "
              f"failed={report['failed_ops']} wall={report['wall_s']:.3f}s "
              f"fingerprint={report['fingerprint']}", flush=True)
        for problem in report["problems"]:
            print(f"#   check failed: {problem}", flush=True)
    return worker


def check_fingerprints(workload: str, seed: int, reports: list) -> list:
    """Every round of one seed must produce the same simulated outputs,
    in this run and in earlier runs of the same source."""
    problems = []
    prints = {report["fingerprint"] for report in reports}
    if len(prints) != 1:
        problems.append(f"fingerprints differ between rounds: "
                        f"{sorted(prints)}")
    recorded = (json.loads(FINGERPRINTS.read_text())
                if FINGERPRINTS.exists() else {})
    key = f"{workload}/{seed}/{source_digest()}"
    for value in sorted(prints - {"none"}):  # "none": the round raised
        previous = recorded.setdefault(key, value)
        if previous != value:
            problems.append(f"fingerprint {value} differs from {previous} "
                            f"recorded by an earlier run of this source")
    tmp = FINGERPRINTS.with_suffix(".tmp")
    tmp.write_text(json.dumps(recorded, indent=1, sort_keys=True))
    os.replace(tmp, FINGERPRINTS)
    print(f"# fingerprint {workload} seed={seed}: {' '.join(sorted(prints))}",
          flush=True)
    return problems


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(workload: str, seed: int, seconds: float, start: float):
    """Untraced rounds for ``seconds``: the end-to-end metrics."""
    workers = []
    while len(workers) < MAX_WORKERS:
        began = time.monotonic()
        workers.append(spawn(workload, seed, "plain", seconds / MAX_WORKERS,
                             start + DEADLINE_S))
        took = time.monotonic() - began
        if (len(workers) >= MIN_WORKERS
                and time.monotonic() - start + took > seconds):
            break
    reports = [report for worker in workers for report in worker["rounds"]]
    metrics = {
        "ops_per_s": metric(statistics.median(
            (r["planned_ops"] - r["failed_ops"]) / r["wall_s"]
            for r in reports), "ops/s"),
        "setup_s": metric(statistics.median(w["setup_s"] for w in workers),
                          "s"),
        "peak_rss_mb": metric(statistics.median(
            w["peak_rss_mb"] for w in workers), "MB"),
    }
    return reports, metrics


def traced_run(workload: str, seed: int, start: float):
    """The separate traced run: the per-layer metrics."""
    deadline = start + DEADLINE_S
    plain = spawn(workload, seed, "plain", TRACED_PLAIN_S, deadline)["rounds"]
    profiled = spawn(workload, seed, "profile", 0, deadline)["rounds"][0]
    metered = spawn(workload, seed, "metered", 0, deadline)["rounds"][0]
    reports = plain + [profiled, metered]
    if any(r["fingerprint"] == "none" for r in reports):
        return reports, {}, ["a round raised; no per-layer numbers"]

    problems = []
    profile = profiled["profile"]
    counters = metered["counters"]
    untraced_s = statistics.median(r["wall_s"] for r in plain)
    events = plain[0]["sim_events"]

    attributed = sum(profile["self_s"].values())
    total_s = profile["total_s"]
    if abs(attributed - total_s) > SUM_TOLERANCE * total_s:
        problems.append(f"layer self times sum to {attributed:.4f}s, "
                        f"profiled total is {total_s:.4f}s")
    if profile["step_calls"] != profiled["events_in_run"]:
        problems.append(f"profiler saw {profile['step_calls']} "
                        f"Simulator.step calls, the event counter "
                        f"{profiled['events_in_run']}")
    for name in NONZERO_COUNTERS if workload in NONZERO_ON else ():
        if not counters[name] > 0:
            problems.append(f"modelled counter {name} is {counters[name]}")

    metrics = {}
    for layer, self_s in profile["self_s"].items():
        metrics[f"{layer}.self_s"] = metric(self_s, "s")
        metrics[f"{layer}.share"] = metric(profile["share"][layer],
                                           "fraction")
        metrics[f"{layer}.calls_in"] = metric(profile["calls_in"][layer],
                                              "count")
    metrics["sim.events"] = metric(events, "count")
    metrics["sim.host_ns_per_event"] = metric(untraced_s / events * 1e9, "ns")
    metrics["sim.simulated_s"] = metric(plain[0]["sim_simulated_s"], "sim_s")
    units = {"pcie.tx_bytes": "bytes", "pcie.doorbells": "count",
             "pcie.inflight_bytes_mean": "bytes",
             "devices.nvme.commands": "count",
             "devices.nvme.sq_depth_mean": "entries",
             "devices.nic.wire_tx_bytes": "bytes",
             "devices.nic.tx_ring_occupancy_mean": "descriptors",
             "devices.gpu.copy_busy_mean": "engines",
             "devices.gpu.exec_busy_mean": "engines",
             "core.scoreboard_issued": "count",
             "core.ddr3_bytes_peak": "bytes",
             "host.cpu_busy_ns": "sim_ns", "host.cpu_util": "fraction"}
    for name, unit in units.items():
        metrics[name] = metric(counters[name], unit)
    for category in CPU_CATEGORIES:
        metrics[f"host.cpu_busy_ns.{category}"] = metric(
            counters.get(f"host.cpu_busy_ns.{category}", 0.0), "sim_ns")
    exports = plain[0]["exports"]
    for name, unit in (("trace.events", "count"),
                       ("trace.export_bytes", "bytes"),
                       ("metrics.rows", "count"),
                       ("metrics.export_bytes", "bytes")):
        metrics[name] = metric(exports[name], unit)
    outputs = plain[0]["sim_outputs"]
    metrics["apps.sim_gbps"] = metric(outputs["apps.sim_gbps"], "sim_Gbps")
    metrics["apps.sim_req_p50_us"] = metric(outputs["apps.sim_req_p50_us"],
                                            "sim_us")
    metrics["apps.sim_req_p99_us"] = metric(outputs["apps.sim_req_p99_us"],
                                            "sim_us")
    metrics["run.untraced_wall_s"] = metric(untraced_s, "s")
    metrics["run.profiled_wall_s"] = metric(profiled["wall_s"], "s")
    metrics["run.profile_overhead_x"] = metric(
        profiled["wall_s"] / untraced_s, "ratio")
    return reports, metrics, problems


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.monotonic()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    try:
        if args.trace:
            reports, metrics, problems = traced_run(args.workload, args.seed,
                                                    start)
        else:
            reports, metrics = timed_run(args.workload, args.seed,
                                         args.seconds, start)
            problems = []
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems += check_fingerprints(args.workload, args.seed, reports)
    for problem in problems:
        print(f"# check failed: {problem}", flush=True)
    attempted = sum(r["planned_ops"] for r in reports)
    failed = sum(r["failed_ops"] for r in reports)
    correct = not problems and not any(r["problems"] for r in reports)
    print(f"# {args.workload}: {len(reports)} rounds, error_rate="
          f"{failed / attempted:.4f}, correct={correct}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
