"""Run rounds of one workload in this (fresh) process and print one
JSON line describing them.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``::

    python3 perfbench/worker.py --workload d2d-small --seed 1 \\
        --mode plain --seconds 7 --scratch .perfbench

Modes: ``plain`` (untraced, timed), ``profile`` (the timed part under
``cProfile``, self time split by layer) and ``metered`` (a
``MetricsSession`` installed, modelled counters read from its exported
rows).  Rounds run back to back until ``--seconds`` is used up; there is
always at least one.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import pstats
import resource
import sys
import time
import traceback

import repro
from repro.metrics import MetricsSession, csv_lines

from layers import LayerProfile, RowCounters, parse_rows
from workloads import WORKLOADS, sim_events

BENCH_ROOT = os.path.dirname(os.path.abspath(__file__))
SRC_ROOT = os.path.dirname(os.path.abspath(repro.__file__))


def fingerprint(record: dict) -> str:
    """Hash of every simulated statistic a round produced."""
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def modelled_counters(session: MetricsSession) -> dict:
    """The modelled work counters, read from the session's exported
    rows (never from its ``Metric`` objects)."""
    rows = RowCounters(parse_rows(csv_lines(session)))
    counters = {
        "pcie.tx_bytes": rows.final_sum("pcie.port.tx_bytes"),
        "pcie.doorbells": rows.final_sum("pcie.port.doorbells"),
        "pcie.inflight_bytes_mean": rows.time_mean("pcie.link.inflight_bytes"),
        "devices.nvme.commands": rows.final_sum("nvme.commands"),
        "devices.nvme.sq_depth_mean": rows.time_mean("nvme.sq_depth"),
        "devices.nic.wire_tx_bytes": rows.final_sum("nic.wire_tx_bytes"),
        "devices.nic.tx_ring_occupancy_mean":
            rows.time_mean("nic.tx_ring_occupancy"),
        "devices.gpu.copy_busy_mean": rows.time_mean("gpu.copy_busy"),
        "devices.gpu.exec_busy_mean": rows.time_mean("gpu.exec_busy"),
        "core.scoreboard_issued": rows.final_sum("engine.scoreboard_issued"),
        "core.ddr3_bytes_peak": rows.peak("engine.ddr3_bytes_in_use"),
        "host.cpu_busy_ns": rows.final_sum("host.cpu.busy_ns"),
        "host.cpu_util": rows.final_mean("host.cpu.util"),
    }
    for category in rows.categories("host.cpu.busy_ns"):
        counters[f"host.cpu_busy_ns.{category}"] = rows.final_sum(
            "host.cpu.busy_ns", f"category={category}")
    return counters


def run_round(workload: str, seed: int, mode: str, scratch: str) -> dict:
    cls = WORKLOADS[workload]
    session = None
    if mode == "metered" and not cls.observed:
        session = MetricsSession(label=workload).install()
    round_ = cls(seed, scratch)
    if mode == "metered" and cls.observed:
        session = round_.metrics_session
    beds = [testbed for testbed, _ in round_.beds]
    events_before = sum(sim_events(testbed.sim) for testbed in beds)
    profiler = cProfile.Profile() if mode == "profile" else None
    out = {"workload": workload, "seed": seed, "mode": mode,
           "planned_ops": round_.planned_ops, "problems": []}

    out["ready"] = time.monotonic()
    started = time.perf_counter()
    try:
        if profiler is not None:
            profiler.enable()
        try:
            round_.run()
        finally:
            if profiler is not None:
                profiler.disable()
    except Exception as exc:  # every operation of the round fails
        out["wall_s"] = time.perf_counter() - started
        traceback.print_exc()
        out["problems"].append(f"round raised {exc!r}")
        out["failed_ops"] = round_.planned_ops
        out["fingerprint"] = "none"
        return out
    out["wall_s"] = time.perf_counter() - started

    out["events_in_run"] = (sum(sim_events(testbed.sim) for testbed in beds)
                            - events_before)
    app_problems = round_.app_problems()
    leak_problems = round_.drain()
    out["problems"] = round_.log.problems + app_problems + leak_problems
    out["failed_ops"] = round_.failed_ops(app_problems, leak_problems)
    out["fingerprint"] = fingerprint(round_.record())
    out["sim_events"] = sum(sim_events(testbed.sim) for testbed in beds)
    out["sim_simulated_s"] = sum(testbed.sim.now for testbed in beds) / 1e9
    out["sim_outputs"] = round_.sim_outputs()
    out["exports"] = round_.exports
    if session is not None:
        session.uninstall()
        session.finalize()
        out["counters"] = modelled_counters(session)
    if profiler is not None:
        profile = LayerProfile(pstats.Stats(profiler).stats, SRC_ROOT,
                               BENCH_ROOT)
        out["profile"] = {"total_s": profile.total_s,
                          "self_s": profile.self_s,
                          "share": {layer: profile.share(layer)
                                    for layer in profile.self_s},
                          "calls_in": profile.calls_in,
                          "step_calls": profile.calls("step",
                                                      "sim/kernel.py")}
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("plain", "profile", "metered"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()
    started = time.monotonic()
    rounds = []
    while True:
        round_started = time.monotonic()
        rounds.append(run_round(args.workload, args.seed, args.mode,
                                args.scratch))
        # A finished round's simulators hold reference cycles; free them
        # now rather than inside the next round's timed part.
        gc.collect()
        took = time.monotonic() - round_started
        if time.monotonic() - started + took > args.seconds:
            break
    print(json.dumps({"rounds": rounds, "peak_rss_mb": peak_rss_mb()},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
