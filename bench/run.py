"""regionknot benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {catalog,oracle,rcc,all} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root. A run is a sequence of rounds: at least
``MIN_ROUNDS``, then as many as bring the timed operations nearest to
``--seconds``. Each round:

1. ``gen.py`` writes the round's inputs (PD text, query arguments) in its
   own process;
2. a fresh ``worker.py`` imports regionknot, reads them and prints
   ``ready``: set-up is the wall time from step 1 to here;
3. the worker runs the round's operations one at a time (closed loop, one
   client) and reports each operation's latency and output;
4. this process checks every output (``check.py``) outside any timed span.

The host is shared, and how fast it runs the worker drifts by 10-20% on
time scales from seconds to minutes. Every timing is therefore stated
at a fixed reference host speed: the worker times a fixed probe of its own
between operations (``worker.host_probe``), and each latency is divided by
the median time of the probes around it over ``PROBE_REF_NS``. The report
prints that ratio (``host_slowdown``) and the raw figures beside the scaled
ones. Set-up time is not scaled: it is mostly process start, imports and
input generation, whose speed the probe did not track, and scaling it
widened its spread on ``rcc``. Memory is not scaled.

With ``--trace 1`` each round runs twice on the same inputs, untraced and
then traced (``spans.py``), in two fresh workers; the per-layer metrics
come from the traced worker and ``trace.overhead_ratio`` compares the two.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``). The lines before it are a readable report.
README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gen import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

MIN_ROUNDS = 3
# Stops at p99: on a shared 2-CPU host, preemption spikes of 5-40 ms hit
# 0.1-0.5% of sub-millisecond rcc operations, so p99.5/p99.9 measured the
# host more than the program (run-to-run spread 0.23-0.39 against 0.10-0.15
# at p99; README.md, "Steadiness").
TAIL_LADDER = (50, 90, 99)
# Median time of ``worker.host_probe`` on the reference host: a 2-vCPU
# Intel Xeon VM at 2.1 GHz with CPython 3.11.7 (README.md, "Host-speed
# scaling").
PROBE_REF_NS = 1_800_000
# Probes on each side of an operation that set its slowdown. The host drifts
# within a round too: on the same ten rcc runs, this gave an ops_per_s spread
# of 0.030 against 0.071 with one slowdown per round (README.md, "Host-speed
# scaling").
PROBE_WINDOW = 8
WALL_LIMIT_S = 120  # start no round after this, so a run ends within 180 s
WORKER_TIMEOUT_S = 150


def tail_percentile(ops_per_round: int) -> float:
    """The highest ladder percentile with at least ten samples above it in a
    run of ``MIN_ROUNDS`` rounds. Fixed per workload, so it does not move
    when a faster program fits more rounds into a run."""
    n = MIN_ROUNDS * ops_per_round
    return max((p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10), default=100)


def nearest_rank(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


class Round:
    """One round's inputs, and the workers run on them."""

    def __init__(self, workload: str, seed: int, index: int):
        self.dir = BUILD / "regionknot" / workload / f"round{index}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]),
            PYTHONPYCACHEPREFIX=str(BUILD / "pycache"),
            PYTHONHASHSEED="0",
        )
        self.start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH / "gen.py"), "--workload", workload,
             "--seed", str(seed), "--round", str(index), "--out", str(self.dir)],
            env=self.env, check=True, timeout=WORKER_TIMEOUT_S,
        )
        self.inputs = json.loads((self.dir / "inputs.json").read_text())

    def run_worker(self, name: str, trace: bool) -> tuple[float, dict]:
        """Run a fresh worker on the round's inputs and wait for it. Returns
        the seconds from the start of input generation to ``ready``, and the
        worker's result."""
        out = self.dir / name
        cmd = [sys.executable, str(BENCH / "worker.py"),
               "--inputs", str(self.dir / "inputs.json"), "--out", str(out)]
        if trace:
            cmd.append("--trace")
        proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.communicate(timeout=WORKER_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"{name} worker failed with exit code {proc.returncode}")
        result = json.loads((out / "result.json").read_text())
        result["records"] = (out / "records.jsonl").read_bytes()
        return ready - self.start, result


def scaled_ms(result: dict) -> tuple[float, list[float]]:
    """The worker's host slowdown (median probe time over the reference)
    and its latencies in ms at the reference host speed. Each latency is
    divided by the slowdown of the ``PROBE_WINDOW`` probes before it and
    the ``PROBE_WINDOW`` after it (about 1.6 s around a short operation)."""
    probes, at = result["probe_ns"], result["probe_at"]
    scaled = []
    for i, ns in enumerate(result["latency_ns"]):
        j = bisect.bisect_right(at, i)  # the first probe after operation i
        window = probes[max(0, j - PROBE_WINDOW) : j + PROBE_WINDOW]
        scaled.append(ns / 1e6 / (statistics.median(window) / PROBE_REF_NS))
    return statistics.median(probes) / PROBE_REF_NS, scaled


def check_round(checker, ops: list[dict], result: dict) -> list[str]:
    """One reason per failed operation: it raised, or its output is wrong."""
    failures = []
    start = 0
    for i, op in enumerate(ops):
        end = result["record_end"][i]
        problem = result["errors"][i] or checker.check(
            op, result["outputs"][i], result["records"][start:end]
        )
        if problem:
            failures.append(f"op {i} {op}: {problem}")
        start = end
    return failures


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from check import Checker
    from spans import LayerTotals, layer_metrics, layer_shares

    wall_start = time.perf_counter()
    setups: list[float] = []
    latencies: list[float] = []
    raw_latencies: list[float] = []
    slowdowns: list[float] = []
    per_round: list[dict] = []
    plain_ns = traced_ns = maxrss_kb = attempted = records_bytes = 0
    traced_ms = 0.0
    failures: list[str] = []
    histogram: dict[str, int] = {}
    totals = LayerTotals()
    rounds = 0
    # Stop when one more round would, on average, overshoot --seconds more
    # than stopping now would undershoot it.
    while rounds < MIN_ROUNDS or (
        (plain_ns + traced_ns) / 1e9 * (1 + 0.5 / rounds) < seconds
        and time.perf_counter() - wall_start < WALL_LIMIT_S
    ):
        rnd = Round(workload, seed, rounds)
        ops = rnd.inputs["ops"]
        for c, n in rnd.inputs["histogram"].items():
            histogram[c] = histogram.get(c, 0) + n
        checker = Checker(rnd.inputs)
        setup, plain = rnd.run_worker("plain", trace=False)
        slowdown, scaled = scaled_ms(plain)
        slowdowns.append(slowdown)
        setups.append(setup)
        latencies += scaled
        raw_latencies += [ns / 1e6 for ns in plain["latency_ns"]]
        per_round.append({"setup_s": setup, "loop_ns": plain["loop_ns"], "slowdown": slowdown,
                          "latency_ns": plain["latency_ns"], "probe_ns": plain["probe_ns"],
                          "probe_at": plain["probe_at"],
                          "maxrss_kb": plain["maxrss_kb"]})
        maxrss_kb = max(maxrss_kb, plain["maxrss_kb"])
        plain_ns += plain["loop_ns"]
        attempted += len(ops)
        failures += check_round(checker, ops, plain)
        if trace:
            _, traced = rnd.run_worker("traced", trace=True)
            traced_ns += traced["loop_ns"]
            traced_ms += sum(scaled_ms(traced)[1])
            totals.add(traced["names"], traced["spans"])
            records_bytes += len(traced["records"])
            attempted += len(ops)
            failures += check_round(checker, ops, traced)
        rounds += 1

    (BUILD / "regionknot" / workload / "rounds.json").write_text(json.dumps(per_round))
    tail_p = tail_percentile(len(ops))
    op_s = sum(latencies) / 1e3
    report = {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "histogram": histogram,
        "samples": len(latencies),
        "tail_percentile": tail_p,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "host_slowdown": statistics.median(slowdowns),
        "raw": {
            "ops_per_s": len(raw_latencies) / (sum(raw_latencies) / 1e3),
            "op_p50_ms": statistics.median(raw_latencies),
            "op_tail_ms": nearest_rank(raw_latencies, tail_p),
        },
        "end_to_end": {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(latencies) / op_s, "1/s"),
            "op_p50_ms": (statistics.median(latencies), "ms"),
            "op_tail_ms": (nearest_rank(latencies, tail_p), "ms"),
            "peak_rss_mb": (maxrss_kb / 1024, "MB"),
        },
    }
    if trace:
        report["per_layer"] = layer_metrics(totals, records_bytes, traced_ms / 1e3 / op_s)
        report["shares"] = layer_shares(totals)
        report["prediction"] = PREDICTIONS[workload](totals)
    return report


# Which layer should dominate each workload (README.md, "Predictions").
PREDICTIONS = {
    "catalog": lambda t: (
        "boolalg self time is the majority",
        t.layer_share("boolalg") > 0.5,
    ),
    "oracle": lambda t: (
        "kauffman_bracket self time is the majority",
        t.share("unknotting.kauffman_bracket") > 0.5,
    ),
    "rcc": lambda t: (
        "zero boolalg and zero bracket calls",
        not any(t.calls[k] for k in t.calls if k.startswith("boolalg."))
        and t.calls["unknotting.kauffman_bracket"] == 0,
    ),
}


def print_report(r: dict) -> None:
    print(f"== {r['workload']} (seed {r['seed']}): {r['rounds']} rounds, "
          f"{r['samples']} timed operations; knots per crossing count {r['histogram']}")
    print(f"  host_slowdown {r['host_slowdown']:.4f} (median probe time / reference); "
          "timings below are at the reference host speed, raw in brackets")
    for name, (value, unit) in r["end_to_end"].items():
        note = f"  (p{r['tail_percentile']:g} of {r['samples']} samples)" if name == "op_tail_ms" else ""
        raw = f"  [raw {r['raw'][name]:.4f}]" if name in r["raw"] else ""
        print(f"  {name:12} {value:12.4f} {unit}{raw}{note}")
    print(f"  {'error_rate':12} {r['failed'] / r['attempted']:12.4f} ratio  "
          f"({r['failed']} of {r['attempted']} operations failed)")
    for reason in r["failures"][:10]:
        print(f"  FAILED {reason}")
    if "per_layer" in r:
        for name, (value, unit) in r["per_layer"].items():
            print(f"    {name:44} {value:14.6f} {unit}")


def print_shares(reports: list[dict]) -> None:
    layers = list(reports[0]["shares"])
    print("layer shares (self time / operation time):")
    print("  " + f"{'workload':10}" + "".join(f"{layer:>11}" for layer in layers) + "  prediction")
    for r in reports:
        what, holds = r["prediction"]
        print("  " + f"{r['workload']:10}" + "".join(f"{r['shares'][x]:11.3f}" for x in layers)
              + f"  {what}: {'holds' if holds else 'FAILED'}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="regionknot benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "regionknot" / "__init__.py").is_file():
        print(f"regionknot sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    sys.pycache_prefix = str(BUILD / "pycache")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    for r in reports:
        print_report(r)
    if args.trace:
        print_shares(reports)

    key = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for r in reports:
        prefix = "" if len(reports) == 1 else f"{r['workload']}."
        for name, (value, unit) in r[key].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
