"""One round of benchmark operations in a fresh process.

    python3 bench/worker.py --inputs DIR/inputs.json --out OUTDIR [--trace]

Imports regionknot, reads the generated inputs, prints ``ready`` on stdout
and then runs every operation of the round once, in order, one at a time
(closed loop, one client). Each operation is timed alone. Right after it,
outside the timed span, its output is reduced to a compact copy for the
checks: region sets become int masks, so the outputs a round keeps add
little to the worker's heap, its garbage-collection pauses and its peak
RSS. Between operations, never inside one, the worker times a fixed probe
of its own (``host_probe``) about every ``PROBE_EVERY_NS``: the run divides
each latency by the host speed the probes around it show (``run.py``).
Writes ``OUTDIR/result.json`` with per-operation latencies, outputs, errors,
probe times and positions, and peak RSS; with ``--trace``, also the spans (see
``spans.py``).

Everything the CLI prints goes to ``OUTDIR/stdout.txt``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

from regionknot import cli, diagram, rcc, unknotting


PROBE_EVERY_NS = 100_000_000
PROBE_SIZE = 2000


def host_probe() -> int:
    """A fixed piece of pure-Python work, about 1.8 ms, that uses none of
    regionknot: tuple allocation, dict updates and a sort, the kind of work
    the operations do. Its time tracks how fast the shared host runs this
    process at the moment. The collector is off while it runs, so the
    program's heap never adds a collection to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        table: dict[tuple[int, int], int] = {}
        for i in range(PROBE_SIZE):
            key = (i % 97, i % 89)
            table[key] = table.get(key, 0) + i * i
        return len(sorted(table.items()))
    finally:
        if enabled:
            gc.enable()


def _peak_rss_kb() -> int:
    """Peak resident set size of this process image, in KiB.

    On Linux ``ru_maxrss`` also counts the parent's pages that were mapped
    when the worker was forked, so the run's growing parent would leak into
    it; ``VmHWM`` covers only the image started by exec.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _mask(s) -> int:
    return sum(1 << i for i in s)


def _cert(cert) -> dict:
    return {
        "regions": _mask(cert.regions),
        "crossings": _mask(cert.crossings_changed),
        "jones": str(cert.jones_after),
        "size": cert.size,
    }


def _catalog_op(op: dict, knots: list[dict], records: str):
    argv = ["--records", records, "catalog", "--path", knots[op["knot"]]["path"]]
    return lambda: cli.main(argv)


def _oracle_op(op: dict, knots: list[dict], records: str):
    pd = knots[op["knot"]]["pd"]
    if op["kind"] == "ur":
        return lambda: unknotting.region_unknotting_number(diagram.parse_pd(pd))
    return lambda: unknotting.small_unknotting_set(diagram.parse_pd(pd))


def _rcc_op(op: dict, knots: list[dict], records: str):
    pd = knots[op["knot"]]["pd"]
    kind = op["kind"]
    if kind == "splice":
        x = op["x"]
        return lambda: rcc.splice_solution(diagram.parse_pd(pd), x)
    target = frozenset(op["target"])
    if kind == "solve":
        return lambda: rcc.solve_for_crossings(rcc.rcc_map(diagram.parse_pd(pd)), target)
    b, w = op["b"], op["w"]
    return lambda: rcc.solve_avoiding(rcc.rcc_map(diagram.parse_pd(pd)), target, b, w)


def _compact(workload: str, op: dict, out) -> object:
    if workload == "catalog":
        return out
    if workload == "oracle":
        if op["kind"] == "ur":
            ur, cert = out
            return {"ur": ur, **_cert(cert)}
        return _cert(out)
    if op["kind"] == "solve":
        return [_mask(s) for s in out]
    return _mask(out)


BUILDERS = {"catalog": _catalog_op, "oracle": _oracle_op, "rcc": _rcc_op}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--inputs", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    inputs = json.loads(args.inputs.read_text())
    workload, knots = inputs["workload"], inputs["knots"]
    args.out.mkdir(parents=True, exist_ok=True)
    records = str(args.out / "records.jsonl")
    open(records, "w").close()
    ops = inputs["ops"]
    calls = [BUILDERS[workload](op, knots, records) for op in ops]

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    print("ready", flush=True)
    sys.stdout = open(args.out / "stdout.txt", "w")

    n = len(calls)
    latency_ns = [0] * n
    outputs: list[object] = [None] * n
    errors: list[str | None] = [None] * n
    record_end = [0] * n
    probe_ns: list[int] = []
    probe_at: list[int] = []  # operations finished before each probe
    clock = time.perf_counter_ns

    def probe(done: int) -> int:
        # The first pass refills the caches the last operation evicted: timed
        # right after an operation, the probe ran about 20% slower, and by
        # how much depended on that operation. The second pass is timed.
        host_probe()
        t0 = clock()
        host_probe()
        end = clock()
        probe_ns.append(end - t0)
        probe_at.append(done)
        return end

    loop_start = last_probe = probe(0)
    for i, call in enumerate(calls):
        if tracer:
            tracer.begin_op(i)
        t0 = clock()
        try:
            out = call()
        except Exception as exc:  # an operation that raises counts as failed
            out, errors[i] = None, f"{type(exc).__name__}: {exc}"
        latency_ns[i] = clock() - t0
        if tracer:
            tracer.end_op()
        if errors[i] is None:
            try:
                outputs[i] = _compact(workload, ops[i], out)
            except Exception as exc:  # output of the wrong shape
                errors[i] = f"unexpected output {out!r:.200}: {exc}"
        if workload == "catalog":
            record_end[i] = os.path.getsize(records)
        if clock() - last_probe >= PROBE_EVERY_NS:
            last_probe = probe(i + 1)
    loop_ns = clock() - loop_start
    maxrss_kb = _peak_rss_kb()  # before serializing the outputs
    sys.stdout.close()
    sys.stdout = sys.__stdout__

    result = {
        "latency_ns": latency_ns,
        "loop_ns": loop_ns,
        "errors": errors,
        "outputs": outputs,
        "record_end": record_end,
        "maxrss_kb": maxrss_kb,
        "probe_ns": probe_ns,
        "probe_at": probe_at,
    }
    if tracer:
        result["names"] = tracer.names
        result["spans"] = tracer.spans
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
