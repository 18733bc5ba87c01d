"""Per-operation correctness checks, run in the benchmark's own process after a
round, never inside a timed span or the worker's caches.

Each check returns ``None`` or a one-line reason. Where an independent
reference exists it is used: region sets are checked with
``phi_bruteforce`` (corner-by-corner toggling), not with the matrix map
that produced them.
"""

from __future__ import annotations

import json
from pathlib import Path

from regionknot import (
    delete_columns,
    faces,
    invert_square,
    parse_pd,
    phi_bruteforce,
    rcc_map,
    small_unknotting_set,
)

GOLDEN_CATALOG = Path(__file__).resolve().parent / "golden_catalog.jsonl"
TIMING_FIELDS = ("elapsed_ms",)


def _members(mask: int) -> frozenset[int]:
    """The indices set in an int mask (the worker's form of a set)."""
    return frozenset(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def _golden() -> dict[str, dict]:
    records = (json.loads(line) for line in GOLDEN_CATALOG.read_text().splitlines())
    return {rec["name"]: rec for rec in records}


class Checker:
    def __init__(self, inputs: dict):
        self.inputs = inputs
        self.knots = inputs["knots"]
        self._diagrams: dict[int, tuple] = {}
        self._inverse: dict[int, tuple] = {}
        self._golden = _golden() if inputs["workload"] == "catalog" else None

    def _diagram(self, i: int):
        if i not in self._diagrams:
            d = parse_pd(self.knots[i]["pd"])
            self._diagrams[i] = (d, faces(d))
        return self._diagrams[i]

    def check(self, op: dict, output, records: bytes) -> str | None:
        return getattr(self, "_" + self.inputs["workload"])(op, output, records)

    # -- catalog ---------------------------------------------------------

    def _catalog(self, op: dict, output, records: bytes) -> str | None:
        knot = self.knots[op["knot"]]
        lines = records.decode().splitlines()
        if output != 0 or len(lines) != 1:
            return f"{knot['name']}: exit {output}, {len(lines)} records"
        rec = json.loads(lines[0])
        c = rec["crossings"]
        cert = rec["certificate"]
        invariants = {
            "rank c": rec["rank"] == c,
            "c+2 regions": rec["regions"] == c + 2,
            "splice_ok": rec["splice_ok"] is True,
            "bool_ok": rec["bool_ok"] is True,
            "bounds_ok": rec.get("bounds_ok") is True,
            "u_R <= certificate": "ur" in rec and rec["ur"] <= cert["size"],
            "certificate <= (c+1)/2": 2 * cert["size"] <= c + 1 and cert["trivial"],
        }
        broken = [k for k, ok in invariants.items() if not ok]
        if broken:
            return f"{knot['name']}: {', '.join(broken)}"
        for field in TIMING_FIELDS:
            rec.pop(field, None)
        if rec != self._golden.get(rec["name"]):
            return f"{knot['name']}: record differs from {GOLDEN_CATALOG.name}"
        return None

    # -- oracle ----------------------------------------------------------

    def _certificate(self, i: int, out: dict) -> str | None:
        d, rm = self._diagram(i)
        c = d.n_crossings
        regions = _members(out["regions"])
        if phi_bruteforce(rm, regions) != _members(out["crossings"]):
            return "certificate crossings differ from phi_bruteforce of its regions"
        if out["jones"] != "1":
            return f"jones_after is {out['jones']}"
        if out["size"] != len(regions) or 2 * out["size"] > c + 1:
            return f"certificate size {out['size']} above (c+1)/2 = {(c + 1) / 2}"
        return None

    def _oracle(self, op: dict, out: dict, records: bytes) -> str | None:
        i = op["knot"]
        problem = self._certificate(i, out)
        if problem or op["kind"] != "ur":
            return problem
        if out["ur"] != out["size"]:
            return f"u_R {out['ur']} differs from its certificate size {out['size']}"
        certified = small_unknotting_set(self._diagram(i)[0]).size
        if out["ur"] > certified:
            return f"u_R {out['ur']} above the certificate size {certified}"
        return None

    # -- rcc -------------------------------------------------------------

    def _unit_solutions(self, i: int, x: int) -> set[frozenset[int]]:
        """The four region sets changing exactly crossing ``x``, from one
        inverse per knot: the solution avoiding the lowest black and white
        regions, plus the kernel {}, B, W, B^W."""
        if i not in self._inverse:
            m = rcc_map(self._diagram(i)[0])
            b, w = min(m.coloring.black), min(m.coloring.white)
            keep = [r for r in range(m.region_map.n_regions) if r not in (b, w)]
            inv = invert_square(delete_columns(m.matrix, {b, w}))
            self._inverse[i] = (inv.row_bits, keep, m.coloring.black, m.coloring.white)
        rows, keep, black, white = self._inverse[i]
        u = frozenset(r for r, row in zip(keep, rows) if (row >> x) & 1)
        return {u, u ^ black, u ^ white, u ^ black ^ white}

    def _rcc(self, op: dict, out, records: bytes) -> str | None:
        d, rm = self._diagram(op["knot"])
        kind = op["kind"]
        if kind == "solve":
            target = frozenset(op["target"])
            sols = [_members(s) for s in out]
            if len(set(sols)) != 4:
                return f"{len(set(sols))} distinct solutions, expected 4"
        elif kind == "avoid":
            target = frozenset(op["target"])
            sols = [_members(out)]
            if op["b"] in sols[0] or op["w"] in sols[0]:
                return "avoiding solution uses an excluded region"
        else:
            target = frozenset({op["x"]})
            sols = [_members(out)]
            if sols[0] not in self._unit_solutions(op["knot"], op["x"]):
                return "splice set is not among the four solutions for its crossing"
        for s in sols:
            if phi_bruteforce(rm, s) != target:
                return f"phi_bruteforce({sorted(s)}) is not the target"
        return None


def write_golden(work: Path) -> None:
    """Capture ``golden_catalog.jsonl``: one ``catalog`` record per bundled
    knot, run alone as the benchmark runs it, timing fields removed."""
    import contextlib
    import io

    from regionknot import bundled_catalog, cli

    work.mkdir(parents=True, exist_ok=True)
    records = work / "golden.jsonl"
    records.write_text("")
    for e in bundled_catalog():
        path = work / f"{e.name}.txt"
        path.write_text(f"{e.name}\t{e.pd}\n")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["--records", str(records), "catalog", "--path", str(path)])
    lines = []
    for line in records.read_text().splitlines():
        rec = json.loads(line)
        for field in TIMING_FIELDS:
            rec.pop(field, None)
        lines.append(json.dumps(rec) + "\n")
    GOLDEN_CATALOG.write_text("".join(lines))


if __name__ == "__main__":
    # python3 bench/check.py  (from the repository root) rewrites the golden file
    write_golden(Path(".bench_build") / "golden")
