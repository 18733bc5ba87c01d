"""Seeded input generator for the regionknot benchmark.

Run as its own process, before each worker starts:

    python3 bench/gen.py --workload rcc --seed 7 --round 0 --out DIR

It writes ``DIR/inputs.json`` (PD text and query arguments only) and, for
``catalog``, one single-knot catalog file per bundled knot under
``DIR/knots``. Building and checking the diagrams here, in a process the
worker never shares, keeps every ``lru_cache`` in the worker cold.

The knots of a round depend on (workload, seed, round) and nothing else.
Inputs are deduplicated by normalized PD code, and ``histogram`` records
how many distinct knots there are per crossing count.

Two constructor defects were found while sizing these families; both are
left for a later fix in ``construct.py`` and avoided here:

* ``braid_closure([1, 1, 1], 5)`` returns the trefoil: strands that no
  letter touches are dropped without an error. Braid words are therefore
  kept only when their permutation is one cycle over every strand, which
  also makes the closure a knot.
* ``montesinos_diagram([3], [-2], [5])`` returns 8 crossings: a
  non-positive twist count adds no crossing instead of being rejected.
  Only positive twist counts are drawn, and the crossing count is checked.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter
from pathlib import Path

WORKLOADS = ("catalog", "oracle", "rcc")

# oracle: knots per crossing count. c <= 10 gets an exact u_R search, c >= 11
# the basepoint-shift certificate, whose cost is one 2^c state sum. u_R cost
# depends on where the search stops: 11-55 ms (c = 9) and 25-165 ms (c = 10)
# when one region unknots the diagram, 90-230 ms and 0.23-0.67 s when none
# does. About 27% (c = 9) and 47% (c = 10) of drawn knots need two regions,
# so a free draw made the u_R share of a run swing by 2 s of 30; the u_R
# strata therefore fix how many knots of each kind a round holds, keyed by
# (c, whether one region unknots it). u_R is kept near a tenth of the
# round's time. The c = 13 stratum is about half the round and sits in the
# middle, so the median operation is one 2^13 state sum whichever way the u_R
# searches end; the c = 14 stratum holds the p90 tail.
ORACLE_UR_STRATA = {(9, True): 1, (9, False): 1, (10, True): 1, (10, False): 1}
ORACLE_CERT_STRATA = {11: 2, 12: 4, 13: 16, 14: 8}

# rcc: more distinct knots than the default lru_cache bound of 128, with
# crossing counts spread evenly over 16..64.
RCC_POOL = 160
RCC_MIN_C, RCC_MAX_C = 16, 64
RCC_OPS = 10_000
RCC_QUERIES = ("solve", "avoid", "splice")


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """A uniformly random ordered split of ``total`` into positive parts."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


def _one_cycle(word: list[int], strands: int) -> bool:
    """True iff the braid permutation is a single cycle over every strand."""
    perm = list(range(strands))
    for letter in word:
        i = abs(letter) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    x, length = perm[0], 1
    while x != 0:
        x, length = perm[x], length + 1
    return length == strands


def _rational(rng: random.Random, c: int):
    from regionknot import rational_diagram

    return rational_diagram(_composition(rng, c, rng.randint(1, min(c, 5))))


def _montesinos(rng: random.Random, c: int):
    from regionknot import montesinos_diagram

    seqs = []
    for part in _composition(rng, c, 3):
        seqs.append(_composition(rng, part, rng.randint(1, min(part, 3))))
    return montesinos_diagram(*seqs)


def _braid(rng: random.Random, c: int):
    """3- or 4-strand closure, either a positive or an alternating braid.

    Both kinds close to nontrivial knots once the diagram is irreducible, so
    no u_R search degenerates to the empty set.
    """
    from regionknot import braid_closure

    strands = 4 if c % 2 == 1 and rng.random() < 0.5 else 3
    alternating = rng.random() < 0.5
    word = [rng.randint(1, strands - 1) for _ in range(c)]
    if alternating:
        word = [-k if k % 2 == 0 else k for k in word]
    if not _one_cycle(word, strands):
        return None
    return braid_closure(word, strands)


FAMILIES = (("rational", _rational), ("montesinos", _montesinos), ("braid", _braid))


def _one_region_unknots(d) -> bool:
    """True iff a crossing change on one region's crossings makes the Jones
    polynomial trivial, that is iff u_R = 1 (``d`` is nontrivial)."""
    from regionknot import apply_crossing_changes, is_trivial, phi, rcc_map

    m = rcc_map(d)
    return any(
        is_trivial(apply_crossing_changes(d, phi(m, frozenset([r]))))
        for r in range(m.region_map.n_regions)
    )


def _draw_knots(
    rng: random.Random, counts: list[int], one_region: list[bool | None] | None = None
) -> tuple[list[dict], int]:
    """One irreducible knot per entry of ``counts`` (its crossing count),
    rotating through the families; returns the knots and the duplicates
    skipped. Where ``one_region[k]`` is not None, knot k must have that
    value of ``_one_region_unknots``; a drawn knot with the other value is
    kept for a later entry that wants it, since labelling costs a state sum
    per region. Such an entry also moves on to the next family at each
    draw: some families rarely give one of the two values (3-braids at
    c = 10 mostly need two regions)."""
    from regionknot import NotAKnot, is_irreducible

    knots: list[dict] = []
    seen: set[str] = set()
    spare: dict[tuple[int, bool], list[tuple]] = {}
    duplicates = 0
    for k, c in enumerate(counts):
        family, build = FAMILIES[k % len(FAMILIES)]
        want = one_region[k] if one_region else None
        if spare.get((c, want)):
            family, d, pd = spare[(c, want)].pop()
        else:
            for attempt in range(10_000):
                if want is not None:
                    family, build = FAMILIES[(k + attempt) % len(FAMILIES)]
                try:
                    d = build(rng, c)
                except NotAKnot:
                    continue
                if d is None or d.n_crossings != c or not is_irreducible(d):
                    continue
                pd = d.pd_code()
                if pd in seen:
                    duplicates += 1
                    continue
                seen.add(pd)
                if want is not None:
                    label = _one_region_unknots(d)
                    if label != want:
                        spare.setdefault((c, label), []).append((family, d, pd))
                        continue
                break
            else:
                raise RuntimeError(f"no new irreducible {family} knot with {c} crossings")
        name = f"{family}-{c}-{k}"
        knots.append({"name": name, "family": family, "c": c, "pd": pd, "diagram": d})
    return knots, duplicates


def _catalog(rng: random.Random) -> dict:
    from regionknot import bundled_catalog

    knots, seen, duplicates = [], set(), 0
    for e in bundled_catalog():
        pd = e.diagram.pd_code()
        if pd in seen:
            duplicates += 1
            continue
        seen.add(pd)
        knots.append({"name": e.name, "family": "bundled", "c": e.crossing_number, "pd": e.pd})
    order = list(range(len(knots)))
    rng.shuffle(order)
    return {"knots": knots, "duplicates": duplicates, "ops": [{"knot": i} for i in order]}


def _oracle(rng: random.Random) -> dict:
    ur = [key for key, n in ORACLE_UR_STRATA.items() for _ in range(n)]
    cert = [c for c, n in ORACLE_CERT_STRATA.items() for _ in range(n)]
    counts = [c for c, _ in ur] + cert
    one_region = [want for _, want in ur] + [None] * len(cert)
    knots, duplicates = _draw_knots(rng, counts, one_region)
    ops = [
        {"knot": i, "kind": "ur" if k["c"] <= 10 else "certify"} for i, k in enumerate(knots)
    ]
    rng.shuffle(ops)
    return {"knots": knots, "duplicates": duplicates, "ops": ops}


def _rcc(rng: random.Random) -> dict:
    from regionknot import checkerboard, faces

    span = RCC_MAX_C - RCC_MIN_C + 1
    counts = [RCC_MIN_C + (i * span) // RCC_POOL for i in range(RCC_POOL)]
    knots, duplicates = _draw_knots(rng, counts)
    colorings = []
    for k in knots:
        col = checkerboard(faces(k["diagram"]))
        colorings.append((sorted(col.black), sorted(col.white)))
    ops = []
    for _ in range(RCC_OPS):
        i = rng.randrange(len(knots))
        c = knots[i]["c"]
        kind = rng.choice(RCC_QUERIES)
        op: dict = {"knot": i, "kind": kind}
        if kind == "splice":
            op["x"] = rng.randrange(c)
        else:
            bits = 0
            while not bits:  # a uniformly random nonempty crossing set
                bits = rng.getrandbits(c)
            op["target"] = [j for j in range(c) if (bits >> j) & 1]
        if kind == "avoid":
            black, white = colorings[i]
            op["b"], op["w"] = rng.choice(black), rng.choice(white)
        ops.append(op)
    return {"knots": knots, "duplicates": duplicates, "ops": ops}


def generate(workload: str, seed: int, round_index: int) -> dict:
    """Inputs of one round: knots (PD text) and the operations over them."""
    rng = random.Random(f"{workload}:{seed}:{round_index}")
    body = {"catalog": _catalog, "oracle": _oracle, "rcc": _rcc}[workload](rng)
    for k in body["knots"]:
        k.pop("diagram", None)  # the worker gets PD text only
    histogram = Counter(k["c"] for k in body["knots"])
    return {
        "workload": workload,
        "seed": seed,
        "round": round_index,
        "histogram": {str(c): histogram[c] for c in sorted(histogram)},
        **body,
    }


def write_inputs(inputs: dict, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    if inputs["workload"] == "catalog":
        (out / "knots").mkdir(exist_ok=True)
        for k in inputs["knots"]:
            path = out / "knots" / f"{k['name']}.txt"
            path.write_text(f"{k['name']}\t{k['pd']}\n")
            k["path"] = str(path)
    (out / "inputs.json").write_text(json.dumps(inputs))


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--round", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    write_inputs(generate(args.workload, args.seed, args.round), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
