"""Command-line surface: human-readable tables plus JSONL result records."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Iterable

from . import __version__
from .boolalg import (
    black_white_pairs,
    build_restricted,
    verify_axioms,
    verify_homomorphism,
    verify_order_isomorphism,
)
from .catalog import CatalogEntry, bundled_catalog, load_catalog
from .diagram import is_irreducible, parse_pd
from .gf2 import rank
from .rcc import RccMap, rcc_map, solve_avoiding, solve_for_crossings, splice_solution
from .unknotting import (
    UR_GUARD,
    region_unknotting_number,
    small_unknotting_set,
)

CATALOG_ENV = "REGIONKNOT_CATALOG"


def _regions_payload(m: RccMap) -> dict[str, Any]:
    d, rm, col = m.diagram, m.region_map, m.coloring
    return {
        "crossings": d.n_crossings,
        "regions": rm.n_regions,
        "irreducible": is_irreducible(d, rm),
        "black": len(col.black),
        "white": len(col.white),
        "black_even": len(col.black) % 2 == 0,
        "white_even": len(col.white) % 2 == 0,
    }


def _region_names(s: frozenset[int]) -> list[str]:
    return [f"R{r + 1}" for r in sorted(s)]


def _crossing_names(s: frozenset[int]) -> list[str]:
    return [f"c{i + 1}" for i in sorted(s)]


class BadName(ValueError):
    """Crossing or region names on the command line that do not fit the
    diagram: malformed, out of range, or too many or too few."""


def _parse_names(text: str, prefix: str, count: int, length: int | None = None) -> list[int]:
    """0-based indices for comma-separated 1-based names (``c2,c3`` or
    ``R1,R2``; the prefix is optional). Each must lie in 1..count, and there
    must be exactly ``length`` names when it is given."""
    out = []
    for tok in text.split(","):
        name = tok.strip()
        if not name:
            continue
        digits = name.removeprefix(prefix)
        if not digits.isdecimal() or not 1 <= int(digits) <= count:
            raise BadName(f"{name} is not one of {prefix}1..{prefix}{count}")
        out.append(int(digits) - 1)
    if length is not None and len(out) != length:
        raise BadName(f"expected {length} name(s), got {text!r}")
    return out


def cmd_regions(args: argparse.Namespace) -> list[dict[str, Any]]:
    payload = _regions_payload(rcc_map(parse_pd(args.pd)))
    print(
        f"crossings={payload['crossings']} regions={payload['regions']} "
        f"irreducible={payload['irreducible']} |B|={payload['black']} "
        f"|W|={payload['white']} parity="
        f"{'even/even' if payload['black_even'] and payload['white_even'] else 'mixed'}"
    )
    return [payload]


def cmd_solve(args: argparse.Namespace) -> list[dict[str, Any]]:
    d = parse_pd(args.pd)
    m = rcc_map(d)
    target = frozenset(_parse_names(args.crossings, "c", d.n_crossings))
    payload: dict[str, Any] = {"targets": _crossing_names(target)}
    if args.avoid:
        b, w = _parse_names(args.avoid, "R", d.n_crossings + 2, 2)
        s = solve_avoiding(m, target, b, w)
        payload["avoid"] = [f"R{b + 1}", f"R{w + 1}"]
        payload["solution"] = _region_names(s)
        print(f"unique solution avoiding R{b + 1},R{w + 1}: {{{', '.join(_region_names(s)) or ''}}}")
    else:
        sols = solve_for_crossings(m, target)
        payload["solutions"] = [_region_names(s) for s in sols]
        payload["minimum"] = _region_names(sols[0])
        for i, s in enumerate(sols):
            marker = "  <- minimum" if i == 0 else ""
            print(f"solution {i + 1}: {{{', '.join(_region_names(s))}}}{marker}")
    return [payload]


def cmd_splice(args: argparse.Namespace) -> list[dict[str, Any]]:
    d = parse_pd(args.pd)
    m = rcc_map(d)
    (x,) = _parse_names(args.crossing, "c", d.n_crossings, 1)
    s = splice_solution(d, x)
    sols = solve_for_crossings(m, frozenset({x}))
    agrees = s in sols
    print(
        f"splice at c{x + 1}: {{{', '.join(_region_names(s))}}} "
        f"(matches linear solve: {agrees})"
    )
    return [{
        "crossing": f"c{x + 1}",
        "region_set": _region_names(s),
        "matches_solve": agrees,
    }]


def _certificate_payload(cert) -> dict[str, Any]:
    return {
        "regions": _region_names(cert.regions),
        "size": cert.size,
        "crossings_changed": _crossing_names(cert.crossings_changed),
        "trivial": cert.trivializes,
        "jones_after": str(cert.jones_after),
        "le_half_c_plus_2": cert.meets_weak_bound,
        "le_half_c_plus_1": cert.meets_strong_bound,
        "shifts": cert.shifts,
        "method": cert.method,
    }


def cmd_ur(args: argparse.Namespace) -> list[dict[str, Any]]:
    d = parse_pd(args.pd)
    ur, cert = region_unknotting_number(d, max_crossings=args.max_crossings)
    payload = {"ur": ur, "certificate": _certificate_payload(cert)}
    print(
        f"u_R = {ur} via {{{', '.join(_region_names(cert.regions))}}}; "
        f"<=(c+2)/2: {'yes' if cert.meets_weak_bound else 'NO'}; "
        f"<=(c+1)/2: {'yes' if cert.meets_strong_bound else 'NO'}"
    )
    return [payload]


def cmd_certify(args: argparse.Namespace) -> list[dict[str, Any]]:
    d = parse_pd(args.pd)
    cert = small_unknotting_set(d)
    payload = _certificate_payload(cert)
    print(
        f"certified set of size {cert.size} after {cert.shifts} basepoint "
        f"shift(s): {{{', '.join(_region_names(cert.regions))}}}; unknots: "
        f"{cert.trivializes}; <=(c+1)/2: {'yes' if cert.meets_strong_bound else 'NO'}"
    )
    return [payload]


def cmd_boolcheck(args: argparse.Namespace) -> list[dict[str, Any]]:
    d = parse_pd(args.pd)
    if args.pair:
        pairs = [_parse_names(args.pair, "R", d.n_crossings + 2, 2)]
    else:
        pairs = black_white_pairs(d)
    results = []
    ok = True
    for b, w in pairs:
        alg = build_restricted(d, b, w)
        axioms = verify_axioms(alg)
        homo = verify_homomorphism(alg)
        order = (
            verify_order_isomorphism(alg)
            if alg.size <= 64
            else None
        )
        entry = {
            "pair": [f"R{b + 1}", f"R{w + 1}"],
            "axioms_ok": axioms.ok,
            "axioms_mode": axioms.mode,
            "homomorphism_ok": homo.ok,
            "order_iso_ok": None if order is None else order.ok,
        }
        ok = ok and axioms.ok and homo.ok and (order is None or order.ok)
        results.append(entry)
    print(f"checked {len(pairs)} excluded pair(s): {'all ok' if ok else 'VIOLATIONS'}")
    return [{"pairs_checked": len(pairs), "all_ok": ok, "details": results}]


def _catalog_entries(args: argparse.Namespace) -> list[CatalogEntry]:
    path = args.path or os.environ.get(CATALOG_ENV)
    if path:
        return load_catalog(path)
    return bundled_catalog()


def cmd_catalog(args: argparse.Namespace) -> Iterable[dict[str, Any]]:
    """One record per catalog entry, yielded as soon as its row is printed."""
    entries = _catalog_entries(args)
    header = (
        f"{'name':8} {'c':>2} {'reg':>3} {'|B|':>3} {'|W|':>3} {'rank':>4} "
        f"{'u_R':>3} {'cert':>4} {'k':>2} {'splice':>6} {'bool':>5} {'bounds':>6}"
    )
    print(header)
    for e in entries:
        t0 = time.monotonic()
        d = e.diagram
        m = rcc_map(d)
        payload: dict[str, Any] = {"command": "catalog", "name": e.name, "pd": e.pd}
        payload.update(_regions_payload(m))
        payload["rank"] = rank(m.matrix)
        splice_ok = True
        if payload["irreducible"]:
            for x in range(d.n_crossings):
                s = splice_solution(d, x)
                if s not in solve_for_crossings(m, frozenset({x})):
                    splice_ok = False
        payload["splice_ok"] = splice_ok
        if d.n_crossings <= UR_GUARD:
            ur, cert = region_unknotting_number(d)
            payload["ur"] = ur
            payload["bounds_ok"] = cert.meets_weak_bound and cert.meets_strong_bound
        else:  # u_R not computed, so there is no bound to check
            payload["bounds_ok"] = None
        shift = small_unknotting_set(d)
        payload["certificate"] = _certificate_payload(shift)
        pairs = black_white_pairs(d)
        b, w = pairs[0]
        alg = build_restricted(d, b, w)
        payload["bool_ok"] = (
            verify_axioms(alg, sample=200).ok
            and verify_homomorphism(alg, sample=200).ok
        )
        payload["elapsed_ms"] = round(1000 * (time.monotonic() - t0), 2)
        bounds = {True: "yes", False: "NO", None: "-"}[payload["bounds_ok"]]
        print(
            f"{e.name:8} {payload['crossings']:>2} {payload['regions']:>3} "
            f"{payload['black']:>3} {payload['white']:>3} {payload['rank']:>4} "
            f"{payload.get('ur', '-'):>3} {shift.size:>4} {shift.shifts:>2} "
            f"{'ok' if splice_ok else 'BAD':>6} "
            f"{'ok' if payload['bool_ok'] else 'BAD':>5} {bounds:>6}"
        )
        yield payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regionknot",
        description="Region crossing change calculus on knot diagrams",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--records",
        metavar="PATH",
        help="append one JSON record per result line to PATH",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("regions", help="region count, coloring and parity")
    p.add_argument("--pd", required=True)
    p.set_defaults(fn=cmd_regions)

    p = sub.add_parser("solve", help="region sets realizing crossing changes")
    p.add_argument("--pd", required=True)
    p.add_argument("--crossings", required=True, help="e.g. c1,c2")
    p.add_argument("--avoid", help="black,white region pair to avoid, e.g. R1,R2")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("splice", help="single crossing change via splicing")
    p.add_argument("--pd", required=True)
    p.add_argument("--crossing", required=True, help="e.g. c1")
    p.set_defaults(fn=cmd_splice)

    p = sub.add_parser("ur", help="exact region unknotting number")
    p.add_argument("--pd", required=True)
    p.add_argument("--max-crossings", type=int, default=UR_GUARD)
    p.set_defaults(fn=cmd_ur)

    p = sub.add_parser(
        "certify", help="constructive unknotting set of size <= (c+1)/2"
    )
    p.add_argument("--pd", required=True)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("boolcheck", help="Boolean algebra axioms and order check")
    p.add_argument("--pd", required=True)
    p.add_argument("--pair", help="excluded pair, e.g. R1,R2")
    p.set_defaults(fn=cmd_boolcheck)

    p = sub.add_parser("catalog", help="run every check over a catalog file")
    p.add_argument("--path", help=f"catalog file (default: ${CATALOG_ENV} or bundled)")
    p.set_defaults(fn=cmd_catalog)
    return parser


def _write_record(args: argparse.Namespace, rec: dict[str, Any], elapsed_ms: float) -> None:
    """Append one JSON line; ``elapsed_ms`` fills in only where the command
    timed nothing itself."""
    if "command" not in rec:
        rec = {"command": args.command, **rec}
    rec.setdefault("elapsed_ms", elapsed_ms)
    if hasattr(args, "pd"):
        rec.setdefault("pd", args.pd)
    with open(args.records, "a") as fh:
        fh.write(json.dumps(rec) + "\n")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        # each record reaches the file as soon as the command produces it,
        # so the ones before a failing entry survive the failure
        for rec in args.fn(args):
            if args.records:
                _write_record(args, rec, round(1000 * (time.monotonic() - t0), 2))
    except ValueError as exc:
        if type(exc).__module__ == "builtins":  # untyped: a fault, not bad input
            raise
        print(f"regionknot: {type(exc).__name__}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None  # the status argparse gives bad usage
    return 0


if __name__ == "__main__":
    sys.exit(main())
