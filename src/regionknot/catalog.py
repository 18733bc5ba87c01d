"""Catalog files: named PD codes, one per line, with a bundled knot table."""

from __future__ import annotations

from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .diagram import (
    EdgeLabelNotTwice,
    KnotDiagram,
    MalformedToken,
    MultipleComponents,
    NotPlanar,
    parse_pd,
)


class MalformedCatalog(ValueError):
    """A catalog file that cannot be read, or a line that is not a named
    sphere diagram."""


class CatalogEntry(NamedTuple):
    name: str
    pd: str
    diagram: KnotDiagram

    @property
    def crossing_number(self) -> int:
        return self.diagram.n_crossings


def parse_catalog(text: str) -> list[CatalogEntry]:
    """Read `name<TAB>pd_code` lines; `#` starts a comment."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "\t" not in line:
            raise MalformedCatalog(f"line {lineno}: expected name<TAB>pd_code")
        name, pd = (part.strip() for part in line.split("\t", 1))
        try:
            diagram = parse_pd(pd)
        except (MalformedToken, EdgeLabelNotTwice, MultipleComponents, NotPlanar) as exc:
            raise MalformedCatalog(f"line {lineno} ({name}): {type(exc).__name__}: {exc}") from exc
        entries.append(CatalogEntry(name, pd, diagram))
    return entries


def load_catalog(path: str | Path) -> list[CatalogEntry]:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedCatalog(f"cannot read {path} ({type(exc).__name__})") from exc
    return parse_catalog(text)


def bundled_catalog() -> list[CatalogEntry]:
    """The packaged table of prime knots with 3..8 crossings (35 entries)."""
    text = (
        resources.files("regionknot").joinpath("data/knots_3_8.txt").read_text()
    )
    return parse_catalog(text)


def bundled_diagram(name: str) -> KnotDiagram:
    for entry in bundled_catalog():
        if entry.name == name:
            return entry.diagram
    raise KeyError(f"no bundled knot named {name}")
