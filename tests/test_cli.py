"""Command-line surface: verbs, records file, catalog ingestion."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from regionknot.catalog import bundled_catalog
from regionknot.cli import main
from regionknot.construct import add_kink

TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
# rational_diagram([2, 3, 4, 2]): irreducible, 11 crossings, above UR_GUARD
ELEVEN = (
    "X[1,8,2,9] X[9,2,10,3] X[3,22,4,1] X[21,4,22,5] X[5,20,6,21] X[19,11,20,10] "
    "X[11,19,12,18] X[17,13,18,12] X[13,17,14,16] X[15,6,16,7] X[7,14,8,15]"
)
GOLDEN_CATALOG = Path(__file__).resolve().parents[1] / "bench" / "golden_catalog.jsonl"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_regions(capsys):
    code, out = run(capsys, "regions", "--pd", TREFOIL)
    assert code == 0
    assert "regions=5" in out and "irreducible=True" in out


def test_regions_round_diagram(capsys):
    code, out = run(capsys, "regions", "--pd", "")
    assert code == 0
    assert "regions=2" in out and "|B|=1" in out and "|W|=1" in out


def test_solve_four_solutions(capsys):
    code, out = run(capsys, "solve", "--pd", TREFOIL, "--crossings", "c1,c2")
    assert code == 0
    assert out.count("solution") == 4
    assert "minimum" in out


def test_solve_avoiding(capsys):
    code, out = run(capsys, "solve", "--pd", TREFOIL, "--crossings", "c1", "--avoid", "R1,R2")
    assert code == 0
    assert "unique solution" in out


def test_splice(capsys):
    code, out = run(capsys, "splice", "--pd", TREFOIL, "--crossing", "c2")
    assert code == 0
    assert "matches linear solve: True" in out


def test_ur(capsys):
    code, out = run(capsys, "ur", "--pd", TREFOIL)
    assert code == 0
    assert "u_R = 1" in out
    assert "<=(c+1)/2: yes" in out


def test_certify(capsys):
    code, out = run(capsys, "certify", "--pd", TREFOIL)
    assert code == 0
    assert "unknots: True" in out


def test_boolcheck(capsys):
    code, out = run(capsys, "boolcheck", "--pd", TREFOIL)
    assert code == 0
    assert "6 excluded pair(s): all ok" in out


def test_records_jsonl(tmp_path, capsys):
    records = tmp_path / "out.jsonl"
    run(capsys, "--records", str(records), "ur", "--pd", TREFOIL)
    run(capsys, "--records", str(records), "regions", "--pd", TREFOIL)
    lines = records.read_text().strip().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["command"] == "ur"
    assert first["ur"] == 1
    assert first["pd"] == TREFOIL
    assert "elapsed_ms" in first
    second = json.loads(lines[1])
    assert second["command"] == "regions"
    assert second["regions"] == 5


def test_catalog_file_and_env(tmp_path, capsys, monkeypatch):
    cat = tmp_path / "small.txt"
    cat.write_text(f"# two entries\n3_1\t{TREFOIL}\ntrefoil_again\t{TREFOIL}\n")
    code, out = run(capsys, "catalog", "--path", str(cat))
    assert code == 0
    assert "3_1" in out and "trefoil_again" in out

    monkeypatch.setenv("REGIONKNOT_CATALOG", str(cat))
    records = tmp_path / "records.jsonl"
    code, out = run(capsys, "--records", str(records), "catalog")
    assert code == 0
    recs = [json.loads(line) for line in records.read_text().strip().splitlines()]
    assert len(recs) == 2
    assert all(r["bounds_ok"] for r in recs)
    assert all(r["splice_ok"] for r in recs)
    assert all(r["rank"] == r["crossings"] for r in recs)


def test_bad_crossing_exits_nonzero(capsys):
    with pytest.raises(SystemExit):
        main(["solve", "--pd", TREFOIL, "--crossings", "c9"])


def run_bad(capsys, *argv) -> str:
    """Run a command that must fail on its input; return its one stderr line."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    return err


def test_splice_bad_crossing_names_it_one_based(capsys):
    err = run_bad(capsys, "splice", "--pd", TREFOIL, "--crossing", "c9")
    assert "c9" in err and "c1..c3" in err
    assert "crossing 8" not in err


def test_avoid_same_region_twice_names_it_one_based(capsys):
    err = run_bad(capsys, "solve", "--pd", TREFOIL, "--crossings", "c1", "--avoid", "R1,R1")
    assert "R1,R1" in err and "NotBlackWhitePair" in err
    assert "(0, 0)" not in err


def test_singular_avoid_names_the_regions(capsys):
    # a double kink on the trefoil: a nonzero kernel element avoids R1 and R4
    pd = "X[5,8,6,9] X[7,10,8,1] X[9,6,10,7] X[1,5,2,4] X[2,4,3,3]"
    err = run_bad(capsys, "solve", "--pd", pd, "--crossings", "c1", "--avoid", "R1,R4")
    assert err.startswith("regionknot: Singular:")
    assert "R1,R4" in err and "reducible" in err
    assert "column" not in err


def test_pair_needs_two_regions(capsys):
    err = run_bad(capsys, "boolcheck", "--pd", TREFOIL, "--pair", "R1")
    assert "expected 2" in err


def test_non_sphere_code_is_one_line(capsys):
    err = run_bad(capsys, "regions", "--pd", "X[1,2,3,4] X[2,3,1,4]")
    assert err.startswith("regionknot: NotPlanar:")


def test_catalog_line_without_tab_is_one_line(tmp_path, capsys):
    cat = tmp_path / "spaces.txt"
    cat.write_text(f"# a comment\n3_1 {TREFOIL}\n")
    err = run_bad(capsys, "catalog", "--path", str(cat))
    assert err.startswith("regionknot: MalformedCatalog: line 2:")


def test_catalog_bad_pd_names_the_line(tmp_path, capsys):
    cat = tmp_path / "bad.txt"
    cat.write_text(f"3_1\t{TREFOIL}\nbad\tX[1,2,3]\n")
    err = run_bad(capsys, "catalog", "--path", str(cat))
    assert err == "regionknot: MalformedCatalog: line 2 (bad): MalformedToken: bad token 'X[1,2,3]'\n"


def test_catalog_non_sphere_code_names_the_line(tmp_path, capsys):
    cat = tmp_path / "torus.txt"
    cat.write_text("# a comment\nflat\tX[1,2,3,4] X[2,3,1,4]\n")
    err = run_bad(capsys, "catalog", "--path", str(cat))
    assert err.startswith("regionknot: MalformedCatalog: line 2 (flat): NotPlanar: 2 regions")


def test_catalog_missing_file_is_one_line(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    err = run_bad(capsys, "catalog", "--path", str(missing))
    assert err == f"regionknot: MalformedCatalog: cannot read {missing} (FileNotFoundError)\n"


def test_catalog_full_bundled_table(tmp_path, capsys):
    records = tmp_path / "full.jsonl"
    code, out = run(capsys, "--records", str(records), "catalog")
    assert code == 0
    recs = [json.loads(line) for line in records.read_text().strip().splitlines()]
    assert len(recs) == 35
    assert all(r["bounds_ok"] for r in recs)
    assert all(r["splice_ok"] for r in recs)
    assert all(r["bool_ok"] for r in recs)
    assert all(r["certificate"]["le_half_c_plus_1"] for r in recs)
    # Byte for byte the records the benchmark checks against, timing aside.
    golden = GOLDEN_CATALOG.read_text().splitlines()
    assert len(golden) == len(recs)
    for rec, expected in zip(recs, golden):
        del rec["elapsed_ms"]
        assert json.dumps(rec) == expected, rec["name"]


def test_catalog_above_ur_guard(tmp_path, capsys):
    cat = tmp_path / "eleven.txt"
    cat.write_text(f"11_rational\t{ELEVEN}\n")
    records = tmp_path / "records.jsonl"
    code, out = run(capsys, "--records", str(records), "catalog", "--path", str(cat))
    assert code == 0
    rec = json.loads(records.read_text())
    assert rec["crossings"] == 11 and rec["irreducible"]
    assert "ur" not in rec
    assert rec["bounds_ok"] is None
    row = out.strip().splitlines()[-1].split()
    assert row[0] == "11_rational" and row[6] == "-" and row[-1] == "-"


def test_catalog_records_survive_a_failing_entry(tmp_path, capsys):
    trefoil = bundled_catalog()[0]
    kinked = add_kink(trefoil.diagram, 1)  # reducible: the certificate search refuses it
    cat = tmp_path / "kinked.txt"
    cat.write_text(f"{trefoil.name}\t{trefoil.pd}\nkinked\t{kinked.pd_code()}\n")
    records = tmp_path / "records.jsonl"
    err = run_bad(capsys, "--records", str(records), "catalog", "--path", str(cat))
    assert err.startswith("regionknot: ReducibleDiagram:")
    (line,) = records.read_text().splitlines()
    rec = json.loads(line)
    del rec["elapsed_ms"]
    assert json.dumps(rec) == GOLDEN_CATALOG.read_text().splitlines()[0]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "regionknot.cli", "regions", "--pd", TREFOIL],
        capture_output=True,
        text=True,
        cwd=Path(__file__).resolve().parents[1] / "src",  # importable uninstalled
    )
    assert proc.returncode == 0
    assert "regions=5" in proc.stdout
