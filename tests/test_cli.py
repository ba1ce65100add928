import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import barlowlat
from barlowlat.cli import main, parse_class_expr, run_verification
from barlowlat.errors import SchemaError
from barlowlat.fixtures import load_fixtures, shipped_fixture_text
from barlowlat.lattice import DivisorClass


def _run_subprocess(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(barlowlat.__file__).parent.parent))
    return subprocess.run(
        [sys.executable, "-m", "barlowlat.cli", *argv],
        capture_output=True, text=True, env=env,
    )


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_shipped_passes(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["fail"] == 0
    by_id = {c["id"]: c for c in report["checks"]}
    assert by_id["root-count"]["witness"]["count"] == 240
    assert by_id["height"]["witness"]["height"] == 2
    assert by_id["root-partition"]["witness"]["sizes"] == [84, 28, 128]
    assert all(c["status"] == "pass" for c in report["checks"])


def test_verify_check_order_stable(capsys):
    code, out, _ = run_cli(capsys, "verify", "--stars", "both")
    assert code == 0
    ids = [c["id"] for c in json.loads(out)["checks"]]
    assert ids == [
        "fixture-tables",
        "simple-roots-gram",
        "canonical-basis",
        "b-reconstruction",
        "b-relation",
        "root-count",
        "root-partition",
        "vanishing-classification",
        "sequence-chi",
        "num-exceptional",
        "ledger-chi",
        "ext-bounds",
        "formality-zero",
        "formality-nonzero",
        "height",
        "fullness",
    ]
    code, out, _ = run_cli(capsys, "verify", "--stars", "zero")
    assert len(json.loads(out)["checks"]) == 15


def test_verify_report_written_and_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    code1, _, _ = run_cli(capsys, "verify", "--report", str(p1))
    code2, _, _ = run_cli(capsys, "verify", "--report", str(p2))
    assert code1 == code2 == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_perturbed_fixture_fails(tmp_path, capsys):
    raw = json.loads(shipped_fixture_text())
    raw["curve_table"]["matrix"][0][8] = 4
    raw["curve_table"]["matrix"][8][0] = 4
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    code, out, _ = run_cli(capsys, "verify", "--fixtures", str(path))
    assert code == 1
    report = json.loads(out)
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert failed
    assert failed[0]["id"] == "fixture-tables"
    assert "rank" in failed[0]["witness"]["error"]


def test_verify_missing_fixture_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--fixtures", "/no/such/file.json")
    assert code == 2
    assert "fixture" in err


def test_verify_text_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--format", "text", "--stars", "zero")
    assert code == 0
    assert "passed" in out
    assert "[pass] height" in out


def test_roots_count(capsys):
    code, out, _ = run_cli(capsys, "roots", "--count")
    assert code == 0
    assert out.strip() == "240"


def test_roots_json(capsys):
    code, out, _ = run_cli(capsys, "roots")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 240
    assert len(data["roots"]) == 240
    assert data["lattice"]["rank"] == 9
    assert data["roots"] == sorted(data["roots"])


def test_classes_dump(capsys):
    code, out, _ = run_cli(capsys, "classes")
    assert code == 0
    data = json.loads(out)
    assert data["basis"][0] == "K"
    assert data["entries"]["K"] == [1, 0, 0, 0, 0, 0, 0, 0, 0]
    assert data["entries"]["e"] == [0, 1, 0, 0, 0, 0, 0, 0, 0]
    assert len(data["entries"]) == 14 + 8 + 1 + 32 + 11


def test_fixtures_dir_env(tmp_path, capsys, monkeypatch):
    fixture_path = tmp_path / "barlow.json"
    fixture_path.write_text(shipped_fixture_text())
    monkeypatch.setenv("FIXTURES_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "roots", "--count")
    assert code == 0 and out.strip() == "240"
    monkeypatch.setenv("FIXTURES_DIR", str(tmp_path / "missing"))
    code, _, err = run_cli(capsys, "roots", "--count")
    assert code == 2 and "fixture" in err


def test_chi_hom_flags(capsys):
    code, out, _ = run_cli(capsys, "chi", "--from", "L1", "--to", "L3")
    assert code == 0
    assert out.strip() == "-1"
    code, out, _ = run_cli(capsys, "chi", "--from", "L3", "--to", "L4")
    assert out.strip() == "1"


def test_chi_of_expression(capsys):
    code, out, _ = run_cli(capsys, "chi", "--cls", "e + 2K")
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run_cli(capsys, "chi", "--cls", "0")
    assert out.strip() == "1"


def test_chi_requires_arguments(capsys):
    code, _, err = run_cli(capsys, "chi")
    assert code == 2
    assert "requires" in err


def test_chi_unknown_name(capsys):
    code, _, err = run_cli(capsys, "chi", "--cls", "Zork")
    assert code == 2
    assert "unknown" in err.lower()


def test_height_command(capsys):
    code, out, _ = run_cli(capsys, "height")
    assert code == 0
    data = json.loads(out)
    assert data["height"] == 2
    assert data["single_segment_bound"] == 2
    assert data["verdict"] == "not_full"


def test_height_external_matrix(tmp_path, capsys):
    n = 2
    rows = [[None] * 4 for _ in range(4)]
    for i in range(2, 5):
        for j in range(max(1, i - n), i):
            rows[i - 1][j - 1] = 1
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": n, "rows": rows}))
    code, out, _ = run_cli(capsys, "height", "--matrix", str(path))
    assert code == 0
    assert json.loads(out)["height"] == 1


def _null_dp_cell_matrix():
    rows = [[None] * 4 for _ in range(4)]
    for i in range(3, 5):
        for j in range(i - 2, i):
            rows[i - 1][j - 1] = 1
    return {"n": 2, "rows": rows}   # cell (target 2, source 1) is null


@pytest.mark.parametrize(
    "matrix",
    [[1, 2], {"n": 0, "rows": []}, _null_dp_cell_matrix()],
    ids=["json-list", "n-zero", "null-dp-cell"],
)
def test_height_unusable_matrix_exits_2(tmp_path, matrix):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix))
    proc = _run_subprocess("height", "--matrix", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("cannot read bound matrix:")


def test_formality_command(capsys):
    code, out, _ = run_cli(capsys, "formality", "--stars", "both")
    assert code == 0
    data = json.loads(out)
    assert data["nonzero"]["5"]["min_degree"] == 7
    assert data["zero"]["5"]["min_degree"] == "inf"
    assert data["nonzero"]["4"]["min_degree"] == 6
    assert data["nonzero"]["3"]["min_degree"] == 4
    for d in range(3, 12):
        assert data["zero"][str(d)]["forced_zero"]
        assert data["nonzero"][str(d)]["forced_zero"]


def test_search_command(capsys):
    code, out, _ = run_cli(capsys, "search", "--limit", "2")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    assert len(data["configurations"][0]["a"]) == 8
    assert len(data["configurations"][0]["b"]) == 2


def test_decompose_zero(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--target", "0")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    assert data["solutions"] == [{}]


def test_decompose_expression(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--target", "E1+C1p",
        "--generators", "E1,C1p,K", "--caps", "2",
    )
    assert code == 0
    data = json.loads(out)
    assert {"E1": 1, "C1p": 1} in data["solutions"]


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--limit", "0"],
        ["decompose", "--target", "0", "--caps", "-1"],
        ["height", "--dim", "0"],
    ],
)
def test_out_of_range_argument_exits_2(argv):
    proc = _run_subprocess(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"argument {argv[-2]}:" in proc.stderr


def test_parse_class_expr():
    fix = load_fixtures(validate=False)
    fix.validate_b_classes()
    k = fix.curve_class("K")
    assert parse_class_expr(fix, "2K") == 2 * k
    assert parse_class_expr(fix, "5K - E3p - Bp000") == (
        5 * k - fix.curve_class("E3p") - fix.curve_class("Bp000")
    )
    assert parse_class_expr(fix, "0") == DivisorClass.zero(9)
    for text in ("5K", "5*K", "5 K"):
        assert parse_class_expr(fix, text) == 5 * k
    for text in ("K + + E1 @", "K K", "2K E1"):
        with pytest.raises(SchemaError):
            parse_class_expr(fix, text)


def test_chi_terms_without_sign_exit_2(capsys):
    code, out, err = run_cli(capsys, "chi", "--cls", "K K")
    assert code == 2
    assert out == ""
    assert "cannot parse class expression" in err


GOLDEN = Path(__file__).parent / "data"


def _rank_mutant(raw):
    raw["curve_table"]["matrix"][0][8] = 4
    raw["curve_table"]["matrix"][8][0] = 4


def _l_values_plus_mutant(raw):
    raw["b_table"]["l_values"]["plus"] += 1


def test_verify_reports_match_golden():
    # the lattice checks are skipped after the rank mutant; after the l_values
    # mutant b-reconstruction and every check reading the genus-3 classes
    # fail with the same message
    for name, mutate in (
        ("shipped", None),
        ("curve_rank", _rank_mutant),
        ("l_values_plus", _l_values_plus_mutant),
    ):
        raw = json.loads(shipped_fixture_text())
        if mutate:
            mutate(raw)
        report = run_verification(load_fixtures(raw, validate=False), "both")
        del report["version"]
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert text == (GOLDEN / f"report_{name}.json").read_text(), name
