import ast
import collections
import contextlib
import copy
import functools
import hashlib
import importlib.util
import io
import json
import operator
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import barlowlat
from barlowlat import cli, linalg
from barlowlat.cli import main, parse_class_expr, run_verification
from barlowlat.errors import SchemaError, ToolkitError, UsageError
from barlowlat.fixtures import FixtureSet, load_fixtures, shipped_fixture_text
from barlowlat.lattice import DivisorClass, PicardLattice

from compare_outputs import (
    SHAPE_EDITS, half_integral_e4p, infinite_bound, negative_degree_document, non_fork_document,
    shuffled_keys, swap_e1_c1p, swap_l1_l3, twist_sequence, unknown_curve_in_d1, zero_bounds,
)

#: an array nested deeper than the JSON decoder's recursion limit
DEEPLY_NESTED = "[" * 200000 + "]" * 200000


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


def test_verify_pairs_whole_tables_not_single_cells(monkeypatch):
    # the bilinear checks (genus-3 blocks, chi matrices, root families) read
    # one pairing table each; a cell-by-cell run made 1,014 pair calls
    calls = []
    pair = PicardLattice.pair

    def counted(self, a, b):
        calls.append(None)
        return pair(self, a, b)

    monkeypatch.setattr(PicardLattice, "pair", counted)
    report = run_verification(load_fixtures(validate=False), "both")
    assert report["summary"] == {"pass": 16, "fail": 0, "skipped": 0}
    assert len(calls) <= 40


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


def test_verify_catches_swapped_fork_tips(tmp_path, capsys):
    # D7 and D8 both attach to D6, so the swap keeps the fork Gram and the
    # half-sum takes the other glue tips; the canonical stage sees that e now
    # meets D8, so the lattice checks are skipped and the library rejects it
    raw = json.loads(shipped_fixture_text())
    defs = raw["d8"]["defs"]
    defs["D7"], defs["D8"] = defs["D8"], defs["D7"]
    message = "canonical gram does not match the extended Cartan form"
    with pytest.raises(ToolkitError, match=message):
        load_fixtures(raw)
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(raw))
    code, out, _ = run_cli(capsys, "verify", "--fixtures", str(path))
    report = json.loads(out)
    failed = [(c["id"], c["witness"]["error"])
              for c in report["checks"] if c["status"] == "fail"]
    assert code == 1
    assert failed == [("canonical-basis", message)]
    assert report["summary"] == {"pass": 8, "fail": 1, "skipped": 7}
    code, out, err = run_cli(capsys, "classes", "--fixtures", str(path))
    assert (code, out, err) == (1, "", f"check failed: {message}\n")


@pytest.mark.parametrize("mutate, failed", [
    (swap_e1_c1p, [("fixture-tables", "diagonal entry for E1 is -2, expected -1"),
                   ("simple-roots-gram", "simple-root gram differs at (D1, D3): -1 != 0"),
                   ("canonical-basis", "diagonal entry for E1 is -2, expected -1")]),
    (unknown_curve_in_d1, [("simple-roots-gram", "'X' is not a curve name"),
                           ("canonical-basis", "'X' is not a curve name")]),
    (half_integral_e4p, [("canonical-basis", "E4p is not integral in the canonical basis")]),
], ids=["swapped-E1-C1p", "unknown-curve-in-D1", "half-integral-E4p"])
def test_verify_catches_a_curve_table_or_fork_edit_at_canonical_basis(
    tmp_path, capsys, mutate, failed
):
    raw = json.loads(shipped_fixture_text())
    mutate(raw)
    with pytest.raises(ToolkitError, match=re.escape(failed[-1][1])):
        load_fixtures(raw)
    code, out, err = run_cli(capsys, "verify", "--fixtures", _write_edited(tmp_path, mutate))
    report = json.loads(out)
    assert (code, err) == (1, "")
    assert [(c["id"], c["witness"]["error"])
            for c in report["checks"] if c["status"] == "fail"] == failed
    assert report["summary"]["skipped"] == 7


def test_chi_names_a_curve_that_is_not_integral_in_the_canonical_basis(tmp_path, capsys):
    path = _write_edited(tmp_path, half_integral_e4p)
    assert run_cli(capsys, "chi", "--cls", "K", "--fixtures", path) == (
        1, "", "check failed: E4p is not integral in the canonical basis\n")


def test_verify_rejects_a_self_consistent_non_fork_document(tmp_path, capsys):
    message = "input Gram is not the expected fork-at-d6 form"
    raw = non_fork_document(json.loads(shipped_fixture_text()))
    with pytest.raises(ToolkitError, match=message):
        load_fixtures(raw)
    path = tmp_path / "non-fork.json"
    path.write_text(json.dumps(raw))
    code, out, _ = run_cli(capsys, "verify", "--fixtures", str(path))
    report = json.loads(out)
    failed = [(c["id"], c["witness"]["error"])
              for c in report["checks"] if c["status"] == "fail"]
    assert code == 1
    assert failed == [("simple-roots-gram", message), ("canonical-basis", message)]
    assert report["summary"]["skipped"] == 7


def test_verify_reports_a_base_class_of_neither_glue_parity(tmp_path, capsys):
    raw = json.loads(shipped_fixture_text())
    raw["b_table"]["c_table"]["C1p"][0][0] += 1
    path = tmp_path / "parity.json"
    path.write_text(json.dumps(raw))
    code, out, _ = run_cli(capsys, "verify", "--fixtures", str(path))
    by_id = {c["id"]: c for c in json.loads(out)["checks"]}
    assert code == 1
    assert by_id["canonical-basis"]["status"] == "fail"
    assert by_id["canonical-basis"]["witness"]["error"] == (
        "genus-3 base class is not integral under either glue choice; "
        "the pairing tables are inconsistent"
    )


def _ext_cross_block_cell(raw):
    raw["ext_bounds"]["rows"][11][0] = 1   # cell (12,1), 2 as shipped


def _ext_star_cell_and_shift(raw):
    rows = raw["ext_bounds"]["rows"]
    rows[10][4] = rows[21][15] = 2          # star cell (11,5) and its shift (22,16)


def _chi_star_cell(raw):
    raw["chi_matrix"][10][4] = 1            # Euler pairing of star cell (11,5)


def _cross_block_b_cell(raw):
    raw["b_table"]["cross_block_b_cells"][0] = [0, 1]


def _ext_cell(i, j, value):
    """Set bound cell (i, j), 1-based, to value."""
    def mutate(raw):
        raw["ext_bounds"]["rows"][i - 1][j - 1] = value
    return mutate


def _write_edited(tmp_path, mutate):
    raw = json.loads(shipped_fixture_text())
    mutate(raw)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(raw))
    return str(path)


B_CELL_ERROR = "Bp000.Bp101 = 3, block formula says 4"


@pytest.mark.parametrize("mutate, failed", [
    (_ext_cross_block_cell,
     [("height", "height 1, single-segment bound 1, expected 2, 2")]),
    (_ext_star_cell_and_shift,
     [("ext-bounds", "bound cell (11,5) = 2 not among ['1', 'inf']")]),
    (_chi_star_cell,
     [("sequence-chi", "chi matrix differs at (11,5): 0 != 1"),
      ("num-exceptional", "chi matrix differs at (11,5): 0 != 1"),
      ("ledger-chi", "star cell (11,5) has chi 1, expected 0")]),
    (_cross_block_b_cell,
     [(row, B_CELL_ERROR) for row in ("b-reconstruction", "b-relation", "root-partition",
                                      "sequence-chi", "num-exceptional")]),
    (_ext_cell(1, 1, 0), [("ext-bounds", "bound cell (1,1) should be absent")]),
    (_ext_cell(2, 1, None),
     [("ext-bounds", "bound cell (2,1) should be defined"),
      ("height", "cell (target 2, source 1) carries no data"),
      ("fullness", "cell (target 2, source 1) carries no data")]),
    (_ext_cell(5, 3, 5), [("ext-bounds", "bound cell (5,3) = 5, ledger gives 2")]),
    (_ext_cell(16, 14, 5), [("ext-bounds", "bound cell (16,14) differs from (5,3)")]),
    (swap_l1_l3,
     [("num-exceptional", "shipped sequence is not numerically exceptional"),
      ("ledger-chi", "cell (3,1) = (0, 1, 0) has alternating sum -1, chi table says 0")]),
    (zero_bounds,
     [("ext-bounds", "bound cell (2,1) = 0, ledger gives inf"),
      ("height", "height -10, single-segment bound 0, expected 2, 2"),
      ("fullness", "verdict inconclusive, expected not_full")]),
], ids=["ext-cross-block-cell", "ext-star-cell", "chi-star-cell", "cross-block-b-cell",
        "ext-diagonal-cell", "ext-missing-cell", "ext-ledger-cell", "ext-shifted-cell",
        "swapped-L1-L3", "zero-bounds"])
def test_verify_fails_the_rows_a_table_edit_breaks(tmp_path, capsys, mutate, failed):
    # the ext_bounds check compares only the first block with the ledger, so
    # a cross-block cell is seen by the height alone
    code, out, err = run_cli(capsys, "verify", "--fixtures", _write_edited(tmp_path, mutate))
    report = json.loads(out)
    assert (code, err) == (1, "")
    assert [(c["id"], c["witness"]["error"])
            for c in report["checks"] if c["status"] == "fail"] == failed
    assert report["summary"] == {"pass": 16 - len(failed), "fail": len(failed), "skipped": 0}


def test_verify_text_format_prints_the_error_under_its_row(tmp_path, capsys):
    path = _write_edited(tmp_path, _ext_cross_block_cell)
    code, out, _ = run_cli(capsys, "verify", "--format", "text", "--fixtures", path)
    lines = out.splitlines()
    row = lines.index("[fail] height: anticanonical height of the extended collection equals 2")
    assert code == 1
    assert lines[row + 1] == "       height 1, single-segment bound 1, expected 2, 2"
    assert lines[-1] == "15 passed, 1 failed, 0 skipped"


def test_formality_exits_1_when_the_star_choices_disagree(tmp_path, capsys):
    def mutate(raw):
        raw["ledger"]["entries"]["10,1"] = [1, 0, 0]
    path = _write_edited(tmp_path, mutate)
    code, out, err = run_cli(capsys, "formality", "--stars", "both", "--fixtures", path)
    assert (code, err) == (1, "check failed: verdicts differ between star choices\n")
    assert set(json.loads(out)) == {"zero", "nonzero"}


@pytest.mark.parametrize("edit", [None, "swapped-fork-tips"])
def test_verify_reads_the_canonical_stage_only_in_its_row(monkeypatch, edit):
    # the stage's time and its error belong to the canonical-basis row, which
    # is also the row whose failure skips the lattice rows
    inner_build = FixtureSet.build_canonical
    stage = FixtureSet.__dict__["canonical"].func
    inside, reads = [], []

    def build_canonical(self):
        inside.append(True)
        try:
            return inner_build(self)
        finally:
            inside.pop()

    def canonical(self):
        reads.append(bool(inside))
        return stage(self)

    prop = functools.cached_property(canonical)
    prop.__set_name__(FixtureSet, "canonical")
    monkeypatch.setattr(FixtureSet, "build_canonical", build_canonical)
    monkeypatch.setattr(FixtureSet, "canonical", prop)
    raw = json.loads(shipped_fixture_text())
    if edit:
        defs = raw["d8"]["defs"]
        defs["D7"], defs["D8"] = defs["D8"], defs["D7"]
    report = run_verification(load_fixtures(raw, validate=False), "both")
    assert reads == [True]
    assert report["summary"]["skipped"] == (7 if edit else 0)


def test_only_main_turns_an_error_into_an_exit_code():
    # a check fails by ToolkitError alone (asserts vanish under python -O),
    # and no command prints its own usage line and returns 2
    package = Path(barlowlat.__file__).parent
    for path in sorted(package.glob("*.py")):
        assert "AssertionError" not in path.read_text(encoding="utf-8"), path.name
    tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    for func in tree.body:
        if isinstance(func, ast.FunctionDef) and func.name != "main":
            returned = [ast.unparse(node.value) for node in ast.walk(func)
                        if isinstance(node, ast.Return) and node.value is not None]
            assert "2" not in returned, func.name


@pytest.mark.parametrize("argv,err", [
    (["chi", "--from", "L1"], "chi requires either --cls or both --from and --to"),
    (["chi", "--to", "L3"], "chi requires either --cls or both --from and --to"),
    (["decompose", "--target", "E1", "--generators", " , "],
     "--generators names no generator"),
    (["decompose", "--target", "E1", "--generators", "E1,E1"],
     "--generators names E1 more than once"),
], ids=["chi-from", "chi-to", "generators-empty", "generators-repeated"])
def test_argument_errors_are_reported_before_the_fixture_loads(tmp_path, capsys, argv, err):
    # the document fails the canonical stage, which the commands would read
    path = tmp_path / "non-fork.json"
    path.write_text(json.dumps(non_fork_document(json.loads(shipped_fixture_text()))))
    code, out, got = run_cli(capsys, *argv, "--fixtures", str(path))
    assert (code, out, got) == (2, "", err + "\n")


def test_verify_runs_each_elimination_and_height_once(monkeypatch):
    calls = collections.Counter()

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(linalg, "det_exact")
    counted(linalg, "signature_symmetric")
    counted(cli, "height")
    report = run_verification(load_fixtures(validate=False), "both")
    assert report["summary"]["fail"] == 0
    assert calls == {"det_exact": 1, "signature_symmetric": 1, "height": 1}


def test_verify_missing_fixture_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--fixtures", "/no/such/file.json")
    assert code == 2
    assert "fixture" in err


def test_verify_directory_as_fixture_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "verify", "--fixtures", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("fixture error:") and "cannot be read" in err


def test_verify_undecodable_fixture_exits_2(tmp_path, capsys):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xff\xfe{")
    code, out, err = run_cli(capsys, "verify", "--fixtures", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("fixture error:") and "cannot be read" in err


def test_verify_deeply_nested_fixture_exits_2(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(DEEPLY_NESTED)
    proc = _run_subprocess("verify", "--fixtures", str(path))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("fixture error:") and "is not valid JSON" in proc.stderr
    assert proc.stderr.count("\n") == 1


def _repeat_key(text, key, first):
    """The JSON text with `key` given once more, first, with the value `first`."""
    return text.replace(f'"{key}": ', f'"{key}": {json.dumps(first)}, "{key}": ', 1)


@pytest.mark.parametrize("first", [[0, 0, 1], [9, 9, 9]], ids=["same-value", "other-value"])
def test_verify_fixture_repeating_a_key_exits_2(tmp_path, capsys, first):
    # json.loads alone would keep the last value, and the document would pass
    text = json.dumps(json.loads(shipped_fixture_text()))
    assert json.loads(text)["ledger"]["entries"]["5,3"] == [0, 0, 1]
    path = tmp_path / "twice.json"
    path.write_text(_repeat_key(text, "5,3", first))
    code, out, err = run_cli(capsys, "verify", "--fixtures", str(path))
    assert (code, out) == (2, "")
    assert err == f"fixture error: fixture file {path} is not valid JSON: duplicate key '5,3'\n"


def test_verify_infinite_bound_cell_exits_2(tmp_path, capsys):
    # json reads the non-standard number Infinity as a float; a bound cell is
    # an integer, "inf" or null
    path = _write_edited(tmp_path, infinite_bound)
    assert "Infinity" in Path(path).read_text()
    code, out, err = run_cli(capsys, "verify", "--fixtures", path)
    assert (code, out, err) == (2, "", "fixture error: bad bound entry inf in row 2\n")


def test_height_matrix_infinite_cell_exits_2(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"n": 1, "rows": [[null, null], [1e999, null]]}')
    code, out, err = run_cli(capsys, "height", "--matrix", str(path))
    assert (code, out) == (2, "")
    assert err == "cannot read bound matrix: bad bound entry inf in row 2\n"


def test_verify_unwritable_report_exits_2(tmp_path):
    target = tmp_path / "no_such_dir" / "x.json"
    proc = _run_subprocess("verify", "--report", str(target))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and str(target) in proc.stderr


@pytest.mark.parametrize("argv, prefix", [
    (["verify", "--fixtures", ""], "fixture error: fixture file . cannot be read: "),
    (["height", "--matrix", ""], "cannot read bound matrix: "),
    (["verify", "--report", ""], "report error: "),
], ids=["verify-fixtures", "height-matrix", "verify-report"])
def test_an_empty_path_argument_names_the_current_directory(capsys, argv, prefix):
    # an empty path is the path ".", not an absent option: a script passing
    # an unset variable must not get the shipped document's verdict
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(prefix) and err.count("\n") == 1


def test_an_empty_fixtures_dir_means_unset(capsys, monkeypatch):
    monkeypatch.setenv("FIXTURES_DIR", "")
    code, out, _ = run_cli(capsys, "roots", "--count")
    assert (code, out) == (0, "240\n")


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


@pytest.mark.parametrize("extra", [["--from", "L1"], ["--to", "L3"], ["--from", "L1", "--to", "L3"]])
def test_chi_cls_with_from_or_to_exits_2(capsys, extra):
    code, out, err = run_cli(capsys, "chi", "--cls", "K", *extra)
    assert (code, out) == (2, "")
    assert err == "chi takes either --cls or --from and --to, not both\n"


def test_chi_unknown_name(capsys):
    code, _, err = run_cli(capsys, "chi", "--cls", "Zork")
    assert code == 2
    assert "unknown" in err.lower()


def test_unknown_name_is_one_line_with_exit_2(capsys):
    code, out, err = run_cli(capsys, "chi", "--cls", "FOO")
    assert (code, out, err) == (2, "", "unknown name: unknown class name 'FOO'\n")


def test_errors_defines_the_four_reported_classes_and_src_raises_only_them():
    # cli.main tells failures apart by these four classes alone, so a raise
    # of any other name from barlowlat.errors would be a class nobody reads
    package = Path(barlowlat.__file__).parent
    tree = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name: [ast.unparse(b) for b in node.bases]
               for node in tree.body if isinstance(node, ast.ClassDef)}
    assert classes == {"ToolkitError": ["Exception"], "UsageError": ["ToolkitError"],
                       "SchemaError": ["ToolkitError"], "UnknownName": ["ToolkitError"]}
    modules = ("errors", "barlowlat.errors")
    raised = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module in modules
                    for alias in node.names}
        assert imported <= set(classes), path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Attribute) and ast.unparse(exc.value) in modules:
                    assert exc.attr in classes, (path.name, exc.attr)
                    raised.add(exc.attr)
                elif isinstance(exc, ast.Name) and exc.id in imported:
                    raised.add(exc.id)
    assert raised == set(classes)


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
    "text",
    [json.dumps([1, 2]), json.dumps({"n": 0, "rows": []}),
     json.dumps(_null_dp_cell_matrix()), DEEPLY_NESTED],
    ids=["json-list", "n-zero", "null-dp-cell", "deeply-nested"],
)
def test_height_unusable_matrix_exits_2(tmp_path, text):
    path = tmp_path / "m.json"
    path.write_text(text)
    proc = _run_subprocess("height", "--matrix", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("cannot read bound matrix:")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("first", [2, 3], ids=["same-value", "other-value"])
def test_height_matrix_repeating_a_key_exits_2(tmp_path, capsys, first):
    rows = [[None] * 4 for _ in range(4)]
    for i in range(2, 5):
        for j in range(max(1, i - 2), i):
            rows[i - 1][j - 1] = 1
    path = tmp_path / "m.json"
    path.write_text(_repeat_key(json.dumps({"n": 2, "rows": rows}), "n", first))
    code, out, err = run_cli(capsys, "height", "--matrix", str(path))
    assert (code, out, err) == (2, "", "cannot read bound matrix: duplicate key 'n'\n")


def test_a_verify_process_imports_neither_fractions_nor_decimal():
    # every exact result is an int, so the CLI does not pay for these imports;
    # where the interpreter has a builtin sha256 module, the fixture digest
    # comes from it and hashlib, which loads OpenSSL, stays out as well
    unwanted = {"fractions", "decimal"}
    if any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")):
        unwanted |= {"hashlib", "_hashlib"}
    env = dict(os.environ, PYTHONPATH=str(Path(barlowlat.__file__).parent.parent))
    env.pop("FIXTURES_DIR", None)
    probe = (
        "import sys\n"
        "from barlowlat.cli import main\n"
        "code = main(['verify'])\n"
        f"print(code, sorted(set({sorted(unwanted)}) & set(sys.modules)), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, env=env)
    assert proc.stderr == "0 []\n"
    assert json.loads(proc.stdout)["summary"] == {"pass": 16, "fail": 0, "skipped": 0}


def test_import_barlowlat_loads_no_submodule():
    env = dict(os.environ, PYTHONPATH=str(Path(barlowlat.__file__).parent.parent))
    probe = "import sys, barlowlat; print([m for m in sys.modules if m.startswith('barlowlat.')])"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert (proc.stdout, proc.stderr) == ("[]\n", "")


def test_each_public_name_is_read_from_its_defining_module(monkeypatch):
    assert set(barlowlat.__all__) <= set(dir(barlowlat))
    for name in barlowlat.__all__:
        value = getattr(barlowlat, name)
        assert getattr(sys.modules[value.__module__], name) is value
        assert name not in vars(barlowlat)
    # no copy is kept, so a patched function is the one the package returns
    patched = object()
    monkeypatch.setattr(sys.modules["barlowlat.roots"], "enumerate_roots", patched)
    assert barlowlat.enumerate_roots is patched
    with pytest.raises(AttributeError, match="has no attribute 'fixture'"):
        barlowlat.fixture


def test_readme_library_example_runs_as_written():
    # in a fresh interpreter, so the package has imported nothing before it
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    library = readme[readme.index("## Library"):]
    snippet = library.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(Path(barlowlat.__file__).parent.parent))
    env.pop("FIXTURES_DIR", None)
    proc = subprocess.run([sys.executable, "-c", snippet], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("path, value", [
    (("curve_table", "names"), ["x"] * 14),
    (("d8", "gram"), [[0] * 8] * 7),
])
def test_verify_misshapen_table_exits_2(tmp_path, path, value):
    raw = json.loads(shipped_fixture_text())
    raw[path[0]][path[1]] = value
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps(raw))
    proc = _run_subprocess("verify", "--fixtures", str(doc))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("fixture error:")


def _ledger_n12(raw):
    entries = raw["ledger"]["entries"]
    entries.update({f"12,{j}": [0, 0, 0] for j in range(1, 12)})
    entries["12,12"] = [1, 0, 0]
    raw["ledger"]["n"] = 12


def _ext_bounds_n12(raw):
    # the 24x24 window max(1, i - 12) <= j <= i - 1, rows 1..11 as shipped
    old = raw["ext_bounds"]["rows"]
    raw["ext_bounds"] = {"n": 12, "rows": [
        [(old[i - 1][j - 1] if i <= 11 else 1) if max(1, i - 12) <= j <= i - 1 else None
         for j in range(1, 25)]
        for i in range(1, 25)
    ]}


def _ledger_diagonal(raw):
    raw["ledger"]["entries"]["3,3"] = [0, 0, 0]


def _ledger_misplaced_star(raw):
    raw["ledger"]["entries"]["11,3"] = "star"


def _ledger_alias_key(raw):
    # int() reads "05" as 5: the key would replace cell (5,3) by its own value
    raw["ledger"]["entries"]["05,3"] = raw["ledger"]["entries"]["5,3"]


#: the message of each document in compare_outputs.SHAPE_EDITS
SHAPE_MESSAGES = {
    "c_table-without-C2m": "c_table must cover the four (-2)-curves",
    "e_hit_ks-without-E5m": "e_hit_ks must cover the six paired elliptic curves",
    "e_hit_ks-E3p-key-2": "e_hit_ks[E3p] must have keys '0' and '1'",
    "d8.defs-without-D8": "d8.defs must define D1..D8",
    "sequence-without-L11": "sequence must define L1..L11",
    "ledger-without-5,3": "ledger entry 5,3 is missing",
    "ext_bounds-n-0": "n must be a positive integer, got 0",
}


@pytest.mark.parametrize("argv", [("verify",), ("roots", "--count")])
@pytest.mark.parametrize("mutate, message", [
    (_ledger_n12, "ledger.n and ext_bounds.n must be 11, not 12, 11"),
    (_ext_bounds_n12, "ledger.n and ext_bounds.n must be 11, not 11, 12"),
    (_ledger_diagonal, "diagonal entry 3,3 must be [1,0,0]"),
    (_ledger_misplaced_star, "star entries at"),
    (_ledger_alias_key, "bad ledger key '05,3'"),
    *((SHAPE_EDITS[name], message) for name, message in SHAPE_MESSAGES.items()),
], ids=["ledger-n-12", "ext-bounds-n-12", "ledger-diagonal", "ledger-misplaced-star",
        "ledger-alias-key", *SHAPE_MESSAGES])
def test_fixture_shape_rule_broken_exits_2(tmp_path, capsys, argv, mutate, message):
    # n = 11, the star cells and the [1,0,0] diagonal are shape rules
    raw = json.loads(shipped_fixture_text())
    mutate(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, *argv, "--fixtures", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"fixture error: {message}") and err.count("\n") == 1


#: replacement values a fuzzed cell draws from; DELETE removes the key instead
FUZZ_VALUES = [0, 1, -1, 11, 12, 10**6, -10**6, True, None, "x", "inf", "star",
               [], {}, [1, 0, 0], 1.5]
DELETE = object()


def _fuzz_paths(node, prefix=()):
    """Every key path below node, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _fuzz_paths(child, prefix + (key,))


SHIPPED_RAW = json.loads(shipped_fixture_text())
FUZZ_PATHS = list(_fuzz_paths(SHIPPED_RAW))


def _edited(edits):
    raw = copy.deepcopy(SHIPPED_RAW)
    for path, value in edits:
        try:
            parent = functools.reduce(operator.getitem, path[:-1], raw)
            if value is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            pass   # an earlier edit removed or replaced the container
    return raw


@settings(max_examples=150, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(FUZZ_PATHS), st.sampled_from(FUZZ_VALUES + [DELETE])),
    min_size=1, max_size=2,
))
@example([(("ledger", "entries", "3,3", 0), 0)])
@example([(("ledger", "entries", "10,1"), "star")])
def test_verify_fuzzed_fixture_exits_cleanly(tmp_path_factory, edits):
    # exit 0, 1 or 2 and nothing escapes main; a failure leaves its report
    path = tmp_path_factory.mktemp("fuzz") / "fixture.json"
    path.write_text(json.dumps(_edited(edits)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", "--fixtures", str(path)])
    assert code in (0, 1, 2)
    if code == 1:
        assert json.loads(out.getvalue())["summary"]["fail"] >= 1


#: marks where a command form takes the fuzzed class expression
EXPR = object()
#: the other subcommands, in range and out of range; argparse exits 2 on the latter
FUZZ_COMMANDS = [
    ["roots"], ["roots", "--count"], ["classes"], ["height"], ["formality"],
    ["search", "--limit", "2"], ["chi", "--cls", EXPR], ["chi", "--from", EXPR, "--to", "L3"],
    ["decompose", "--target", EXPR, "--caps", "2"],
    ["decompose", "--target", EXPR, "--caps", "2", "--generators", "E1,C1p,K,Bp000"],
    ["search", "--limit", "0"], ["decompose", "--target", "0", "--caps", "-1"],
    ["height", "--dim", "0"], ["search", "--limit", "two"], ["chi", "--cls", EXPR, "--to", "L1"],
]
FUZZ_EXPRS = st.one_of(
    st.sampled_from(["5K - E3p - Bp000", "2*L1 - e", "0", "K K", "", "٣K", "Zork", "+"]),
    st.text(alphabet="KELBpe0123456789+-* ٣", max_size=10),
)


@settings(max_examples=150, deadline=None)
@given(
    edits=st.lists(st.tuples(st.sampled_from(FUZZ_PATHS),
                             st.sampled_from(FUZZ_VALUES + [DELETE])), max_size=1),
    command=st.sampled_from(FUZZ_COMMANDS),
    expr=FUZZ_EXPRS,
)
def test_other_commands_exit_cleanly_on_fuzzed_input(tmp_path_factory, edits, command, expr):
    # exit 0, 1 or 2 and nothing escapes main but argparse's exit
    path = tmp_path_factory.mktemp("fuzz") / "fixture.json"
    path.write_text(json.dumps(_edited(edits)))
    argv = [expr if arg is EXPR else arg for arg in command] + ["--fixtures", str(path)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)


#: verify's rows over the tables and the model stages, fixture-tables to ext-bounds
MODEL_ROWS = ("fixture-tables", "simple-roots-gram", "canonical-basis", "b-reconstruction",
              "b-relation", "root-count", "root-partition", "vanishing-classification",
              "sequence-chi", "num-exceptional", "ledger-chi", "ext-bounds")


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(FUZZ_PATHS), st.sampled_from(FUZZ_VALUES + [DELETE])),
    min_size=1, max_size=2,
))
@example([])
@example([(("d8", "defs", name), SHIPPED_RAW["d8"]["defs"][other])
          for name, other in (("D7", "D8"), ("D8", "D7"))])
@example([(("curve_table", "matrix", 0, 8), 4), (("curve_table", "matrix", 8, 0), 4)])
@example([(("b_table", "l_values", "plus"), 2)])
def test_validate_raises_exactly_when_a_verify_model_row_fails(edits):
    raw = _edited(edits)
    try:
        fix = FixtureSet.from_dict(raw)
    except SchemaError:
        return   # verify exits 2 before any row runs
    try:
        fix.validate()
        rejected = False
    except ToolkitError:
        rejected = True
    report = run_verification(FixtureSet.from_dict(raw), "both")
    failed = {c["id"] for c in report["checks"] if c["status"] == "fail"}
    assert rejected == bool(failed & set(MODEL_ROWS)), sorted(failed)


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
    "generators, message",
    [
        ("E1,E1", "--generators names E1 more than once"),
        ("E1, C1p,K,C1p ,E1", "--generators names C1p, E1 more than once"),
        ("", "--generators names no generator"),
        (",", "--generators names no generator"),
        (" , ,", "--generators names no generator"),
    ],
)
def test_decompose_generators_naming_none_or_repeating_exit_2(capsys, generators, message):
    code, out, err = run_cli(
        capsys, "decompose", "--target", "E1", "--generators", generators
    )
    assert (code, out) == (2, "")
    assert err == f"{message}\n"


def test_decompose_negative_degree_generators_exit_2(tmp_path, capsys):
    # K - 5 in every sequence class leaves each difference L_i - L_j, so the
    # document verifies, but L1 and L11 now have degree -5
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(negative_degree_document(json.loads(shipped_fixture_text()))))
    code, out, _ = run_cli(capsys, "verify", "--fixtures", str(path), "--format", "text")
    assert code == 0 and out.endswith("16 passed, 0 failed, 0 skipped\n")
    code, out, err = run_cli(capsys, "decompose", "--fixtures", str(path), "--target", "K",
                             "--generators", "L1,E1,L11")
    assert (code, out) == (2, "")
    assert err == "generators need nonnegative degree: L1 has degree -5, L11 has degree -5\n"


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
    # "٣" is an Arabic-Indic digit, which a coefficient does not accept
    for text in ("K + + E1 @", "K K", "2K E1", "", "  \t ", "٣K"):
        with pytest.raises(UsageError):
            parse_class_expr(fix, text)


def test_chi_terms_without_sign_exit_2(capsys):
    code, out, err = run_cli(capsys, "chi", "--cls", "K K")
    assert code == 2
    assert out == ""
    assert err == "cannot parse class expression at 'K'\n"


@pytest.mark.parametrize("argv, err", [
    (["chi", "--cls", "٣K"], "cannot parse class expression at '٣K'"),
    (["decompose", "--target", ""], "empty class expression"),
], ids=["chi-non-ascii-digit", "decompose-empty-target"])
def test_malformed_expression_is_a_usage_error(capsys, argv, err):
    # a bare line, not "fixture error: ..."
    assert run_cli(capsys, *argv) == (2, "", err + "\n")


GOLDEN = Path(__file__).parent / "data"


def _rank_mutant(raw):
    raw["curve_table"]["matrix"][0][8] = 4
    raw["curve_table"]["matrix"][8][0] = 4


def _l_values_plus_mutant(raw):
    raw["b_table"]["l_values"]["plus"] += 1


def test_search_limit10_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "search", "--limit", "10")
    assert code == 0
    assert out == (GOLDEN / "search_limit10.json").read_text()


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


def _report_of(raw):
    return run_verification(load_fixtures(raw, validate=False), "both")


@functools.cache
def _shipped_report():
    return _report_of(SHIPPED_RAW)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_key_order_of_the_document_leaves_the_report_unchanged(seed):
    shuffled = shuffled_keys(SHIPPED_RAW, random.Random(seed))
    assert list(shuffled) != list(SHIPPED_RAW)
    want, got = (json.dumps(report, indent=2, sort_keys=True)
                 for report in (_shipped_report(), _report_of(shuffled)))
    assert got == want


@settings(max_examples=20, deadline=None)
@given(st.fixed_dictionaries({
    name: st.integers(-3, 3) for name in ("K", "E1", "C1p", "Bp000")
}))
@example({"K": 1, "E1": 0, "C1p": 0, "Bp000": 0})
def test_twisting_every_sequence_member_leaves_the_checks_unchanged(twist):
    # the checks read only the differences L_i - L_j, which a common twist
    # M keeps; only the document's hash moves
    raw = copy.deepcopy(SHIPPED_RAW)
    twist_sequence(raw, twist)
    got = _report_of(raw)
    del got["fixture_hash"]
    assert got == {k: v for k, v in _shipped_report().items() if k != "fixture_hash"}


#: SHA-256 of the stdout of each argv on the shipped fixture
CLI_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "cli_digests.json").read_text()
)


@pytest.mark.parametrize("argv", sorted(CLI_DIGESTS))
def test_cli_output_matches_pinned_digest(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_DIGESTS[argv]


DECOMPOSE_CLI_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "decompose_digests.json").read_text()
)["cli"]


@pytest.mark.parametrize("target", sorted(DECOMPOSE_CLI_DIGESTS))
def test_decompose_output_matches_pinned_digest(capsys, target):
    code, out, err = run_cli(capsys, "decompose", "--target", target)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == DECOMPOSE_CLI_DIGESTS[target]
