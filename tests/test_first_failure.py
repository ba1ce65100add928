"""First-failure oracle for the whole-table checks of the fixture.

`validate_ledger`, the two value rules of `FixtureSet.validate_ext_bounds` and
the genus-3 block check each compare a table with the table it must equal in
one pass.  The reference functions below are the cell-by-cell loops they
replaced.  On every one-cell mutant of the ledger, the chi table, the bound
table and the block formula's cross-block cells, and on drawn two- and
three-cell mutants (several faulty cells, so the order in which the cells are
read decides the message), the library raises the reference's message, or
both pass.  The mutants are built on parsed records; only the genus-3 check
needs the model.
"""
import json
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from barlowlat.errors import ToolkitError
from barlowlat.fixtures import B_KEYS, CURVE_NAMES, b_name, shipped_fixture_text
from barlowlat.heights import ABSENT, ExtBoundMatrix
from barlowlat.homledger import INF, STAR, LedgerMatrix, validate_ledger
from barlowlat.linalg import int_text

RAW = json.loads(shipped_fixture_text())


# ------------------------------------------------------------------ references

def reference_ledger(ledger, chi_matrix):
    """The lower triangle in row order, a star by its chi, then the upper."""
    n = ledger.n
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            chi = chi_matrix[i - 1][j - 1]
            val = ledger.entries[(i, j)]
            if val == STAR:
                if chi != 0:
                    raise ToolkitError(f"star cell ({i},{j}) has chi {chi}, expected 0")
            elif val.euler() != chi:
                raise ToolkitError(f"cell ({i},{j}) = {val.triple} has alternating sum "
                                   f"{int_text(val.euler())}, chi table says {chi}")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if chi_matrix[i - 1][j - 1] != 0:
                raise ToolkitError(f"upper cell ({i},{j}) has chi {chi_matrix[i - 1][j - 1]}, "
                                   "expected 0 for a numerically exceptional sequence")


def reference_ext_bounds(fs):
    """The window cell by cell, then each window cell in row order under both
    value rules."""
    m, n = fs.ext_bounds, fs.ext_bounds.n
    window = []
    for i in range(1, 2 * n + 1):
        for j in range(1, 2 * n + 1):
            should = max(1, i - n) <= j <= i - 1
            if (m.rows[i - 1][j - 1] is not None) != should:
                raise ToolkitError(f"bound cell ({i},{j}) should be "
                                   f"{'defined' if should else 'absent'}")
            if should:
                window.append((i, j))
    for i, j in window:
        got = m.entry(i, j)
        if i <= n and got not in (allowed := fs.ledger.min_degrees(i, j)):
            raise ToolkitError(
                f"bound cell ({i},{j}) = {got} not among {sorted(map(str, allowed))}"
                if len(allowed) > 1 else
                f"bound cell ({i},{j}) = {got}, ledger gives {min(allowed)}")
        if j > n and got != m.entry(i - n, j - n):
            raise ToolkitError(f"bound cell ({i},{j}) differs from ({i - n},{j - n})")


def reference_genus3(fs):
    """The genus-3 stage, with the block formula read pair by pair and the
    diagonal skipped."""
    lat = fs.lattice
    probes = [fs.canonical.classes[n] for n in CURVE_NAMES]
    rows = [fs.b_table.pairing_row(fs.curves, *key) for key in B_KEYS]
    classes = dict(zip(B_KEYS, lat.classes_from_pairings(probes, rows)))
    if len(set(c.coords for c in classes.values())) != 32:
        raise ToolkitError("the 32 genus-3 classes are not distinct")
    table = lat.pairings(classes.values(), [*classes.values(), lat.k, *fs.minus_two_classes()])
    for i, (key, row) in enumerate(zip(classes, table)):
        if (row[i], row[32]) != (2, 2):
            raise ToolkitError(f"{b_name(*key)} has (self, degree) = "
                               f"({row[i]}, {row[32]}), expected (2, 2)")
        meets = sum(1 for x in row[33:] if x > 0)
        if meets != 2:
            raise ToolkitError(f"{b_name(*key)} meets {meets} (-2)-curves, expected 2")
    for k1, row in zip(classes, table):
        for k2, got in zip(classes, row):
            want = fs.b_table.expected_pairing(k1, k2)
            if k1 != k2 and got != want:
                raise ToolkitError(
                    f"{b_name(*k1)}.{b_name(*k2)} = {got}, block formula says {want}")


def message(check, *args):
    """The ToolkitError message of check(*args), or None if it passes."""
    try:
        check(*args)
    except ToolkitError as exc:
        return str(exc)
    return None


def template(msg):
    """A message with its numbers blanked, or None."""
    return msg and re.sub(r"-?\d+", "#", msg)


def replaced(record, **changes):
    """A copy of a record with some fields changed."""
    return type(record)(**{**dict(zip(record._fields, record._values())), **changes})


def drawn(edits, max_examples):
    """Two or three edits of distinct cells."""
    return settings(max_examples=max_examples, deadline=None)(given(st.lists(
        st.sampled_from(edits), min_size=2, max_size=3, unique_by=lambda e: e[:2])))


# ------------------------------------------------------------- ledger and chi

def _ledger_edits():
    """(table, cell, value): each component of an off-diagonal triple + 1, a
    star to [0, 0, 0] and [0, 0, 0] to a star; each chi cell + 1."""
    edits = []
    for key, val in RAW["ledger"]["entries"].items():
        i, j = map(int, key.split(","))
        if i == j:   # the [1,0,0] diagonal is a rule of the parser
            continue
        if val in (STAR, [0, 0, 0]):
            edits.append(("ledger", key, [0, 0, 0] if val == STAR else STAR))
        if val != STAR:
            edits.extend(("ledger", key, [h + (p == q) for q, h in enumerate(val)])
                         for p in range(3))
    chi = RAW["chi_matrix"]
    return edits + [("chi", (i, j), chi[i][j] + 1) for i in range(11) for j in range(11)]


LEDGER_EDITS = _ledger_edits()


def check_ledger_edits(edits):
    entries = dict(RAW["ledger"]["entries"])
    chi = [list(row) for row in RAW["chi_matrix"]]
    for table, cell, value in edits:
        if table == "ledger":
            entries[cell] = value
        else:
            chi[cell[0]][cell[1]] = value
    ledger = LedgerMatrix.from_dict(11, entries)
    want = message(reference_ledger, ledger, chi)
    assert message(validate_ledger, ledger, chi) == want
    return want


def test_one_cell_ledger_and_chi_mutants_fail_like_the_reference():
    assert {template(check_ledger_edits([edit])) for edit in LEDGER_EDITS} == {
        "cell (#,#) = (#, #, #) has alternating sum #, chi table says #",
        "star cell (#,#) has chi #, expected #",
        "upper cell (#,#) has chi #, expected # for a numerically exceptional sequence",
        None,
    }


@drawn(LEDGER_EDITS, 150)
def test_drawn_ledger_and_chi_mutants_fail_like_the_reference(edits):
    check_ledger_edits(edits)


# ---------------------------------------------------------------- bound table

def _bound_edits(rows):
    """(cell, value), 0-based: an integer to INF, INF to 1, a defined cell to
    0 and to ABSENT, an ABSENT cell to 1."""
    edits = []
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x is ABSENT:
                edits.append(((i, j), 1))
            else:
                edits += [((i, j), 1 if x == INF else INF), ((i, j), 0), ((i, j), ABSENT)]
    return edits


BOUND_EDITS = _bound_edits(ExtBoundMatrix.from_rows(11, RAW["ext_bounds"]["rows"]).rows)


def check_bound_edits(fix, edits):
    rows = [list(row) for row in fix.ext_bounds.rows]
    for (i, j), value in edits:
        rows[i][j] = value
    fs = replaced(fix, ext_bounds=ExtBoundMatrix(rows=tuple(map(tuple, rows))))
    want = message(reference_ext_bounds, fs)
    assert message(fs.validate_ext_bounds) == want
    return want


def test_one_cell_bound_mutants_fail_like_the_reference(fix):
    # a cross-block cell is read by the height alone, so its mutants pass
    assert {template(check_bound_edits(fix, [edit])) for edit in BOUND_EDITS} == {
        "bound cell (#,#) should be defined",
        "bound cell (#,#) should be absent",
        "bound cell (#,#) = #, ledger gives #",
        "bound cell (#,#) = #, ledger gives inf",
        "bound cell (#,#) = inf, ledger gives #",
        "bound cell (#,#) = # not among ['#', 'inf']",
        "bound cell (#,#) differs from (#,#)",
        None,
    }


@drawn(BOUND_EDITS, 150)
def test_drawn_bound_mutants_fail_like_the_reference(fix, edits):
    check_bound_edits(fix, edits)


# ------------------------------------------------------------- genus-3 blocks

#: the block formula's 16 cross-block cells (k1, k2), each to be toggled
CROSS_CELLS = [(a, b) for a in range(4) for b in range(4)]


def check_genus3_edits(fix, cells):
    cross = tuple(frozenset(fix.b_table.cross_block_b_cells).symmetric_difference(cells))
    fs = replaced(fix, b_table=replaced(fix.b_table, cross_block_b_cells=cross))
    want = message(reference_genus3, fs)
    assert message(lambda: fs.genus3) == want
    return want


def test_one_cell_genus3_mutants_fail_like_the_reference(fix):
    assert {template(check_genus3_edits(fix, [cell])) for cell in CROSS_CELLS} == {
        "Bp#.Bp# = #, block formula says #"}


@settings(max_examples=20, deadline=None)
@given(st.lists(st.sampled_from(CROSS_CELLS), min_size=2, max_size=3, unique=True))
def test_drawn_genus3_mutants_fail_like_the_reference(fix, cells):
    check_genus3_edits(fix, cells)
