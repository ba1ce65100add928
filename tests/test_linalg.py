import ast
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from barlowlat import linalg

small_int = st.integers(-6, 6)


def test_rank_and_det():
    assert linalg.rank_exact([[1, 2], [2, 4]]) == 1
    assert linalg.rank_exact([[1, 0], [0, 1]]) == 2
    assert linalg.det_exact([[2, 1], [1, 1]]) == 1
    assert linalg.det_exact([[1, 2], [2, 4]]) == 0


def test_invert_exact():
    assert linalg.invert_exact([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    assert linalg.invert_exact([[0, 1], [1, 0]]) == [[0, 1], [1, 0]]     # det -1
    with pytest.raises(ZeroDivisionError):
        linalg.invert_exact([[1, 2], [2, 4]])
    with pytest.raises(ValueError, match=r"not unimodular: \|det\| = 2"):
        linalg.invert_exact([[2, 0], [0, 1]])


def test_solve_overdetermined_cases():
    (status, x), = linalg.solve_overdetermined([[1, 0], [0, 1], [1, 1]], [[2, 3, 5]])
    assert status == "unique" and x == ([2, 3], 1)
    # the one denominator is positive even where the last pivot is negative
    assert linalg.solve_overdetermined([[-2]], [[1], [4]]) == [
        ("unique", ([-1], 2)), ("unique", ([-4], 2)),
    ]
    (status, _), = linalg.solve_overdetermined([[1, 0], [0, 1], [1, 1]], [[2, 3, 6]])
    assert status == "inconsistent"
    (status, _), = linalg.solve_overdetermined([[1, 1]], [[2]])
    assert status == "underdetermined"


# --- oracle: Fraction Gauss-Jordan and cofactor expansion ----------------------

def _rref(mat, width):
    """Reduced row echelon form over Fraction, pivots in the first width columns."""
    m = [[Fraction(x) for x in row] for row in mat]
    pivots = []
    for c in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def _det_cofactor(m):
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _det_cofactor([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )


def _solve_oracle(rows, b):
    n = len(rows[0])
    m, pivots = _rref([list(row) + [v] for row, v in zip(rows, b)], n)
    if any(row[n] for row in m[len(pivots):]):
        return "inconsistent", None
    if len(pivots) < n:
        return "underdetermined", None
    return "unique", [m[i][n] for i in range(n)]


@st.composite
def int_matrices(draw, rows=None, cols=None):
    """Small integer matrices; about a third have a row that repeats a
    combination of two others, so singular and rank-deficient cases are common."""
    r = rows if rows is not None else draw(st.integers(1, 5))
    c = cols if cols is not None else draw(st.integers(1, 5))
    m = draw(st.lists(st.lists(small_int, min_size=c, max_size=c), min_size=r, max_size=r))
    if r >= 3 and draw(st.integers(0, 2)) == 0:
        i, j, k = draw(st.permutations(range(r)))[:3]
        s, t = draw(small_int), draw(small_int)
        m[k] = [s * a + t * b for a, b in zip(m[i], m[j])]
    return m


@st.composite
def square_matrices(draw):
    """Square matrices, a third of them unimodular: the identity, its rows
    permuted and with signs, then changed by adding multiples of rows."""
    n = draw(st.integers(1, 5))
    if draw(st.integers(0, 2)):
        return draw(int_matrices(rows=n, cols=n))
    m = [[draw(st.sampled_from((1, -1))) * int(i == j) for j in range(n)]
         for i in draw(st.permutations(range(n)))]
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            f = draw(small_int)
            m[i] = [a + f * b for a, b in zip(m[i], m[j])]
    return m


@given(m=int_matrices())
@settings(max_examples=300, deadline=None)
def test_rank_matches_oracle(m):
    assert linalg.rank_exact(m) == len(_rref(m, len(m[0]))[1])


@given(m=square_matrices())
@settings(max_examples=300, deadline=None)
def test_det_and_inverse_match_oracle(m):
    n = len(m)
    det = linalg.det_exact(m)
    assert type(det) is int and det == _det_cofactor(m)
    if det == 0:
        with pytest.raises(ZeroDivisionError):
            linalg.invert_exact(m)
        return
    if abs(det) != 1:
        with pytest.raises(ValueError, match="not unimodular"):
            linalg.invert_exact(m)
        return
    inv = linalg.invert_exact(m)
    ref, _ = _rref([row + [int(i == j) for j in range(n)] for i, row in enumerate(m)], n)
    assert inv == [row[n:] for row in ref]
    assert all(type(x) is int for row in inv for x in row)


@given(data=st.data(), m=int_matrices())
@settings(max_examples=300, deadline=None)
def test_solve_overdetermined_matches_oracle(data, m):
    rows, cols = len(m), len(m[0])
    # consistent right-hand sides m @ x next to arbitrary ones
    rhs = []
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            x = data.draw(st.lists(small_int, min_size=cols, max_size=cols))
            rhs.append([sum(a * b for a, b in zip(row, x)) for row in m])
        else:
            rhs.append(data.draw(st.lists(small_int, min_size=rows, max_size=rows)))
    got = linalg.solve_overdetermined(m, rhs)
    for status, x in got:
        if status == "unique":
            v, d = x
            assert type(d) is int and d > 0 and all(type(c) is int for c in v)
    as_fractions = [(s, x and [Fraction(c, x[1]) for c in x[0]]) for s, x in got]
    assert as_fractions == [_solve_oracle(m, b) for b in rhs]
    assert got == [linalg.solve_overdetermined(m, [b])[0] for b in rhs]


def test_solve_reports_inconsistent_before_underdetermined():
    rows = [[1, 1], [2, 2]]
    assert linalg.solve_overdetermined(rows, [[1, 3], [1, 2]]) == [
        ("inconsistent", None), ("underdetermined", None),
    ]
    assert linalg.solve_overdetermined([], [[], []]) == [("underdetermined", None)] * 2


def test_first_difference_is_the_first_cell_in_row_order():
    m = [[1, 2, 3], [2, 5, 6], [0, 6, 9]]
    assert linalg.first_difference(m, m) is None
    assert linalg.first_difference(m, [[1, 2, 3], [2, 0, 6], [0, 0, 9]]) == (1, 1)
    # against its transpose a matrix first differs above the diagonal
    assert linalg.first_difference(m, [list(r) for r in zip(*m)]) == (0, 2)


@given(m=st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
def test_signature_counts_sum_to_rank(m):
    sym = [[m[i][j] + m[j][i] for j in range(3)] for i in range(3)]
    pos, neg, zero = linalg.signature_symmetric(sym)
    assert pos + neg + zero == 3
    assert pos + neg == linalg.rank_exact(sym)
    if linalg.det_exact(sym) != 0:
        sign = (-1) ** neg
        det = linalg.det_exact(sym)
        assert (det > 0) == (sign > 0)


def test_signature_known_values():
    assert linalg.signature_symmetric([[1, 0], [0, -2]]) == (1, 1, 0)
    assert linalg.signature_symmetric([[0, 1], [1, 0]]) == (1, 1, 0)
    assert linalg.signature_symmetric([[0, 0], [0, 0]]) == (0, 0, 2)


# --- oracle: Descartes' rule of signs on the characteristic polynomial --------

def _charpoly(m):
    """Coefficients c[0..n] of det(x I - m), by Faddeev-LeVerrier over Fraction."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    c = [Fraction(0)] * n + [Fraction(1)]
    mk = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{n-k+1} I and c_{n-k} = -tr(A M_k) / k
        mk = [[sum(a[i][t] * mk[t][j] for t in range(n)) + (c[n - k + 1] if i == j else 0)
               for j in range(n)] for i in range(n)]
        c[n - k] = -sum(a[i][t] * mk[t][i] for i in range(n) for t in range(n)) / k
    return c


def _sign_changes(coeffs):
    signs = [x > 0 for x in coeffs if x]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _inertia_by_descartes(m):
    """A real symmetric matrix has only real eigenvalues, so Descartes' rule
    of signs counts its positive and negative ones exactly."""
    c = _charpoly(m)
    zero = next(i for i, x in enumerate(c) if x)
    rest = c[zero:]
    flipped = [x if i % 2 == 0 else -x for i, x in enumerate(rest)]
    return _sign_changes(rest), _sign_changes(flipped), zero


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices of size 1-6; in about half of them some
    diagonal entries are forced to zero, which needs the pivot repairs."""
    n = draw(st.integers(1, 6))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(small_int)
    if draw(st.booleans()):
        for i in range(n):
            if draw(st.booleans()):
                m[i][i] = 0
    return m


@given(m=symmetric_matrices())
@example(m=[[1, 1, 0], [1, 1, 0], [0, 0, 0]])
@example(m=[[0, 2, 0], [2, 0, 0], [0, 0, 0]])
@example(m=[[0, 0, 3], [0, 0, 0], [3, 0, 0]])
@settings(max_examples=300, deadline=None)
def test_signature_matches_descartes_oracle(m):
    assert linalg.signature_symmetric(m) == _inertia_by_descartes(m)


def test_no_module_under_src_imports_fractions():
    # every exact result is an int: the solves hand back numerators over one
    # denominator, so no module needs (or pays the import of) fractions
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert all(a.name.split(".")[0] != "fractions" for a in node.names), path.name
            if isinstance(node, ast.ImportFrom):
                assert node.module != "fractions", path.name


@given(
    row=st.lists(small_int, min_size=1, max_size=5),
)
@settings(max_examples=150, deadline=None)
def test_integer_kernel_of_row(row):
    kern = linalg.integer_kernel([row])
    for v in kern:
        assert sum(a * b for a, b in zip(row, v)) == 0
    nonzero = any(row)
    assert len(kern) == len(row) - (1 if nonzero else 0)


def test_integer_kernel_matrix():
    kern = linalg.integer_kernel([[1, 2, 3], [0, 1, 1]])
    assert len(kern) == 1
    v = kern[0]
    assert v[0] + 2 * v[1] + 3 * v[2] == 0
    assert v[1] + v[2] == 0
    from math import gcd
    assert gcd(gcd(abs(v[0]), abs(v[1])), abs(v[2])) == 1


def check_ldl(q):
    """The integer factors of ldl_positive reconstruct q exactly."""
    n = len(q)
    d, a = linalg.ldl_positive(q)
    assert len(d) == n + 1 and d[0] == 1
    assert all(type(x) is int for x in d) and all(type(x) is int for row in a for x in row)
    for i in range(n):
        assert d[i + 1] == linalg.det_exact([row[: i + 1] for row in q[: i + 1]]) > 0
        assert a[i][i] == d[i + 1]
        assert a[i][:i] == [0] * i
    scale = lcm(*(d[i] * d[i + 1] for i in range(n)))
    for j in range(n):
        for k in range(n):
            total = sum(a[i][j] * a[i][k] * (scale // (d[i] * d[i + 1])) for i in range(n))
            assert total == scale * q[j][k]


def test_ldl_positive():
    d, a = linalg.ldl_positive([[2, 1], [1, 2]])
    assert d == [1, 2, 3]
    assert a == [[2, 1], [0, 3]]
    check_ldl([[2, 1], [1, 2]])
    check_ldl([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    for bad in (
        [[1, 0], [0, -1]],          # indefinite
        [[0, 1], [1, 0]],           # zero leading pivot
        [[1, 1], [1, 1]],           # singular, positive semidefinite
        [[-2]],                     # negative definite
    ):
        with pytest.raises(ValueError):
            linalg.ldl_positive(bad)


@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n)
))
@settings(max_examples=150, deadline=None)
def test_ldl_positive_gram_forms(b):
    # B^T B is positive definite iff B is nonsingular, else semidefinite
    n = len(b)
    q = [[sum(b[r][i] * b[r][j] for r in range(n)) for j in range(n)] for i in range(n)]
    if linalg.det_exact(b):
        check_ldl(q)
    else:
        with pytest.raises(ValueError):
            linalg.ldl_positive(q)
