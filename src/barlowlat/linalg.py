"""Exact linear algebra over the integers.

Everything here works on plain lists of Python ints and returns ints; no
floating point and no `Fraction` are used anywhere.  Rank, determinant,
inverse, linear solves and the set-up of `exceptional.decompose_effective`
share one fraction-free Gauss-Jordan elimination, `gauss_jordan` (Bareiss
1968): each step divides exactly by the previous pivot, so every
intermediate entry is an integer minor of the input.  The decomposition
set-up carries an identity block in place of a right-hand side; every step
is linear in the carried columns, so the block becomes a matrix U such that
U.t is the column a target t would have given, and one elimination serves
every target on a generator list.  `invert_exact` inverts only unimodular
matrices; `solve_overdetermined` gives numerators over one denominator.
`signature_symmetric` (an integer congruence) eliminates on its own.
`ldl_positive` (the same elimination without pivoting) and `integer_kernel`
(unimodular column operations) serve only the Fincke-Pohst root oracle of
the tests; they stay here because `bench/tracing.py` resolves them by name.
"""
from __future__ import annotations

from operator import index
from typing import Sequence


IntMatrix = Sequence[Sequence[int]]


def first_difference(a: IntMatrix, b: IntMatrix) -> tuple[int, int] | None:
    """The first cell (i, j) in row order where two tables of the same shape
    differ; None if they are equal.  Against its transpose, a square matrix
    first differs at a cell with i < j."""
    return next(((i, j) for i, (ra, rb) in enumerate(zip(a, b))
                 for j, (x, y) in enumerate(zip(ra, rb)) if x != y), None)


def gauss_jordan(
    rows: IntMatrix, width: int
) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination on integer rows.

    Pivots are taken in the first `width` columns, topmost nonzero entry
    first; later columns (right-hand sides, an identity block) are carried
    along.  A step with pivot p replaces every other row by
    (p * row - f * pivot_row) / prev, where f is the row's entry in the pivot
    column and prev the previous pivot.  By Sylvester's identity the division
    is exact, so every entry stays an integer.

    Returns (m, pivots, d, swaps).  Row i < len(pivots) of m holds d in
    column pivots[i] and zero in every column before it and in the other
    pivot columns; the other rows vanish in the first `width` columns.  d
    is the last pivot (1 if there is none) and swaps counts the row exchanges.
    """
    m = [[index(x) for x in row] for row in rows]
    pivots: list[int] = []
    prev, swaps = 1, 0
    for c in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            swaps += 1
        top = m[r]
        p = top[c]
        for i, row in enumerate(m):
            f = row[c]
            if i != r and (f or p != prev):
                m[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        pivots.append(c)
        prev = p
    return m, pivots, prev, swaps


def rank_exact(mat: IntMatrix) -> int:
    """Rank by fraction-free elimination."""
    return len(gauss_jordan(mat, len(mat[0]) if mat else 0)[1])


def det_exact(mat: IntMatrix) -> int:
    """Determinant of a square integer matrix."""
    n = len(mat)
    _, pivots, d, swaps = gauss_jordan(mat, n)
    return 0 if len(pivots) < n else -d if swaps % 2 else d


def invert_exact(mat: IntMatrix) -> list[list[int]]:
    """Integer inverse of a unimodular matrix (ZeroDivisionError if singular,
    ValueError if |det| > 1, when the inverse is not integral)."""
    n = len(mat)
    m, pivots, d, _ = gauss_jordan(
        [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(mat)], n
    )
    if len(pivots) < n:
        raise ZeroDivisionError("matrix is singular")
    if d not in (1, -1):
        raise ValueError(f"matrix is not unimodular: |det| = {abs(d)}")
    return [[d * x for x in row[n:]] for row in m]   # 1/d = d


def solve_overdetermined(
    rows: IntMatrix, rhs: IntMatrix
) -> list[tuple[str, tuple[list[int], int] | None]]:
    """Solve rows @ x = b for every right-hand side b in rhs, in one elimination.

    x has len(rows[0]) unknowns and each b one value per row.  Returns, per
    right-hand side and in order, one of
      ("unique", (v, d))   -- full column rank, all equations satisfied; x = v/d, d > 0
      ("inconsistent", None)
      ("underdetermined", None)
    An inconsistent system is reported as such even without full rank.
    """
    if not rows:
        return [("underdetermined", None)] * len(rhs)
    n = len(rows[0])
    m, pivots, d, _ = gauss_jordan(
        [[*row, *(b[i] for b in rhs)] for i, row in enumerate(rows)], n
    )
    r = len(pivots)
    sign = -1 if d < 0 else 1
    out: list[tuple[str, tuple[list[int], int] | None]] = []
    for col in range(n, n + len(rhs)):
        if any(row[col] for row in m[r:]):
            out.append(("inconsistent", None))
        elif r < n:
            out.append(("underdetermined", None))
        else:
            out.append(("unique", ([sign * row[col] for row in m[:n]], sign * d)))
    return out


def signature_symmetric(gram: IntMatrix) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a symmetric integer matrix.

    Integer congruence diagonalization.  A step with pivot p = m[k][k] sets
    row i to p * row i - f * row k, f = m[i][k], for each i > k with f != 0,
    then column i the same way: row and column k clear, and the Schur
    complement of p is left with those rows and columns scaled by p, so its
    inertia is kept.  A zero pivot is repaired by a symmetric swap with a
    nonzero diagonal entry, or else by a symmetric row-plus-column addition.
    """
    m = [[index(x) for x in row] for row in gram]
    n = len(m)
    pos = neg = zero = 0

    def sym_swap(i: int, j: int) -> None:
        m[i], m[j] = m[j], m[i]
        for row in m:
            row[i], row[j] = row[j], row[i]

    def sym_add(i: int, j: int) -> None:
        # row i += row j, then column i += column j
        for t in range(n):
            m[i][t] += m[j][t]
        for row in m:
            row[i] += row[j]

    for k in range(n):
        if m[k][k] == 0:
            i = next((i for i in range(k + 1, n) if m[i][i] != 0), None)
            if i is not None:
                sym_swap(k, i)
            else:
                pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                             if m[i][j] != 0), None)
                if pair is None:
                    zero += n - k
                    break
                i, j = pair
                sym_add(i, j)  # makes m[i][i] = 2 m[i][j] != 0
                if i != k:
                    sym_swap(k, i)
        p = m[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = m[i][k]
            if f:
                m[i] = [p * a - f * b for a, b in zip(m[i], m[k])]
                for row in m:
                    row[i] = p * row[i] - f * row[k]
    return pos, neg, zero


def integer_kernel(mat: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the integer kernel {x : mat @ x = 0} via column elimination.

    Unimodular column operations reduce the matrix to column echelon form
    while the same operations are applied to an identity matrix; columns of
    the transform that map to zero columns form a kernel basis.
    """
    if not mat:
        return []
    rows = len(mat)
    cols = len(mat[0])
    a = [list(row) for row in mat]
    u = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def col_op(j1: int, j2: int, q: int) -> None:
        # column j2 -= q * column j1
        for i in range(rows):
            a[i][j2] -= q * a[i][j1]
        for i in range(cols):
            u[i][j2] -= q * u[i][j1]

    def col_swap(j1: int, j2: int) -> None:
        for i in range(rows):
            a[i][j1], a[i][j2] = a[i][j2], a[i][j1]
        for i in range(cols):
            u[i][j1], u[i][j2] = u[i][j2], u[i][j1]

    lead = 0
    for r in range(rows):
        if lead >= cols:
            break
        if all(a[r][j] == 0 for j in range(lead, cols)):
            continue
        while True:
            nz = [j for j in range(lead, cols) if a[r][j] != 0]
            if len(nz) == 1:
                if nz[0] != lead:
                    col_swap(lead, nz[0])
                break
            nz.sort(key=lambda j: abs(a[r][j]))
            j1 = nz[0]
            for j2 in nz[1:]:
                q = a[r][j2] // a[r][j1]
                col_op(j1, j2, q)
        lead += 1

    kernel = [j for j in range(cols) if all(a[i][j] == 0 for i in range(rows))]
    return [tuple(u[i][j] for i in range(cols)) for j in kernel]


def ldl_positive(q: IntMatrix) -> tuple[list[int], list[list[int]]]:
    """Fraction-free LDL^T of a positive-definite symmetric integer matrix.

    Bareiss elimination without pivoting.  Returns (d, a): d[0] = 1 and d[i]
    is the i-th leading principal minor of q; row i of a is row i of q after
    i elimination steps, so a[i][i] = d[i + 1], a[i][j] = 0 for j < i and
    every entry is an integer minor of q.  Then l_ji = a[i][j] / d[i + 1] and

        x^T q x = sum_i (d[i + 1] x_i + s_i)^2 / (d[i] d[i + 1]),
        s_i = sum_{j > i} a[i][j] x_j.

    Raises ValueError at the first non-positive pivot, i.e. if q is not
    positive definite (Sylvester's criterion).
    """
    m = [[index(x) for x in row] for row in q]
    d = [1]
    for i, top in enumerate(m):
        p, prev = top[i], d[-1]
        if p <= 0:
            raise ValueError("matrix is not positive definite")
        for r in range(i + 1, len(m)):
            row = m[r]
            f = row[i]
            m[r] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        d.append(p)
    return d, m
