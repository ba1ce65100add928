"""Exact linear algebra over the rationals and the integers.

Everything here works on plain lists of Python ints / fractions.Fraction;
no floating point is used anywhere.  Matrices are small (at most 22x22),
so simple Gaussian elimination is entirely adequate.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Sequence


Matrix = Sequence[Sequence[int | Fraction]]


def _copy(mat: Matrix) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in mat]


def is_symmetric(mat: Matrix) -> bool:
    n = len(mat)
    return all(len(row) == n for row in mat) and all(
        mat[i][j] == mat[j][i] for i in range(n) for j in range(i + 1, n)
    )


def rank_exact(mat: Matrix) -> int:
    """Rational rank by Gaussian elimination."""
    m = _copy(mat)
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return r


def det_exact(mat: Matrix) -> Fraction:
    m = _copy(mat)
    n = len(m)
    d = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            d = -d
        d *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return d


def invert_exact(mat: Matrix) -> list[list[Fraction]]:
    """Inverse of a nonsingular square matrix (raises ZeroDivisionError if singular)."""
    n = len(mat)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(mat)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return [row[n:] for row in m]


def solve_overdetermined(
    rows: Matrix, rhs: Sequence[int | Fraction]
) -> tuple[str, list[Fraction] | None]:
    """Solve rows @ x = rhs for x with len(rows[0]) unknowns.

    Returns one of
      ("unique", x)        -- full column rank, all equations satisfied
      ("inconsistent", None)
      ("underdetermined", None)
    """
    if not rows:
        return "underdetermined", None
    n = len(rows[0])
    m = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(m)):
        if m[i][n]:
            return "inconsistent", None
    if r < n:
        return "underdetermined", None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = m[i][n]
    return "unique", x


def signature_symmetric(gram: Matrix) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a symmetric rational matrix.

    Congruence diagonalization.  A zero diagonal pivot is repaired by a
    symmetric swap when another diagonal entry is nonzero, or by a symmetric
    row-plus-column addition otherwise.
    """
    m = _copy(gram)
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
        d = m[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if m[i][k]:
                f = m[i][k] / d
                for t in range(n):
                    m[i][t] -= f * m[k][t]
                for row in m:
                    row[i] -= f * row[k]
    return pos, neg, zero


def integer_kernel(mat: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
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


def ldl_positive(q: Matrix) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Exact LDL^T of a positive-definite symmetric matrix.

    Returns (d, L) with q = L diag(d) L^T, L unit lower triangular.
    Raises ValueError if the matrix is not positive definite.
    """
    n = len(q)
    d = [Fraction(0)] * n
    lo = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        lo[i][i] = Fraction(1)
    for i in range(n):
        s = Fraction(q[i][i])
        for k in range(i):
            s -= d[k] * lo[i][k] ** 2
        if s <= 0:
            raise ValueError("matrix is not positive definite")
        d[i] = s
        for j in range(i + 1, n):
            t = Fraction(q[j][i])
            for k in range(i):
                t -= d[k] * lo[i][k] * lo[j][k]
            lo[j][i] = t / d[i]
    return d, lo


def integer_interval(shift: Fraction, bound: Fraction) -> range:
    """All integers t with (t + shift)^2 <= bound, as a range.

    Exact: the endpoints are computed with integer square roots only.
    """
    if bound < 0:
        return range(0)
    p, q = shift.numerator, shift.denominator
    u, v = bound.numerator, bound.denominator
    y = isqrt(u * q * q // v)  # floor(sqrt(bound) * q)
    hi = (y - p) // q
    lo = -((y + p) // q)
    return range(lo, hi + 1)
