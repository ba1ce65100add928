"""Exact root enumeration on any lattice: the oracle for `roots.enumerate_roots`.

`fincke_pohst_roots` restricts the negated pairing to the integer kernel of
the pairing-with-k map (`linalg.integer_kernel`) and runs an exact
Fincke-Pohst search at bound 2 over the fraction-free LDL^T of
`linalg.ldl_positive`.  It shares no code with the Weyl closure of the
package, and it works on the small lattices of the box-search tests as well.
"""
from math import isqrt, lcm
from operator import mul

from barlowlat import linalg
from barlowlat.lattice import DivisorClass


def short_vectors(q, bound):
    """All nonzero integer x with x^T q x <= bound, q positive definite.

    Fincke-Pohst over the fraction-free factors of `linalg.ldl_positive`
    (ValueError if q is not positive definite).  The i-th term of x^T q x is
    (d[i+1] x_i + s_i)^2 / (d[i] d[i+1]); scaling by lcm(d[i] d[i+1]) keeps
    the remaining budget an integer, and each coordinate interval is one
    `isqrt`.
    """
    n = len(q)
    d, a = linalg.ldl_positive(q)
    dens = [d[i] * d[i + 1] for i in range(n)]
    scale = lcm(*dens)
    weights = [scale // c for c in dens]
    out = []
    x = [0] * n

    def rec(i, rem):
        if i < 0:
            if any(x):
                out.append(tuple(x))
            return
        p, w = d[i + 1], weights[i]
        s = sum(map(mul, a[i][i + 1:], x[i + 1:]))
        y = isqrt(rem // w)
        for t in range(-((y + s) // p), (y - s) // p + 1):
            x[i] = t
            rec(i - 1, rem - w * (p * t + s) ** 2)
        x[i] = 0

    rec(n - 1, scale * bound)
    return out


def fincke_pohst_roots(lat):
    """All v with v.k = 0 and v.v = -2, as DivisorClasses in coordinate order.

    Raises ValueError if the orthogonal complement of k is not negative
    definite.
    """
    gram = lat.gram
    kernel = linalg.integer_kernel([[sum(map(mul, row, lat.k.coords)) for row in gram]])
    images = [[sum(map(mul, row, kb)) for row in gram] for kb in kernel]
    restricted = [[-sum(map(mul, ka, gb)) for gb in images] for ka in kernel]
    columns = list(zip(*kernel))
    found = set()
    for x in short_vectors(restricted, 2):
        qx = [sum(map(mul, row, x)) for row in restricted]
        if sum(map(mul, x, qx)) == 2:
            found.add(tuple(sum(map(mul, x, col)) for col in columns))
    return [DivisorClass(v) for v in sorted(found)]
