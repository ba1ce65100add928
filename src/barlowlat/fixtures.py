"""Canonical tables of the rank-9 lattice and the model derived from them.

The shipped JSON document carries the 14x14 curve intersection table, the
eight simple-root combinations, the parametrized pairing rules for the 32
genus-3 classes, the 11 line-bundle combinations with their Euler-pairing
matrix, the forward Ext ledger and the 22x22 height bound table.

`FixtureSet` is frozen and holds only the parsed tables, as tuples and
read-only mappings.  The model is a chain of stages, each a cached property
that is a pure function of the tables and the earlier stages:

* `d8_fork`: D1..D8 as classes of `curves`, the formal lattice on the 14
  curves whose Gram is the curve table;
* `canonical`: the canonical coordinate basis (k, e, d8..d2), with the
  lattice and the coordinates of the 14 curves, D1..D8 and e.  It is the
  only code that builds the glue root e: the fork D1..D8 must have the Gram
  `D8_FORK_GRAM`, e is their half-sum, and the basis must have the Gram
  `CANONICAL_GRAM`;
* `genus3`: the 32 genus-3 classes, reconstructed from their pairing rules;
* `sequence`: the 11 line-bundle classes, checked against the Euler matrix;
* `roots`: the roots of the canonical lattice.

A stage that succeeds is computed once.  A stage that fails caches nothing,
so reading it again raises the same error again.  The ``validate_*``
methods trigger a stage or run a cross-check and return a witness dict.
"""
from __future__ import annotations

import json
from functools import cached_property
from itertools import product
from operator import mul
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping, Sequence

from . import linalg, roots as rootsmod
from .roots import CANONICAL_GRAM, CANONICAL_K, diagram_gram
from .errors import SchemaError, ToolkitError, UnknownName
from .heights import ABSENT, ExtBoundMatrix
from .homledger import LedgerMatrix, validate_ledger
from .lattice import DivisorClass, PicardLattice, make_lattice
from .record import Record

try:  # the builtin sha256: hashlib would load OpenSSL for one digest
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.11 and earlier
    except ImportError:
        from hashlib import sha256

CURVE_NAMES = (
    "E1", "E2", "E3p", "E3m", "E4p", "E4m", "E5p", "E5m",
    "L", "K", "C1p", "C1m", "C2p", "C2m",
)
_CURVE_INDEX = {name: i for i, name in enumerate(CURVE_NAMES)}
MINUS_TWO_CURVES = ("C1p", "C1m", "C2p", "C2m")
#: the elliptic curves outside the two node families, in +/- pairs
PAIRED_ELLIPTIC = ("E3p", "E3m", "E4p", "E4m", "E5p", "E5m")
IRREDUCIBLE_ELLIPTIC = ("E1", "E2", *PAIRED_ELLIPTIC)
#: each curve's square, by the first letter of its name: the elliptic curves,
#: the pentagon L, the canonical curve K and the (-2)-curves
CURVE_DIAGONAL = {"E": -1, "L": -3, "K": 1, "C": -2}

FIXTURE_FORMAT = "barlowlat-fixture-v1"

#: the eight undetermined ledger cells ("stars") sit in the last row, in the
#: circle columns: the Barlow ledger's shape, checked when the document is read
STAR_POSITIONS = tuple((11, j) for j in (1, 2, 4, 5, 6, 8, 9, 10))

SEQUENCE_NAMES = tuple(f"L{i}" for i in range(1, 12))

#: the Gram of D1..D8: the chain D1..D6 with both fork tips D7, D8 on D6
D8_FORK_GRAM = diagram_gram(8, {(s, s + 1): 1 for s in range(6)} | {(5, 7): 1})
#: twice the glue root e is the sum of D1..D6 with these weights and the
#: tips D7, D8 with (3, 4) or (4, 3), one for each glue class of the index-2
#: embedding of D8 in E8
HALF_SUM_WEIGHTS = (1, 2, 3, 4, 5, 6)
TIP_WEIGHTS = ((3, 4), (4, 3))


#: the canonical coordinate basis, in coordinate order (Gram `CANONICAL_GRAM`)
BASIS_NAMES = ("K", "e", "D8", "D7", "D6", "D5", "D4", "D3", "D2")


def b_name(q: int, i: int, j: int, k: int) -> str:
    return ("Bp" if q == 1 else "Bm") + f"{i}{j}{k}"


#: the keys (q, i, j, k) of the 32 genus-3 classes, in the order of the table
B_KEYS = tuple(product((1, -1), (0, 1), (0, 1), range(4)))
B_NAMES = frozenset(b_name(*key) for key in B_KEYS)


# --------------------------------------------------------------------------- tables

class BTable(Record):
    """Parametrized pairing rules for the 32 genus-3 classes."""

    k_value: int
    l_values: Mapping[str, int]       # {"plus": .., "minus": ..} actual B.L values
    e12_values: Mapping[str, int]     # (B - 2K).E1 = (B - 2K).E2 per sign
    c_table: Mapping[str, Sequence[Sequence[int]]]   # name -> [i][j]
    e_hit_ks: Mapping[str, Mapping[str, Sequence[int]]]  # name -> str(i) -> ks
    cross_block_b_cells: frozenset[tuple[int, int]]

    def validate(self) -> None:
        for field in ("l_values", "e12_values"):
            missing = {"plus", "minus"} - set(getattr(self, field))
            if missing:
                raise SchemaError(f"{field} lacks {', '.join(sorted(missing))}")
        if set(self.c_table) != set(MINUS_TWO_CURVES):
            raise SchemaError("c_table must cover the four (-2)-curves")
        for name, grid in self.c_table.items():
            if len(grid) != 2 or any(len(row) != 2 for row in grid):
                raise SchemaError(f"c_table[{name}] must be 2x2")
        if set(self.e_hit_ks) != set(PAIRED_ELLIPTIC):
            raise SchemaError("e_hit_ks must cover the six paired elliptic curves")
        for name, per_i in self.e_hit_ks.items():
            if set(per_i) != {"0", "1"}:
                raise SchemaError(f"e_hit_ks[{name}] must have keys '0' and '1'")

    def pairing_row(
        self, curves: PicardLattice, q: int, i: int, j: int, k: int
    ) -> list[int]:
        """Values B . curve for the 14 curves, assembled from the rules."""
        sign = "plus" if q == 1 else "minus"
        row = []
        for name, k_dot in zip(CURVE_NAMES, curves.gram[_CURVE_INDEX["K"]]):
            if name in ("E1", "E2"):
                row.append(self.e12_values[sign] + 2 * k_dot)
            elif name in self.e_hit_ks:
                hit = k in self.e_hit_ks[name][str(i)]
                row.append((q if hit else 0) + 2 * k_dot)
            elif name == "L":
                row.append(self.l_values[sign])
            elif name == "K":
                row.append(self.k_value)
            else:
                row.append(self.c_table[name][i][j] + 2 * k_dot)
        return row

    def expected_pairing(
        self,
        key1: tuple[int, int, int, int],
        key2: tuple[int, int, int, int],
    ) -> int:
        """B . B' from the closed block formulas."""
        q1, i1, j1, k1 = key1
        q2, i2, j2, k2 = key2
        qq = q1 * q2
        if i1 == i2:
            a = 3 + ((j1 + j2) % 2)
            b = a - qq
            return b if k1 == k2 else a
        a = 4 - (qq + 1) // 2
        b = 3 + (qq + 1) // 2
        return b if (k1, k2) in self.cross_block_b_cells else a


# --------------------------------------------------------------------------- fixture

def _int(value: object, where: str) -> int:
    """A JSON integer cell; bool, float, str and the rest are SchemaErrors."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: {value!r} is not an integer")
    return value


def _int_rows(rows: Sequence[Sequence[object]], where: str) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(_int(x, f"{where}[{i}][{j}]") for j, x in enumerate(row))
        for i, row in enumerate(rows)
    )


def _combo_dict(raw: Mapping[str, object], where: str) -> Mapping[str, int]:
    return MappingProxyType({name: _int(coeff, f"{where}.{name}") for name, coeff in raw.items()})


def _square(rows: Sequence[Sequence[int]], n: int) -> bool:
    return len(rows) == n and all(len(r) == n for r in rows)


# Combinations of the 14 curves are classes of the formal lattice
# `FixtureSet.curves`: coefficient vectors in CURVE_NAMES order, paired by the
# curve matrix.

def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _curve_vector(combo: Mapping[str, int]) -> DivisorClass:
    out = [0] * len(CURVE_NAMES)
    for name, coeff in combo.items():
        if name not in _CURVE_INDEX:
            raise UnknownName(f"{name!r} is not a curve name")
        out[_CURVE_INDEX[name]] += coeff
    return DivisorClass(out)


class Canonical(Record):
    """The canonical stage: lattice, glue tips and the classes named by it."""

    lattice: PicardLattice
    glue_tips: tuple[int, int]
    classes: Mapping[str, DivisorClass]   # the 14 curves, D1..D8 and e


class FixtureSet(Record):
    """The parsed tables; the model stages are cached properties over them."""

    digest: str   # SHA-256 of the canonical dump, taken when the document was read
    curves: PicardLattice   # formal: Gram the curve table, k the curve K
    b_table: BTable
    d8_defs: Mapping[str, Mapping[str, int]]
    d8_gram_expected: tuple[tuple[int, ...], ...]
    sequence_defs: Mapping[str, Mapping[str, int]]
    chi_matrix: tuple[tuple[int, ...], ...]
    ledger: LedgerMatrix
    ext_bounds: ExtBoundMatrix
    relation_lhs: Mapping[str, int]
    relation_rhs: Mapping[str, int]

    # ---------------------------------------------------------------- parsing

    @staticmethod
    def from_dict(raw: Mapping) -> "FixtureSet":
        if not isinstance(raw, Mapping) or raw.get("format") != FIXTURE_FORMAT:
            raise SchemaError(f'fixture document must carry "format": "{FIXTURE_FORMAT}"')
        try:
            curve = raw["curve_table"]
            curve_names = tuple(curve["names"])
            curves = PicardLattice(
                gram=_int_rows(curve["matrix"], "curve_table.matrix"),
                k=_curve_vector({"K": 1}),
            )
            bt_raw = raw["b_table"]
            btable = BTable(
                k_value=_int(bt_raw["k_value"], "b_table.k_value"),
                l_values=_combo_dict(bt_raw["l_values"], "b_table.l_values"),
                e12_values=_combo_dict(bt_raw["e12_values"], "b_table.e12_values"),
                c_table=MappingProxyType({
                    k: _int_rows(v, f"b_table.c_table.{k}")
                    for k, v in bt_raw["c_table"].items()
                }),
                e_hit_ks=MappingProxyType({
                    k: MappingProxyType({
                        i: tuple(_int(x, f"b_table.e_hit_ks.{k}.{i}") for x in ks)
                        for i, ks in v.items()
                    })
                    for k, v in bt_raw["e_hit_ks"].items()
                }),
                cross_block_b_cells=frozenset(
                    (_int(a, "b_table.cross_block_b_cells"),
                     _int(b, "b_table.cross_block_b_cells"))
                    for a, b in bt_raw["cross_block_b_cells"]
                ),
            )
            d8_defs = MappingProxyType({
                name: _combo_dict(combo, f"d8.defs.{name}")
                for name, combo in raw["d8"]["defs"].items()
            })
            d8_gram = _int_rows(raw["d8"]["gram"], "d8.gram")
            seq = MappingProxyType({
                name: _combo_dict(combo, f"sequence.{name}")
                for name, combo in raw["sequence"].items()
            })
            chi = _int_rows(raw["chi_matrix"], "chi_matrix")
            ledger = LedgerMatrix.from_dict(_int(raw["ledger"]["n"], "ledger.n"),
                                            raw["ledger"]["entries"])
            if ledger.star_positions != set(STAR_POSITIONS):
                raise SchemaError(f"star entries at {sorted(ledger.star_positions)}, "
                                  f"expected {sorted(STAR_POSITIONS)}")
            bounds = ExtBoundMatrix.from_rows(
                n=_int(raw["ext_bounds"]["n"], "ext_bounds.n"),
                raw_rows=raw["ext_bounds"]["rows"],
            )
            rel_lhs = _combo_dict(raw["b_relation"]["lhs"], "b_relation.lhs")
            rel_rhs = _combo_dict(raw["b_relation"]["rhs"], "b_relation.rhs")
            blob = json.dumps(raw, sort_keys=True, separators=(",", ":"))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"fixture document malformed: {exc}") from exc
        if curve_names != CURVE_NAMES:
            raise SchemaError(f"curve names must be {CURVE_NAMES}")
        if not _square(curves.gram, len(CURVE_NAMES)):
            raise SchemaError("curve matrix must be 14x14")
        if not _square(d8_gram, 8):
            raise SchemaError("d8.gram must be 8x8")
        if sorted(d8_defs) != [f"D{i}" for i in range(1, 9)]:
            raise SchemaError("d8.defs must define D1..D8")
        if sorted(seq) != sorted(SEQUENCE_NAMES):
            raise SchemaError("sequence must define L1..L11")
        if not _square(chi, 11):
            raise SchemaError("chi_matrix must be 11x11")
        if (ledger.n, bounds.n) != (11, 11):
            raise SchemaError(f"ledger.n and ext_bounds.n must be 11, not {ledger.n}, {bounds.n}")
        btable.validate()
        return FixtureSet(
            digest=sha256(blob.encode()).hexdigest(),
            curves=curves,
            b_table=btable,
            d8_defs=d8_defs,
            d8_gram_expected=d8_gram,
            sequence_defs=seq,
            chi_matrix=chi,
            ledger=ledger,
            ext_bounds=bounds,
            relation_lhs=rel_lhs,
            relation_rhs=rel_rhs,
        )

    # ------------------------------------------------------------------ stages

    @cached_property
    def d8_fork(self) -> tuple[DivisorClass, ...]:
        """D1..D8 as classes of the formal curve lattice."""
        return tuple(_curve_vector(self.d8_defs[f"D{i}"]) for i in range(1, 9))

    @cached_property
    def canonical(self) -> Canonical:
        """Construct the canonical basis (K, e, D8..D2) and all coordinates.

        This stage alone builds the glue root and decides the basis.  The
        curve table and the fork D1..D8 are validated first.  The glue root e
        is the half-sum whose tip weights make the genus-3 base class pair
        integrally with it.  The Gram of the basis must be `CANONICAL_GRAM`,
        which fixes det 1 and signature (1, 8, 0) as well.
        """
        self.validate_curves()
        self.validate_d8()
        curves, ds = self.curves, self.d8_fork
        b_row = self.b_table.pairing_row(curves, 1, 0, 0, 0)

        # Every basis vector is doubled, so the half-sum e has integer
        # coefficients; a pairing of doubled vectors is four times the real
        # one.  The tips are those under which the base class B pairs
        # integrally with e.
        for tips in TIP_WEIGHTS:
            e2 = DivisorClass([_dot(HALF_SUM_WEIGHTS + tips, col)
                               for col in zip(*(d.coords for d in ds))])
            basis2 = [2 * curves.k, e2, *(2 * ds[i] for i in (7, 6, 5, 4, 3, 2, 1))]
            if all(_dot(b_row, b.coords) % 2 == 0 for b in basis2):
                break
        else:
            raise ToolkitError(
                "genus-3 base class is not integral under either glue choice; "
                "the pairing tables are inconsistent"
            )
        # one table: the doubled basis, then the 14 curves and D1..D8, each
        # against the doubled basis
        names = (*CURVE_NAMES, *(f"D{i}" for i in range(1, 9)))
        units = [_curve_vector({n: 1}) for n in CURVE_NAMES]
        rows = curves.pairings([*basis2, *units, *ds], basis2)
        gram4 = tuple(map(tuple, rows[:9]))
        if gram4 != tuple(tuple(4 * x for x in row) for row in CANONICAL_GRAM):
            raise ToolkitError("canonical gram does not match the extended Cartan form")
        lat = make_lattice(9, CANONICAL_GRAM, DivisorClass(CANONICAL_K))
        ginv = linalg.invert_exact(CANONICAL_GRAM)

        # The coordinates of a curve vector a are G^-1 B^T M a, where the
        # columns of B are the real basis and B^T M B = G is unimodular.  MB
        # has rank 9, since B^T (MB) = G does, and its columns lie in
        # colspace(M), of rank 9 too; so colspace(MB) = colspace(M) and
        # M = MB X.  Applying B^T gives X = G^-1 B^T M, so M = MB G^-1 B^T M:
        # the coordinates reproduce every cell of the curve table, with no
        # round trip to check.  A row of the table is 2 B^T M a.
        classes = {}
        for name, pv2 in zip(names, rows[9:]):
            if any(x % 2 for x in pv2):
                raise ToolkitError(f"{name} is not integral in the canonical basis")
            classes[name] = DivisorClass([_dot(row, pv2) // 2 for row in ginv])
        classes["e"] = DivisorClass((0, 1) + (0,) * 7)   # basis (K, e, D8..D2)
        return Canonical(lattice=lat, glue_tips=tips, classes=MappingProxyType(classes))

    @cached_property
    def genus3(self) -> Mapping[str, DivisorClass]:
        """The 32 genus-3 classes by name, every pairing rule re-verified."""
        lat = self.lattice
        probes = [self.canonical.classes[n] for n in CURVE_NAMES]
        rows = [self.b_table.pairing_row(self.curves, *key) for key in B_KEYS]
        classes = dict(zip(B_KEYS, lat.classes_from_pairings(probes, rows)))
        if len(set(c.coords for c in classes.values())) != 32:
            raise ToolkitError("the 32 genus-3 classes are not distinct")
        # one table: each class against the 32, K and the four (-2)-curves; the
        # solver returns classes of the lattice's rank, so no length check fails
        right = [*classes.values(), lat.k, *self.minus_two_classes()]
        table = lat.pairings(classes.values(), right)
        for i, (key, row) in enumerate(zip(classes, table)):
            if (row[i], row[32]) != (2, 2):
                raise ToolkitError(
                    f"{b_name(*key)} has (self, degree) = "
                    f"({row[i]}, {row[32]}), expected (2, 2)"
                )
            meets = sum(1 for x in row[33:] if x > 0)
            if meets != 2:
                raise ToolkitError(f"{b_name(*key)} meets {meets} (-2)-curves, expected 2")
        # the block formula gives 2 on the diagonal, checked above
        want = [[self.b_table.expected_pairing(k1, k2) for k2 in B_KEYS] for k1 in B_KEYS]
        bad = linalg.first_difference([row[:32] for row in table], want)
        if bad:
            i, j = bad
            raise ToolkitError(f"{b_name(*B_KEYS[i])}.{b_name(*B_KEYS[j])} = {table[i][j]}, "
                               f"block formula says {want[i][j]}")
        return MappingProxyType({b_name(*key): cls for key, cls in classes.items()})

    @cached_property
    def sequence(self) -> tuple[DivisorClass, ...]:
        """The classes L1..L11; their Euler matrix must equal the frozen one."""
        seq = tuple(self._combination(self.sequence_defs[name]) for name in SEQUENCE_NAMES)
        got, want = self.lattice.euler_matrix(seq), self.chi_matrix
        bad = linalg.first_difference(got, want)
        if bad:
            i, j = bad
            raise ToolkitError(
                f"chi matrix differs at ({i + 1},{j + 1}): "
                f"{linalg.int_text(got[i][j])} != {want[i][j]}"
            )
        return seq

    @cached_property
    def roots(self) -> rootsmod.RootSet:
        """All roots of the canonical lattice, in lexicographic order."""
        return rootsmod.enumerate_roots(self.lattice)

    def _combination(self, combo: Mapping[str, int]) -> DivisorClass:
        """An integer combination of curve, D, e and genus-3 class names.

        Always reads the genus-3 stage, so a broken b_table fails the
        relation and the sequence with its own error.
        """
        named = {**self.canonical.classes, **self.genus3}
        out = DivisorClass.zero(9)
        for name, coeff in combo.items():
            if name not in named:
                raise UnknownName(f"unknown class name {name!r}")
            out = out + coeff * named[name]
        return out

    # ------------------------------------------------------------------ checks

    def validate_curves(self) -> dict[str, object]:
        """The curve table: symmetry, rank 9 and the diagonal; names and shape
        are parsed."""
        gram = self.curves.gram
        bad = linalg.first_difference(gram, tuple(zip(*gram)))
        if bad:
            raise ToolkitError(
                f"curve matrix asymmetric at ({CURVE_NAMES[bad[0]]}, {CURVE_NAMES[bad[1]]})"
            )
        rk = linalg.rank_exact(gram)
        if rk != 9:
            raise ToolkitError(f"curve matrix has rank {rk}, expected 9")
        for i, name in enumerate(CURVE_NAMES):
            got, want = gram[i][i], CURVE_DIAGONAL[name[0]]
            if got != want:
                raise ToolkitError(f"diagonal entry for {name} is {got}, expected {want}")
        return {"rank": rk, "symmetric": True}

    def validate_d8(self) -> dict[str, object]:
        """The eight combinations have the expected fork Gram and degree 0."""
        ds = self.d8_fork
        rows = self.curves.pairings(ds, [*ds, self.curves.k])
        gram = tuple(tuple(row[:8]) for row in rows)
        bad = linalg.first_difference(gram, self.d8_gram_expected)
        if bad:
            i, j = bad
            raise ToolkitError(
                f"simple-root gram differs at (D{i + 1}, D{j + 1}): "
                f"{linalg.int_text(gram[i][j])} != {self.d8_gram_expected[i][j]}"
            )
        if gram != D8_FORK_GRAM:
            raise ToolkitError("input Gram is not the expected fork-at-d6 form")
        for i, row in enumerate(rows):
            if row[8]:
                raise ToolkitError(f"D{i + 1} is not orthogonal to K")
        return {"gram_verified": True, "degrees_zero": True}

    def build_canonical(self) -> dict[str, object]:
        """The canonical stage; witness: determinant, glue tips and signature."""
        gram = self.lattice.gram
        return {"det": linalg.det_exact(gram), "glue_tips": list(self.canonical.glue_tips),
                "signature": list(linalg.signature_symmetric(gram))}

    def validate_b_classes(self) -> dict[str, object]:
        """The genus-3 stage: the 32 classes reconstruct and match every rule."""
        self.genus3  # reading the stage runs its checks
        return {"count": 32, "distinct": True, "blocks_verified": 32 * 31}

    def validate_relation(self) -> dict[str, object]:
        """The frozen doubling relation for the base genus-3 class."""
        lhs = self._combination(self.relation_lhs)
        rhs = self._combination(self.relation_rhs)
        if lhs != rhs:
            raise ToolkitError(f"doubling relation fails: "
                               f"{linalg.int_text(lhs.coords)} != {linalg.int_text(rhs.coords)}")
        return {"lhs": dict(self.relation_lhs), "rhs": dict(self.relation_rhs)}

    def validate_sequence(self) -> dict[str, object]:
        """The sequence stage: the 11 bundles reproduce the frozen Euler matrix."""
        self.sequence  # reading the stage runs its checks
        return {"matrix_verified": True}

    def validate_ext_bounds(self) -> dict[str, object]:
        """Three checks in order: the defined cells are the window; a
        first-block cell holds a minimal Ext degree the ledger admits; and the
        last block repeats the first (twisting both objects leaves the
        relative height unchanged).  A cross-block cell (j <= n < i) is read
        by the height alone."""
        rows, n = self.ext_bounds.rows, self.ext_bounds.n
        window = [[max(1, i - n) <= j <= i - 1 for j in range(1, 2 * n + 1)]
                  for i in range(1, 2 * n + 1)]
        bad = linalg.first_difference([[x is not ABSENT for x in row] for row in rows], window)
        if bad:
            i, j = bad
            raise ToolkitError(f"bound cell ({i + 1},{j + 1}) should be "
                               f"{'defined' if window[i][j] else 'absent'}")
        for i in range(2, n + 1):
            for j in range(1, i):
                got, allowed = rows[i - 1][j - 1], self.ledger.min_degrees(i, j)
                if got not in allowed:
                    raise ToolkitError(
                        f"bound cell ({i},{j}) = {got} not among {sorted(map(str, allowed))}"
                        if len(allowed) > 1 else
                        f"bound cell ({i},{j}) = {got}, ledger gives {min(allowed)}")
        bad = linalg.first_difference([r[n:] for r in rows[n:]], [r[:n] for r in rows[:n]])
        if bad:
            i, j = bad[0] + n + 1, bad[1] + n + 1
            raise ToolkitError(f"bound cell ({i},{j}) differs from ({i - n},{j - n})")
        return {"cells": sum(map(sum, window))}

    def validate(self) -> "FixtureSet":
        self.build_canonical()
        self.validate_b_classes()
        self.validate_relation()
        self.validate_sequence()
        validate_ledger(self.ledger, self.chi_matrix)
        self.validate_ext_bounds()
        return self

    # ---------------------------------------------------------------- accessors

    @property
    def lattice(self) -> PicardLattice:
        return self.canonical.lattice

    def curve_class(self, name: str) -> DivisorClass:
        """Any named class: curves, D1..D8, e, the 32 B names, L1..L11."""
        if name in self.canonical.classes:
            return self.canonical.classes[name]
        if name in B_NAMES:
            return self.genus3[name]
        if name in SEQUENCE_NAMES:
            return self.sequence[SEQUENCE_NAMES.index(name)]
        raise UnknownName(f"unknown class name {name!r}")

    def b_classes(self) -> dict[str, DivisorClass]:
        return dict(self.genus3)

    def degree1_elliptic_classes(self) -> tuple[DivisorClass, ...]:
        """The 14 effective degree-1 classes of elliptic type.

        For the two node families these are E_i plus any subset of its two
        (-2)-curves; the six paired elliptic curves contribute themselves.
        Verified to be distinct with square -1 and degree 1.
        """
        lat = self.lattice
        out: list[DivisorClass] = []
        for i in (1, 2):
            e = self.curve_class(f"E{i}")
            cp = self.curve_class(f"C{i}p")
            cm = self.curve_class(f"C{i}m")
            out.extend([e, e + cp, e + cm, e + cp + cm])
        out.extend(self.curve_class(name) for name in PAIRED_ELLIPTIC)
        if len({c.coords for c in out}) != 14:
            raise ToolkitError("degree-1 classes are not distinct")
        for i, (c, row) in enumerate(zip(out, lat.pairings(out, [*out, lat.k]))):
            if (row[i], row[-1]) != (-1, 1):
                raise ToolkitError(f"degree-1 class {c.coords} fails (square, degree) = (-1, 1)")
        return tuple(out)

    def minus_two_classes(self) -> tuple[DivisorClass, ...]:
        return tuple(self.curve_class(n) for n in MINUS_TWO_CURVES)

    def irreducible_elliptic_classes(self) -> tuple[DivisorClass, ...]:
        return tuple(self.curve_class(n) for n in IRREDUCIBLE_ELLIPTIC)


def shipped_fixture_text() -> str:
    return (Path(__file__).parent / "data" / "barlow.json").read_text(encoding="utf-8")


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


def parse_json(text: str) -> Any:
    """`json.loads`, except that an object repeating a key raises ValueError
    (plain `json.loads` keeps the last value, so an edit could hide)."""
    return json.loads(text, object_pairs_hook=_unique_keys)


def load_fixtures(
    source: str | Path | Mapping | None = None, validate: bool = True
) -> FixtureSet:
    """Load a fixture document (shipped one by default) and validate it."""
    if source is None:
        raw = parse_json(shipped_fixture_text())
    elif isinstance(source, Mapping):
        raw = dict(source)
    else:
        path = Path(source)
        if not path.exists():
            raise SchemaError(f"fixture file {path} does not exist")
        try:
            raw = parse_json(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise SchemaError(f"fixture file {path} cannot be read: {exc}") from exc
        except (ValueError, RecursionError) as exc:   # JSONDecodeError, or a repeated key
            raise SchemaError(f"fixture file {path} is not valid JSON: {exc}") from exc
    fix = FixtureSet.from_dict(raw)
    if validate:
        fix.validate()
    return fix
