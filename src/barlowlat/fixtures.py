"""Canonical tables of the rank-9 lattice and the model derived from them.

The shipped JSON document carries the 14x14 curve intersection table, the
eight simple-root combinations, the parametrized pairing rules for the 32
genus-3 classes, the 11 line-bundle combinations with their Euler-pairing
matrix, the forward Ext ledger and the 22x22 height bound table.

`FixtureSet` is frozen.  Built directly or by `from_dict`, `BTable` and then
`FixtureSet` store each plain table through `record.freeze` at its declared
containers (`_B_LEVELS`, `_INTEGER_TABLES`), which state every size and key
set (a 14x14 curve table, the names D1..D8 and L1..L11), as tuples and
read-only mappings; `FixtureSet` then checks the Barlow stars and n = 11.  A
fault is a `SchemaError` naming its JSON path.
`from_dict` keeps the JSON encoding: the format tag, the curve names, the
digest and the raw value at each declared path, read by `_at`.
The model is a chain of stages, each a cached property that is a pure
function of the tables and the earlier stages:

* `curves`: the formal lattice on the 14 curves, Gram the curve table;
* `curve_rank`: the rank of the curve table, with its symmetry and diagonal;
* `d8_fork`: D1..D8 as classes of `curves`, with their fork Gram and degree 0;
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
from .record import Record, container, freeze

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
#: each curve's square, by the first letter of its name: the elliptic curves,
#: the pentagon L, the canonical curve K and the (-2)-curves
CURVE_DIAGONAL = {"E": -1, "L": -3, "K": 1, "C": -2}

FIXTURE_FORMAT = "barlowlat-fixture-v1"

#: the eight undetermined ledger cells ("stars") sit in the last row, in the
#: circle columns: the Barlow ledger's shape, checked when the model is built
STAR_POSITIONS = tuple((11, j) for j in (1, 2, 4, 5, 6, 8, 9, 10))

SEQUENCE_NAMES = tuple(f"L{i}" for i in range(1, 12))
D8_NAMES = tuple(f"D{i}" for i in range(1, 9))

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

#: the containers above a table's integers, outermost first (`record.freeze`):
#: an array (tuple) or one of n entries (n), an object (MappingProxyType) or
#: one with exactly the given keys (a tuple of names)
_MAP = (MappingProxyType,)   # name -> integer
_SIGNS = (("plus", "minus"),)
#: the containers of each BTable field, by name, so that no field escapes the rule
_B_LEVELS = MappingProxyType({
    "k_value": (), "l_values": _SIGNS, "e12_values": _SIGNS, "c_table": (MINUS_TWO_CURVES, 2, 2),
    "e_hit_ks": (PAIRED_ELLIPTIC, ("0", "1"), tuple), "cross_block_b_cells": (tuple, 2)})


class BTable(Record):
    """Parametrized pairing rules for the 32 genus-3 classes."""

    k_value: int
    l_values: Mapping[str, int]       # {"plus": .., "minus": ..} actual B.L values
    e12_values: Mapping[str, int]     # (B - 2K).E1 = (B - 2K).E2 per sign
    c_table: Mapping[str, Sequence[Sequence[int]]]   # name -> [i][j]
    e_hit_ks: Mapping[str, Mapping[str, Sequence[int]]]  # name -> str(i) -> ks
    cross_block_b_cells: tuple[tuple[int, int], ...]   # (k1, k2), in document order

    def __post_init__(self) -> None:
        for field in self._fields:
            object.__setattr__(self, field, freeze(getattr(self, field), f"b_table.{field}",
                                                   _B_LEVELS[field]))

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

def _at(raw: Mapping, where: str) -> Any:
    """The value at a dotted JSON path; each object on the way must be one."""
    *above, last = where.split(".")
    for i, key in enumerate(above):
        raw = container(raw[key], ".".join(above[:i + 1]), MappingProxyType)
    return raw[last]


# Combinations of the 14 curves are classes of the formal lattice
# `FixtureSet.curves`: coefficient vectors in CURVE_NAMES order, paired by the
# curve table.

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


#: the model's integer tables: (field, JSON path, containers)
_INTEGER_TABLES = (
    ("curve_matrix", "curve_table.matrix", (len(CURVE_NAMES),) * 2),
    ("d8_defs", "d8.defs", (D8_NAMES, MappingProxyType)), ("d8_gram_expected", "d8.gram", (8, 8)),
    ("sequence_defs", "sequence", (SEQUENCE_NAMES, MappingProxyType)),
    ("chi_matrix", "chi_matrix", (11, 11)), ("relation_lhs", "b_relation.lhs", _MAP),
    ("relation_rhs", "b_relation.rhs", _MAP),
)


class FixtureSet(Record):
    """The parsed tables; the model stages are cached properties over them."""

    digest: str   # SHA-256 of the canonical dump, taken when the document was read
    curve_matrix: tuple[tuple[int, ...], ...]   # the curve table, in CURVE_NAMES order
    b_table: BTable
    d8_defs: Mapping[str, Mapping[str, int]]
    d8_gram_expected: tuple[tuple[int, ...], ...]
    sequence_defs: Mapping[str, Mapping[str, int]]
    chi_matrix: tuple[tuple[int, ...], ...]
    ledger: LedgerMatrix
    ext_bounds: ExtBoundMatrix
    relation_lhs: Mapping[str, int]
    relation_rhs: Mapping[str, int]

    def __post_init__(self) -> None:
        for field, cls in (("b_table", BTable), ("ledger", LedgerMatrix),
                           ("ext_bounds", ExtBoundMatrix)):
            if not isinstance(value := getattr(self, field), cls):
                raise SchemaError(f"{field} is of type {type(value).__name__}, not {cls.__name__}")
        for field, where, levels in _INTEGER_TABLES:
            object.__setattr__(self, field, freeze(getattr(self, field), where, levels))
        stars = self.ledger.star_positions
        if stars != set(STAR_POSITIONS):
            raise SchemaError(f"star entries at {sorted(stars)}, expected {sorted(STAR_POSITIONS)}")
        if (self.ledger.n, self.ext_bounds.n) != (11, 11):
            raise SchemaError("ledger.n and ext_bounds.n must be 11, not "
                              f"{self.ledger.n}, {self.ext_bounds.n}")

    # ---------------------------------------------------------------- parsing

    @staticmethod
    def from_dict(raw: Mapping) -> "FixtureSet":
        if not isinstance(raw, Mapping) or raw.get("format") != FIXTURE_FORMAT:
            raise SchemaError(f'fixture document must carry "format": "{FIXTURE_FORMAT}"')
        try:
            names = container(_at(raw, "curve_table.names"), "curve_table.names", tuple)
            if tuple(names) != CURVE_NAMES:
                raise SchemaError(f"curve names must be {CURVE_NAMES}")
            b_fields = {field: _at(raw, f"b_table.{field}") for field in _B_LEVELS}
            fields = {field: _at(raw, where) for field, where, _ in _INTEGER_TABLES}
            fields.update(
                ledger=LedgerMatrix.from_dict(_at(raw, "ledger.n"), _at(raw, "ledger.entries")),
                ext_bounds=ExtBoundMatrix.from_rows(_at(raw, "ext_bounds.n"),
                                                    _at(raw, "ext_bounds.rows")),
                digest=sha256(json.dumps(raw, sort_keys=True, separators=(",", ":"))
                              .encode()).hexdigest(),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"fixture document malformed: {exc}") from exc
        return FixtureSet(b_table=BTable(**b_fields), **fields)

    # ------------------------------------------------------------------ stages

    @cached_property
    def curves(self) -> PicardLattice:
        """The formal lattice on the 14 curves: Gram the curve table, k the curve K."""
        return PicardLattice(gram=self.curve_matrix, k=_curve_vector({"K": 1}))

    @cached_property
    def curve_rank(self) -> int:
        """The curve table's rank, 9, checked after its symmetry and before its diagonal."""
        gram = self.curve_matrix
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
        return rk

    @cached_property
    def d8_fork(self) -> tuple[DivisorClass, ...]:
        """D1..D8 as classes of the formal curve lattice, with the fork Gram and degree 0."""
        ds = tuple(_curve_vector(self.d8_defs[name]) for name in D8_NAMES)
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
        return ds

    @cached_property
    def canonical(self) -> Canonical:
        """Construct the canonical basis (K, e, D8..D2) and all coordinates.

        This stage alone builds the glue root and decides the basis.  The
        curve table and the fork D1..D8 are validated first.  The glue root e
        is the half-sum whose tip weights make the genus-3 base class pair
        integrally with it.  The Gram of the basis must be `CANONICAL_GRAM`,
        which fixes det 1 and signature (1, 8, 0) as well.
        """
        self.curve_rank  # reading the stage checks the curve table first
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
        names = (*CURVE_NAMES, *D8_NAMES)
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
        """The curve_rank stage: symmetry, rank 9 and the diagonal."""
        return {"rank": self.curve_rank, "symmetric": True}

    def validate_d8(self) -> dict[str, object]:
        """The d8_fork stage: the fork Gram and degree 0 of D1..D8."""
        self.d8_fork  # reading the stage runs its checks
        return {"gram_verified": True, "degrees_zero": True}

    def build_canonical(self) -> dict[str, object]:
        """The canonical stage; witness: determinant, glue tips and signature."""
        gram = self.lattice.gram
        return {"det": linalg.det_exact(gram), "glue_tips": list(self.canonical.glue_tips),
                "signature": list(linalg.signature_symmetric(gram))}

    def validate_b_classes(self) -> dict[str, object]:
        """The genus-3 stage: the 32 classes reconstruct and match every rule."""
        self.genus3  # reading the stage runs its checks
        return {"count": 32, "distinct": True, "blocks_verified": len(B_KEYS) ** 2}

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
