"""Canonical tables of the rank-9 lattice and their validated assembly.

The shipped JSON document carries the 14x14 curve intersection table, the
eight simple-root combinations, the parametrized pairing rules for the 32
genus-3 classes, the 11 line-bundle combinations with their Euler-pairing
matrix, the forward Ext ledger and the 22x22 height bound table.  Loading
re-derives everything from the tables and cross-checks every frozen value;
the canonical coordinate basis (k, e, d8..d2) is constructed on the fly via
the half-sum glue vector.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

from . import linalg, roots as rootsmod
from .errors import (
    ChiMatrixMismatch,
    NonUnimodular,
    RankError,
    RelationViolation,
    SchemaError,
    SymmetryError,
    TableInconsistency,
    UnknownName,
)
from .heights import ExtBoundMatrix
from .homledger import LedgerMatrix, StarChoice, validate_ledger
from .lattice import DivisorClass, PicardLattice, make_lattice

CURVE_NAMES = (
    "E1", "E2", "E3p", "E3m", "E4p", "E4m", "E5p", "E5m",
    "L", "K", "C1p", "C1m", "C2p", "C2m",
)
MINUS_TWO_CURVES = ("C1p", "C1m", "C2p", "C2m")
IRREDUCIBLE_ELLIPTIC = ("E1", "E2", "E3p", "E3m", "E4p", "E4m", "E5p", "E5m")
ELLIPTIC_CURVE_DIAGONAL = -1
PENTAGON_DIAGONAL = -3
CANONICAL_DIAGONAL = 1
NODE_CURVE_DIAGONAL = -2

#: the eight undetermined ledger cells sit in the last row, circle columns
STAR_POSITIONS = tuple((11, j) for j in (1, 2, 4, 5, 6, 8, 9, 10))

SEQUENCE_NAMES = tuple(f"L{i}" for i in range(1, 12))


def b_name(q: int, i: int, j: int, k: int) -> str:
    return ("Bp" if q == 1 else "Bm") + f"{i}{j}{k}"


def b_keys() -> list[tuple[int, int, int, int]]:
    return [
        (q, i, j, k)
        for q in (1, -1)
        for i in (0, 1)
        for j in (0, 1)
        for k in range(4)
    ]


# --------------------------------------------------------------------------- tables

@dataclass(frozen=True)
class CurveTable:
    names: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]

    def value(self, a: str, b: str) -> int:
        return self.matrix[self.names.index(a)][self.names.index(b)]

    def validate(self) -> dict[str, object]:
        n = len(self.names)
        if self.names != CURVE_NAMES:
            raise SchemaError(f"curve names must be {CURVE_NAMES}")
        if len(self.matrix) != n or any(len(r) != n for r in self.matrix):
            raise SchemaError("curve matrix must be 14x14")
        if not linalg.is_symmetric(self.matrix):
            bad = next(
                (i, j)
                for i in range(n)
                for j in range(n)
                if self.matrix[i][j] != self.matrix[j][i]
            )
            raise SymmetryError(
                f"curve matrix asymmetric at ({self.names[bad[0]]}, {self.names[bad[1]]})"
            )
        rk = linalg.rank_exact(self.matrix)
        if rk != 9:
            raise RankError(f"curve matrix has rank {rk}, expected 9")
        expected_diag = {
            "E": ELLIPTIC_CURVE_DIAGONAL,
            "L": PENTAGON_DIAGONAL,
            "K": CANONICAL_DIAGONAL,
            "C": NODE_CURVE_DIAGONAL,
        }
        for idx, name in enumerate(self.names):
            want = expected_diag[name[0]]
            if self.matrix[idx][idx] != want:
                raise TableInconsistency(
                    f"diagonal entry for {name} is {self.matrix[idx][idx]}, "
                    f"expected {want}"
                )
        return {"rank": rk, "symmetric": True}


@dataclass(frozen=True)
class BTable:
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
        if set(self.e_hit_ks) != {"E3p", "E3m", "E4p", "E4m", "E5p", "E5m"}:
            raise SchemaError("e_hit_ks must cover the six paired elliptic curves")
        for name, per_i in self.e_hit_ks.items():
            if set(per_i) != {"0", "1"}:
                raise SchemaError(f"e_hit_ks[{name}] must have keys '0' and '1'")

    def pairing_row(
        self, table: CurveTable, q: int, i: int, j: int, k: int
    ) -> list[int]:
        """Values B . curve for the 14 curves, assembled from the rules."""
        sign = "plus" if q == 1 else "minus"
        row = []
        for name in CURVE_NAMES:
            k_dot = table.value("K", name)
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

def _combo_dict(raw: Mapping[str, int], where: str) -> dict[str, int]:
    out = {}
    for name, coeff in raw.items():
        if not isinstance(coeff, int):
            raise SchemaError(f"{where}: coefficient of {name} is not an integer")
        out[name] = coeff
    return out


@dataclass
class FixtureSet:
    """All tables plus the materialized canonical-coordinate model."""

    raw: dict
    curve_table: CurveTable
    b_table: BTable
    d8_defs: dict[str, dict[str, int]]
    d8_gram_expected: tuple[tuple[int, ...], ...]
    sequence_defs: dict[str, dict[str, int]]
    chi_matrix: tuple[tuple[int, ...], ...]
    ledger: LedgerMatrix
    ext_bounds: ExtBoundMatrix
    relation_lhs: dict[str, int]
    relation_rhs: dict[str, int]

    # populated by build_canonical / validate_b_classes
    lattice: PicardLattice | None = None
    glue_tips: tuple[int, int] | None = None
    _registry: dict[str, DivisorClass] = field(default_factory=dict)
    _built: bool = False
    _b_done: bool = False
    _seq_done: bool = False

    # ---------------------------------------------------------------- parsing

    @staticmethod
    def from_dict(raw: Mapping) -> "FixtureSet":
        try:
            curve = raw["curve_table"]
            table = CurveTable(
                names=tuple(curve["names"]),
                matrix=tuple(tuple(int(x) for x in row) for row in curve["matrix"]),
            )
            bt_raw = raw["b_table"]
            btable = BTable(
                k_value=int(bt_raw["k_value"]),
                l_values=dict(bt_raw["l_values"]),
                e12_values=dict(bt_raw["e12_values"]),
                c_table={k: [list(r) for r in v] for k, v in bt_raw["c_table"].items()},
                e_hit_ks={
                    k: {i: list(ks) for i, ks in v.items()}
                    for k, v in bt_raw["e_hit_ks"].items()
                },
                cross_block_b_cells=frozenset(
                    (int(a), int(b)) for a, b in bt_raw["cross_block_b_cells"]
                ),
            )
            d8_defs = {
                name: _combo_dict(combo, f"d8.defs.{name}")
                for name, combo in raw["d8"]["defs"].items()
            }
            d8_gram = tuple(tuple(int(x) for x in row) for row in raw["d8"]["gram"])
            seq = {
                name: _combo_dict(combo, f"sequence.{name}")
                for name, combo in raw["sequence"].items()
            }
            chi = tuple(tuple(int(x) for x in row) for row in raw["chi_matrix"])
            ledger = LedgerMatrix.from_dict(
                n=int(raw["ledger"]["n"]),
                raw=raw["ledger"]["entries"],
                expected_stars=STAR_POSITIONS,
            )
            bounds = ExtBoundMatrix.from_rows(
                n=int(raw["ext_bounds"]["n"]), raw_rows=raw["ext_bounds"]["rows"]
            )
            rel_lhs = _combo_dict(raw["b_relation"]["lhs"], "b_relation.lhs")
            rel_rhs = _combo_dict(raw["b_relation"]["rhs"], "b_relation.rhs")
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"fixture document malformed: {exc}") from exc
        if sorted(d8_defs) != [f"D{i}" for i in range(1, 9)]:
            raise SchemaError("d8.defs must define D1..D8")
        if sorted(seq) != sorted(SEQUENCE_NAMES):
            raise SchemaError("sequence must define L1..L11")
        if len(chi) != 11 or any(len(r) != 11 for r in chi):
            raise SchemaError("chi_matrix must be 11x11")
        btable.validate()
        return FixtureSet(
            raw=dict(raw),
            curve_table=table,
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

    # ------------------------------------------------------------ formal pairing

    def _formal_pair(self, a: Mapping[str, Fraction], b: Mapping[str, Fraction]) -> Fraction:
        tot = Fraction(0)
        for x, cx in a.items():
            for y, cy in b.items():
                tot += cx * cy * self.curve_table.value(x, y)
        return tot

    def _formal_combo(self, combo: Mapping[str, int | Fraction]) -> dict[str, Fraction]:
        out: dict[str, Fraction] = {}
        for name, coeff in combo.items():
            if name not in CURVE_NAMES:
                raise UnknownName(f"{name!r} is not a curve name")
            out[name] = out.get(name, Fraction(0)) + Fraction(coeff)
        return {k: v for k, v in out.items() if v}

    # ------------------------------------------------------------------ checks

    def validate_curve_table(self) -> dict[str, object]:
        return self.curve_table.validate()

    def validate_d8(self) -> dict[str, object]:
        """The eight combinations have the expected fork Gram and degree 0."""
        ds = [self._formal_combo(self.d8_defs[f"D{i}"]) for i in range(1, 9)]
        gram = tuple(
            tuple(self._formal_pair(a, b) for b in ds) for a in ds
        )
        gram_int = tuple(tuple(int(x) for x in row) for row in gram)
        if gram_int != self.d8_gram_expected:
            bad = next(
                (i, j)
                for i in range(8)
                for j in range(8)
                if gram_int[i][j] != self.d8_gram_expected[i][j]
            )
            raise TableInconsistency(
                f"simple-root gram differs at (D{bad[0] + 1}, D{bad[1] + 1}): "
                f"{gram_int[bad[0]][bad[1]]} != {self.d8_gram_expected[bad[0]][bad[1]]}"
            )
        kf = self._formal_combo({"K": 1})
        for i, d in enumerate(ds):
            if self._formal_pair(d, kf) != 0:
                raise TableInconsistency(f"D{i + 1} is not orthogonal to K")
        return {"gram": gram_int, "degrees_zero": True}

    def build_canonical(self) -> dict[str, object]:
        """Construct the canonical basis (K, e, D8..D2) and all coordinates.

        The glue vector e is the half-sum whose tip weights make the genus-3
        classes integral; determinant and signature of the resulting Gram are
        verified, and every curve round-trips through its pairings.
        """
        if self._built:
            return {
                "det": self.lattice.det(),       # type: ignore[union-attr]
                "glue_tips": list(self.glue_tips),  # type: ignore[arg-type]
            }
        self.validate_curve_table()
        self.validate_d8()
        ds = [self._formal_combo(self.d8_defs[f"D{i}"]) for i in range(1, 9)]

        unimodular = []
        for tips in ((3, 4), (4, 3)):
            e = self._half_sum(ds, tips)
            basis = [self._formal_combo({"K": 1}), e] + [ds[i] for i in (7, 6, 5, 4, 3, 2, 1)]
            gram = [[self._formal_pair(a, b) for b in basis] for a in basis]
            if any(x.denominator != 1 for row in gram for x in row):
                continue
            gram_int = tuple(tuple(int(x) for x in row) for row in gram)
            if abs(linalg.det_exact(gram_int)) != 1:
                continue
            unimodular.append((tips, basis, gram_int))
        if not unimodular:
            raise NonUnimodular("no glue choice yields a unimodular basis")
        chosen = next(
            (entry for entry in unimodular
             if self._b_integral_probe(entry[1], entry[2])),
            None,
        )
        if chosen is None:
            raise TableInconsistency(
                "genus-3 base class is not integral under either glue choice; "
                "the pairing tables are inconsistent"
            )
        tips, basis, gram_int = chosen

        sig = linalg.signature_symmetric(gram_int)
        if sig != (1, 8, 0):
            raise TableInconsistency(f"canonical gram has signature {sig}, expected (1, 8, 0)")

        k_class = DivisorClass((1,) + (0,) * 8)
        lat = make_lattice(9, gram_int, k_class)
        if lat.pair(k_class, k_class) != 1:
            raise TableInconsistency("canonical class has square != 1")

        ginv = linalg.invert_exact(gram_int)
        registry: dict[str, DivisorClass] = {}

        def coords_of(formal: Mapping[str, Fraction]) -> DivisorClass:
            pv = [self._formal_pair(formal, b) for b in basis]
            xs = [sum(ginv[i][j] * pv[j] for j in range(9)) for i in range(9)]
            if any(x.denominator != 1 for x in xs):
                raise TableInconsistency(
                    f"combination {dict(formal)} is not integral in the canonical basis"
                )
            return DivisorClass(tuple(int(x) for x in xs))

        for name in CURVE_NAMES:
            registry[name] = coords_of(self._formal_combo({name: 1}))
        for i in range(1, 9):
            registry[f"D{i}"] = coords_of(ds[i - 1])
        registry["e"] = coords_of({k: v for k, v in self._half_sum(ds, tips).items()})

        # round-trip: coordinates reproduce the full 14x14 table
        for a in CURVE_NAMES:
            for b in CURVE_NAMES:
                got = lat.pair(registry[a], registry[b])
                want = self.curve_table.value(a, b)
                if got != want:
                    raise TableInconsistency(
                        f"coordinates give {a}.{b} = {got}, table says {want}"
                    )

        self.lattice = lat
        self.glue_tips = tips
        self._registry = registry
        self._built = True

        # cross-check the public half-sum operation against the bootstrap
        e_public = rootsmod.borel_siebenthal(lat, self.d8_basis())
        if e_public != registry["e"]:
            raise TableInconsistency("half-sum operation disagrees with the bootstrap")
        return {"det": lat.det(), "glue_tips": list(tips)}

    @staticmethod
    def _half_sum(
        ds: Sequence[Mapping[str, Fraction]], tips: tuple[int, int]
    ) -> dict[str, Fraction]:
        weights = (1, 2, 3, 4, 5, 6) + tips
        e: dict[str, Fraction] = {}
        for w, d in zip(weights, ds):
            for name, c in d.items():
                e[name] = e.get(name, Fraction(0)) + Fraction(w, 2) * c
        return {k: v for k, v in e.items() if v}

    def _b_integral_probe(
        self,
        basis: Sequence[Mapping[str, Fraction]],
        gram_int: Sequence[Sequence[int]],
    ) -> bool:
        """Does the base genus-3 class solve integrally in this basis?"""
        ginv = linalg.invert_exact(gram_int)
        row = self.b_table.pairing_row(self.curve_table, 1, 0, 0, 0)
        values = dict(zip(CURVE_NAMES, row))
        # pair(B, basis_i) expands bilinearly over the curve combination
        pv = []
        for b in basis:
            pv.append(sum(Fraction(values[name]) * c for name, c in b.items()))
        xs = [sum(ginv[i][j] * pv[j] for j in range(9)) for i in range(9)]
        return all(x.denominator == 1 for x in xs)

    def validate_b_classes(self) -> dict[str, object]:
        """Reconstruct the 32 genus-3 classes and re-verify every rule."""
        self.build_canonical()
        if self._b_done:
            return {"count": 32}
        lat = self.lattice
        assert lat is not None
        probes = [self._registry[n] for n in CURVE_NAMES]
        classes: dict[tuple[int, int, int, int], DivisorClass] = {}
        for key in b_keys():
            row = self.b_table.pairing_row(self.curve_table, *key)
            cls = lat.class_from_pairings(probes, row)
            classes[key] = cls
        if len(set(c.coords for c in classes.values())) != 32:
            raise TableInconsistency("the 32 genus-3 classes are not distinct")
        for key, cls in classes.items():
            if lat.pair(cls, cls) != 2 or lat.pair(cls, lat.k) != 2:
                raise TableInconsistency(
                    f"{b_name(*key)} has (self, degree) = "
                    f"({lat.pair(cls, cls)}, {lat.pair(cls, lat.k)}), expected (2, 2)"
                )
            meets = [
                n for n in MINUS_TWO_CURVES
                if lat.pair(cls, self._registry[n]) > 0
            ]
            if len(meets) != 2:
                raise TableInconsistency(
                    f"{b_name(*key)} meets {len(meets)} (-2)-curves, expected 2"
                )
        for k1, c1 in classes.items():
            for k2, c2 in classes.items():
                if k1 == k2:
                    continue
                got = lat.pair(c1, c2)
                want = self.b_table.expected_pairing(k1, k2)
                if got != want:
                    raise TableInconsistency(
                        f"{b_name(*k1)}.{b_name(*k2)} = {got}, block formula says {want}"
                    )
        for key, cls in classes.items():
            self._registry[b_name(*key)] = cls
        self._b_done = True
        return {"count": 32, "distinct": True, "blocks_verified": 32 * 31}

    def validate_relation(self) -> dict[str, object]:
        """The frozen doubling relation for the base genus-3 class."""
        self.validate_b_classes()
        lat = self.lattice
        assert lat is not None
        lhs = DivisorClass.zero(9)
        for name, coeff in self.relation_lhs.items():
            lhs = lhs + coeff * self.curve_class(name)
        rhs = DivisorClass.zero(9)
        for name, coeff in self.relation_rhs.items():
            rhs = rhs + coeff * self.curve_class(name)
        if lhs != rhs:
            raise RelationViolation(
                f"doubling relation fails: {lhs.coords} != {rhs.coords}"
            )
        return {"lhs": dict(self.relation_lhs), "rhs": dict(self.relation_rhs)}

    def validate_sequence(self) -> dict[str, object]:
        """The 11 bundle combinations reproduce the frozen Euler matrix."""
        self.validate_b_classes()
        lat = self.lattice
        assert lat is not None
        seq = []
        for name in SEQUENCE_NAMES:
            cls = DivisorClass.zero(9)
            for member, coeff in self.sequence_defs[name].items():
                cls = cls + coeff * self.curve_class(member)
            seq.append(cls)
        for i in range(11):
            for j in range(11):
                got = lat.chi(seq[i] - seq[j])
                want = self.chi_matrix[i][j]
                if got != want:
                    raise ChiMatrixMismatch(
                        f"chi matrix differs at ({i + 1},{j + 1}): {got} != {want}"
                    )
        for name, cls in zip(SEQUENCE_NAMES, seq):
            self._registry[name] = cls
        self._seq_done = True
        return {"matrix_verified": True}

    def validate_ledger_consistency(self) -> dict[str, object]:
        return validate_ledger(self.ledger, self.chi_matrix)

    def validate_ext_bounds(self) -> dict[str, object]:
        """Shape, window pattern, ledger consistency and shift invariance."""
        m = self.ext_bounds
        n = m.n
        for i in range(1, 2 * n + 1):
            for j in range(1, 2 * n + 1):
                should = max(1, i - n) <= j <= i - 1
                if m.defined(i, j) != should:
                    raise TableInconsistency(
                        f"bound cell ({i},{j}) should be "
                        f"{'defined' if should else 'absent'}"
                    )
        # determined ledger cells force the exact minimal Ext degree; the
        # undetermined cells admit 1 (nonzero option) or INF (section count
        # proved full vanishing on the special surface)
        for i in range(2, n + 1):
            for j in range(1, i):
                got = m.entry(i, j)
                if (i, j) in self.ledger.star_positions:
                    allowed = {
                        self.ledger.datum(i, j, choice).min_degree()
                        for choice in (StarChoice.ZERO, StarChoice.NONZERO)
                    }
                    if got not in allowed:
                        raise TableInconsistency(
                            f"bound cell ({i},{j}) = {got} not among {sorted(map(str, allowed))}"
                        )
                else:
                    want = self.ledger.datum(i, j, StarChoice.ZERO).min_degree()
                    if got != want:
                        raise TableInconsistency(
                            f"bound cell ({i},{j}) = {got}, ledger gives {want}"
                        )
        # twisting both objects leaves the relative height unchanged
        for i in range(2, n + 1):
            for j in range(1, i):
                if m.entry(i + n, j + n) != m.entry(i, j):
                    raise TableInconsistency(
                        f"bound cell ({i + n},{j + n}) differs from ({i},{j})"
                    )
        return {"cells": sum(1 for i in range(1, 2 * n + 1)
                             for j in range(1, 2 * n + 1) if m.defined(i, j))}

    def validate(self) -> "FixtureSet":
        self.validate_curve_table()
        self.validate_d8()
        self.build_canonical()
        self.validate_b_classes()
        self.validate_relation()
        self.validate_sequence()
        self.validate_ledger_consistency()
        self.validate_ext_bounds()
        return self

    # ---------------------------------------------------------------- accessors

    def _require_built(self) -> PicardLattice:
        if not self._built:
            self.build_canonical()
        assert self.lattice is not None
        return self.lattice

    def curve_class(self, name: str) -> DivisorClass:
        """Any registered class: curves, D1..D8, e, the 32 B names, L1..L11."""
        self._require_built()
        if name.startswith("B") and name not in self._registry:
            self.validate_b_classes()
        if name.startswith("L") and len(name) > 1 and name not in self._registry:
            self.validate_sequence()
        if name not in self._registry:
            raise UnknownName(f"unknown class name {name!r}")
        return self._registry[name]

    def d8_basis(self) -> tuple[DivisorClass, ...]:
        self._require_built()
        return tuple(self._registry[f"D{i}"] for i in range(1, 9))

    def canonical_basis(self) -> tuple[DivisorClass, ...]:
        """(K, e, D8, D7, D6, D5, D4, D3, D2) as coordinate classes."""
        self._require_built()
        names = ["K", "e", "D8", "D7", "D6", "D5", "D4", "D3", "D2"]
        return tuple(self.curve_class(n) for n in names)

    def b_classes(self) -> dict[str, DivisorClass]:
        self.validate_b_classes()
        return {b_name(*key): self._registry[b_name(*key)] for key in b_keys()}

    def sequence_classes(self) -> tuple[DivisorClass, ...]:
        if not self._seq_done:
            self.validate_sequence()
        return tuple(self._registry[n] for n in SEQUENCE_NAMES)

    def degree1_elliptic_classes(self) -> tuple[DivisorClass, ...]:
        """The 14 effective degree-1 classes of elliptic type.

        For the two node families these are E_i plus any subset of its two
        (-2)-curves; the six paired elliptic curves contribute themselves.
        Verified to be distinct with square -1 and degree 1.
        """
        lat = self._require_built()
        out: list[DivisorClass] = []
        for i in (1, 2):
            e = self.curve_class(f"E{i}")
            cp = self.curve_class(f"C{i}p")
            cm = self.curve_class(f"C{i}m")
            out.extend([e, e + cp, e + cm, e + cp + cm])
        for name in ("E3p", "E3m", "E4p", "E4m", "E5p", "E5m"):
            out.append(self.curve_class(name))
        if len({c.coords for c in out}) != 14:
            raise TableInconsistency("degree-1 classes are not distinct")
        for c in out:
            if lat.pair(c, c) != -1 or lat.pair(c, lat.k) != 1:
                raise TableInconsistency(
                    f"degree-1 class {c.coords} fails (square, degree) = (-1, 1)"
                )
        return tuple(out)

    def minus_two_classes(self) -> tuple[DivisorClass, ...]:
        self._require_built()
        return tuple(self.curve_class(n) for n in MINUS_TWO_CURVES)

    def irreducible_elliptic_classes(self) -> tuple[DivisorClass, ...]:
        self._require_built()
        return tuple(self.curve_class(n) for n in IRREDUCIBLE_ELLIPTIC)

    def fixture_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def shipped_fixture_text() -> str:
    return resources.files("barlowlat").joinpath("data/barlow.json").read_text()


def load_fixtures(
    source: str | Path | Mapping | None = None, validate: bool = True
) -> FixtureSet:
    """Load a fixture document (shipped one by default) and validate it."""
    if source is None:
        raw = json.loads(shipped_fixture_text())
    elif isinstance(source, Mapping):
        raw = dict(source)
    else:
        path = Path(source)
        if not path.exists():
            raise SchemaError(f"fixture file {path} does not exist")
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise SchemaError(f"fixture file {path} is not valid JSON: {exc}") from exc
    fix = FixtureSet.from_dict(raw)
    if validate:
        fix.validate()
    return fix
