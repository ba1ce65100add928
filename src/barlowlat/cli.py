"""Batch command-line frontend.

Subcommands run the verification pipeline or individual computations and
emit machine-readable JSON (or a plain-text summary for `verify --format
text`).  Exit codes: 0 all good, 1 a check failed, 2 unusable input (see
`errors`).  Commands raise; only `main` turns an error into an exit code.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import re
import reprlib
import sys
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Sequence

from . import __version__
from .errors import ToolkitError, UsageError
from .exceptional import (
    DecompositionProblem,
    decompose_effective,
    is_num_exceptional,
    search_configs,
)
from .fixtures import (
    BASIS_NAMES,
    CURVE_NAMES,
    SEQUENCE_NAMES,
    FixtureSet,
    load_fixtures,
    parse_json,
)
from .heights import (
    ExtBoundMatrix,
    Fullness,
    INF,
    fullness_verdict,
    height,
    single_segment_bound,
)
from .homledger import SURFACE_DIMENSION, StarChoice, formality_report, validate_ledger
from .lattice import DivisorClass
from .linalg import int_text
from .record import container
# enumerate_roots is not called here (fix.roots enumerates once), but it stays
# bound in this namespace: bench/ wraps and checks the binding by name
from .roots import (  # noqa: F401
    enumerate_roots,
    partition_roots,
    vanishing_classification,
    VanishingTag,
)

_TERM = re.compile(r"([+-]?)\s*([0-9]*)\s*\*?\s*([A-Za-z][A-Za-z0-9]*)")


def parse_class_expr(fix: FixtureSet, expr: str) -> DivisorClass:
    """Integer combinations of named classes, e.g. '5K - E3p - Bp000'.

    Terms are joined by + or -; a coefficient may be written 5K, 5*K or 5 K.
    """
    text = expr.strip()
    if not text:
        raise UsageError("empty class expression")
    if text == "0":
        return DivisorClass.zero(9)
    pos = 0
    out = DivisorClass.zero(9)
    while pos < len(text):
        m = _TERM.match(text, pos)
        # terms after the first need their sign: "K K" is not "2K"
        if m is None or (pos and not m.group(1)):
            raise UsageError(f"cannot parse class expression at {text[pos:]!r}")
        sign = -1 if m.group(1) == "-" else 1
        try:
            coeff = int(m.group(2) or 1)
        except ValueError as exc:  # past sys.get_int_max_str_digits()
            raise UsageError(f"coefficient too long in {reprlib.repr(text)}") from exc
        name = m.group(3)
        out = out + (sign * coeff) * fix.curve_class(name)
        pos = m.end()
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return out


def _jsonable(value: Any) -> Any:
    if isinstance(value, float):
        return "inf" if value == INF else value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


# ------------------------------------------------------------------ verify

def _star_choices(flag: str) -> list[StarChoice]:
    return list(StarChoice) if flag == "both" else [StarChoice[flag.upper()]]


EXPECTED_MIN_DEGREES = {
    StarChoice.NONZERO: {2: 3, 3: 4, 4: 6, 5: 7},
    StarChoice.ZERO: {2: 3, 3: 4, 4: 6, 5: INF},
}


def verification_checks(
    fix: FixtureSet, stars_flag: str
) -> list[tuple[str, str, Callable[[], dict], bool]]:
    """Ordered (id, claim, runner, needs_lattice) tuples for the pipeline.

    A row fails when its runner raises `ToolkitError`; each model stage is
    first read inside a runner.  Once canonical-basis has failed, the rows
    that need the lattice are skipped with its error as the reason.  Bound
    methods and call-time lookups make a patched function the one that runs.
    """

    def root_count() -> dict:
        rs = fix.roots
        if len(rs) != 240:
            raise ToolkitError(f"found {len(rs)} roots, expected 240")
        if not rs.closed_under_negation():
            raise ToolkitError("root set is not closed under negation")
        return {"count": len(rs)}

    def root_partition() -> dict:
        part = partition_roots(
            fix.roots,
            fix.degree1_elliptic_classes(),
            list(fix.b_classes().values()),
            fix.minus_two_classes(),
        )
        if part.sizes != (84, 28, 128):
            raise ToolkitError(f"partition sizes {part.sizes}, expected (84, 28, 128)")
        return {"sizes": list(part.sizes)}

    def vanishing() -> dict:
        tags = vanishing_classification(fix.roots, fix.minus_two_classes(),
                                        fix.degree1_elliptic_classes())
        counts = {tag.value: sum(t is tag for t in tags.values()) for tag in VanishingTag}
        if counts["h0"] != 4 or counts["h2"] != 14:
            raise ToolkitError(f"vanishing counts {counts}, expected 4 and 14")
        return counts

    def num_exceptional() -> dict:
        ok, _ = is_num_exceptional(fix.lattice, fix.sequence)
        if not ok:
            raise ToolkitError("shipped sequence is not numerically exceptional")
        return {"length": 11}

    def make_formality(choice: StarChoice) -> Callable[[], dict]:
        def formality() -> dict:
            report = formality_report(fix.ledger, choice)
            # each expected degree at d >= 3 exceeds d, so a match is forced_zero
            expected = EXPECTED_MIN_DEGREES[choice]
            for d, v in report.items():   # a length not listed has no chain
                if v.min_degree != expected.get(d, INF):
                    raise ToolkitError(
                        f"minimal chain degree at d={d} is {v.min_degree}, expected {expected[d]}"
                        if d in expected else f"chains of length {d} should not exist")
            return {
                "stars": choice.name.lower(),
                "min_degrees": {d: v.min_degree for d, v in report.items()},
                "forced_zero_from": 3,
            }

        return formality

    # one height DP for both rows; a raised error is not cached, so it
    # fails each row again
    bound_height = functools.cache(lambda: height(fix.ext_bounds))

    def height_check() -> dict:
        h = bound_height()
        single = single_segment_bound(fix.ext_bounds)
        if h != 2 or single != 2:
            raise ToolkitError(f"height {int_text(h)}, single-segment bound "
                               f"{int_text(single)}, expected 2, 2")
        return {"height": h, "single_segment_bound": single}

    def fullness() -> dict:
        verdict = fullness_verdict(bound_height(), SURFACE_DIMENSION)
        if verdict != Fullness.NOT_FULL:
            raise ToolkitError(f"verdict {verdict}, expected {Fullness.NOT_FULL}")
        return {"verdict": verdict, "dim": SURFACE_DIMENSION}

    return [
        ("fixture-tables", "curve table is symmetric with rational rank 9",
         fix.validate_curves, False),
        ("simple-roots-gram", "eight simple roots realize the fork Gram, degree 0",
         fix.validate_d8, False),
        ("canonical-basis",
         "glue half-sum extends to a unimodular basis of signature (1,8)",
         fix.build_canonical, False),
        ("b-reconstruction",
         "all 32 genus-3 classes solve integrally and match the block formulas",
         fix.validate_b_classes, True),
        ("b-relation", "doubled base genus-3 class equals its frozen combination",
         fix.validate_relation, True),
        ("root-count", "exactly 240 roots, closed under negation", root_count, True),
        ("root-partition", "roots split into disjoint families of 84 + 28 + 128",
         root_partition, True),
        ("vanishing-classification",
         "4 roots carry sections, 14 carry top cohomology, the rest neither",
         vanishing, True),
        ("sequence-chi", "the 11 bundles reproduce the frozen Euler matrix",
         fix.validate_sequence, True),
        ("num-exceptional", "the 11 bundles form a numerically exceptional sequence",
         num_exceptional, True),
        ("ledger-chi", "Ext triples alternate to the Euler pairing in every cell",
         lambda: validate_ledger(fix.ledger, fix.chi_matrix), False),
        ("ext-bounds", "height bound table matches the ledger and shift symmetry",
         fix.validate_ext_bounds, False),
        *((f"formality-{choice.name.lower()}",
           "no composition of three or more maps survives the degree count",
           make_formality(choice), False) for choice in _star_choices(stars_flag)),
        ("height", "anticanonical height of the extended collection equals 2",
         height_check, False),
        ("fullness", "height criterion shows the collection is not full",
         fullness, False),
    ]


def run_verification(fix: FixtureSet, stars_flag: str) -> dict:
    results = []
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    build_error: str | None = None
    for check_id, claim, runner, needs_lattice in verification_checks(fix, stars_flag):
        if needs_lattice and build_error is not None:
            status = "skipped"
            witness = {"reason": f"canonical basis unavailable: {build_error}"}
        else:
            try:
                status, witness = "pass", runner()
            except ToolkitError as exc:
                status, witness = "fail", {"error": str(exc)}
                if check_id == "canonical-basis":
                    build_error = str(exc)
        counts[status] += 1
        results.append({
            "id": check_id,
            "claim": claim,
            "status": status,
            "witness": _jsonable(witness),
        })
    return {
        "tool": "barlowlat",
        "version": __version__,
        "fixture_hash": fix.digest,
        "stars": stars_flag,
        "checks": results,
        "summary": counts,
    }


def _report_text(report: dict) -> str:
    lines = [f"barlowlat {report['version']}  fixture {report['fixture_hash'][:12]}"]
    for check in report["checks"]:
        lines.append(f"[{check['status']:>4}] {check['id']}: {check['claim']}")
        if check["status"] == "fail":
            lines.append(f"       {check['witness'].get('error', '')}")
    s = report["summary"]
    lines.append(f"{s['pass']} passed, {s['fail']} failed, {s['skipped']} skipped")
    return "\n".join(lines)


# ------------------------------------------------------------------ commands

def _load(args: argparse.Namespace) -> FixtureSet:
    """--fixtures, else barlow.json in a non-empty FIXTURES_DIR, else the shipped copy."""
    path, env_dir = args.fixtures, os.environ.get("FIXTURES_DIR")
    if path is None and env_dir:
        path = str(Path(env_dir) / "barlow.json")
    return load_fixtures(path, validate=False)


def cmd_verify(args: argparse.Namespace) -> int:
    fix = _load(args)
    report = run_verification(fix, args.stars)
    payload = (
        json.dumps(report, indent=2, sort_keys=True)
        if args.format == "json"
        else _report_text(report)
    )
    if args.report is not None:
        try:
            Path(args.report).write_text(payload + "\n")
        except OSError as exc:
            raise UsageError(f"report error: {exc}") from exc
    print(payload)
    return 0 if report["summary"]["fail"] == 0 else 1


def cmd_roots(args: argparse.Namespace) -> int:
    rs = _load(args).roots
    if args.count:
        print(len(rs))
        return 0
    lat = rs.lattice
    out = {
        "lattice": {
            "rank": lat.rank,
            "gram": [list(r) for r in lat.gram],
            "k": list(lat.k.coords),
        },
        "count": len(rs),
        "roots": [list(r.coords) for r in rs.roots],
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_classes(args: argparse.Namespace) -> int:
    fix = _load(args)
    named = {**fix.canonical.classes, **fix.genus3, **dict(zip(SEQUENCE_NAMES, fix.sequence))}
    for name in sorted(named):
        try:
            str(named[name].coords)
        except ValueError as exc:  # past sys.get_int_max_str_digits()
            raise UsageError(f"class {name} has a coordinate too long to print") from exc
    out = {
        "basis": list(BASIS_NAMES),
        "entries": {n: list(c.coords) for n, c in named.items()},
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_chi(args: argparse.Namespace) -> int:
    if args.cls is not None and (args.src is not None or args.dst is not None):
        raise UsageError("chi takes either --cls or --from and --to, not both")
    if args.cls is None and (args.src is None or args.dst is None):
        raise UsageError("chi requires either --cls or both --from and --to")
    fix = _load(args)
    exprs = [args.cls] if args.cls is not None else [args.src, args.dst]
    classes = [parse_class_expr(fix, expr) for expr in exprs]
    value = fix.lattice.chi(classes[0] if len(classes) == 1 else classes[1] - classes[0])
    try:
        text = str(value)
    except ValueError as exc:  # past sys.get_int_max_str_digits()
        shown = " to ".join(map(reprlib.repr, exprs))
        raise UsageError(f"chi of {shown} is too long to print") from exc
    print(text)
    return 0


def cmd_height(args: argparse.Namespace) -> int:
    if args.matrix is not None:
        try:
            raw = container(parse_json(Path(args.matrix).read_text()), "the document",
                            MappingProxyType)
            bounds = ExtBoundMatrix.from_rows(raw["n"], raw["rows"])
            h = height(bounds)
        except (OSError, KeyError, TypeError, ValueError, RecursionError, ToolkitError) as exc:
            raise UsageError(f"cannot read bound matrix: {exc}") from exc
    else:
        bounds = _load(args).ext_bounds
        h = height(bounds)
    out = {
        "height": _jsonable(h),
        "single_segment_bound": _jsonable(single_segment_bound(bounds)),
        "dim": args.dim,
        "verdict": fullness_verdict(h, args.dim),
    }
    try:
        text = json.dumps(out, indent=2, sort_keys=True)
    except ValueError as exc:  # past sys.get_int_max_str_digits()
        raise UsageError(f"height {int_text(h)} is too long to print") from exc
    print(text)
    return 0


def cmd_formality(args: argparse.Namespace) -> int:
    fix = _load(args)
    out = {}
    for choice in _star_choices(args.stars):
        report = formality_report(fix.ledger, choice)
        out[choice.name.lower()] = {
            str(d): {
                "min_degree": _jsonable(v.min_degree),
                "forced_zero": v.forced_zero,
            }
            for d, v in report.items()
        }
    print(json.dumps(out, indent=2, sort_keys=True))
    verdicts = [{d: v["forced_zero"] for d, v in r.items()} for r in out.values()]
    if any(v != verdicts[0] for v in verdicts):
        raise ToolkitError("verdicts differ between star choices")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    fix = _load(args)
    configs = search_configs(fix.roots, fix.lattice.k, args.limit)
    out = {
        "count": len(configs),
        "configurations": [
            {
                "a": [list(r.coords) for r in cfg.a],
                "b": [list(r.coords) for r in cfg.b],
            }
            for cfg in configs
        ],
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    """The default generators include K, which is not effective on S (p_g = 0),
    so a solution with a nonzero K coefficient certifies no effective sum;
    dropping K would change the pinned tests/data/decompose_digests.json."""
    if args.generators is not None:
        names = [n.strip() for n in args.generators.split(",") if n.strip()]
        if not names:
            raise UsageError("--generators names no generator")
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise UsageError(f"--generators names {', '.join(repeated)} more than once")
    fix = _load(args)
    target = parse_class_expr(fix, args.target)
    if args.generators is None:
        names = list(CURVE_NAMES) + sorted(fix.b_classes())
    gens = [(n, fix.curve_class(n)) for n in names]
    lat = fix.lattice
    negative = [f"{n} has degree {d}" for n, g in gens if (d := lat.pair(g, lat.k)) < 0]
    if negative:
        raise UsageError(f"generators need nonnegative degree: {', '.join(negative)}")
    problem = DecompositionProblem.create(target, gens, caps=args.caps)
    solutions = decompose_effective(lat, problem)
    out = {
        "target": args.target,
        "generators": names,
        "caps": args.caps,
        "count": len(solutions),
        "solutions": [
            {names[i]: c for i, c in enumerate(vec) if c} for vec in solutions
        ],
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


# ------------------------------------------------------------------ entry point

def _int_at_least(low: int):
    """An argparse type: an integer no smaller than low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barlowlat",
        description="Exact lattice checks for the length-11 line-bundle sequence",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    fixtures = argparse.ArgumentParser(add_help=False)
    fixtures.add_argument("--fixtures", help="path to a fixture JSON (default: shipped)")
    stars = argparse.ArgumentParser(add_help=False, parents=[fixtures])
    stars.add_argument("--stars", choices=["zero", "nonzero", "both"], default="both")
    add = functools.partial(sub.add_parser, parents=[fixtures])

    p = add("verify", parents=[stars], help="run the full verification pipeline")
    p.add_argument("--report", help="also write the report to this path")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_verify)

    p = add("roots", help="enumerate the 240 roots")
    p.add_argument("--count", action="store_true", help="print only the count")
    p.set_defaults(func=cmd_roots)

    p = add("classes", help="dump every named class in basis coordinates")
    p.set_defaults(func=cmd_classes)

    p = add("chi", help="Euler characteristic / Euler pairing")
    p.add_argument("--from", dest="src", help="source class name or expression")
    p.add_argument("--to", dest="dst", help="target class name or expression")
    p.add_argument("--cls", help="single class expression for a plain chi")
    p.set_defaults(func=cmd_chi)

    p = add("height", help="height of the extended collection")
    p.add_argument("--matrix", help="path to an external bound-matrix JSON")
    p.add_argument("--dim", type=_int_at_least(1), default=SURFACE_DIMENSION)
    p.set_defaults(func=cmd_height)

    p = add("formality", parents=[stars], help="chain-degree report for the ledger")
    p.set_defaults(func=cmd_formality)

    p = add("search", help="search root configurations")
    p.add_argument("--limit", type=_int_at_least(1), default=1)
    p.set_defaults(func=cmd_search)

    p = add("decompose", help="nonnegative decompositions of a class")
    p.add_argument("--target", required=True, help="class expression, e.g. '5K-E3p-Bp000'")
    p.add_argument("--caps", type=_int_at_least(0), default=8)
    p.add_argument("--generators", help="comma-separated generator names")
    p.set_defaults(func=cmd_decompose)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ToolkitError as exc:
        print(f"{exc.prefix}{exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
