"""No orphan API: every function and class of the package has a reader in it.

A name defined by a `def` or `class` in `src/barlowlat` counts as used when it
appears as a name token anywhere in `src/` outside the lines of its own
definition, so recursion or a reference from its own body does not count.
Names are matched as tokens, not resolved: two methods of one name share
their uses, and a name that only appears in a string is unused.

The same token scan keeps the ledger's star encoding in one class: `STAR` may
appear only on its definition line and inside `LedgerMatrix`.
"""
import ast
import io
import tokenize
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "barlowlat"

#: defined in src/ with no reader there, each kept for a reason
PINNED = {
    "class_from_pairings": "bench/tracing.py resolves and times it by name",
    "min_chain_degree": "bench/tracing.py resolves and times it by name",
    "ldl_positive": "bench/tracing.py resolves and times it by name",
    "integer_kernel": "bench/tracing.py resolves and times it by name",
    "arc_height": "the height of one arc, the oracle the height tests use",
    "extend_anticanonical": "the paper's anticanonically extended collection",
}


def _name_rows(text):
    """(name, row) for every name token of a module."""
    return [(tok.string, tok.start[0])
            for tok in tokenize.generate_tokens(io.StringIO(text).readline)
            if tok.type == tokenize.NAME]


def _definitions(text):
    """(name, first line, last line) for every def and class of a module."""
    return [(node.name, node.lineno, node.end_lineno)
            for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def orphans(src=SRC):
    """The non-dunder names defined in `src` that no line outside their own
    definition reads."""
    modules = {path.name: path.read_text(encoding="utf-8") for path in sorted(src.glob("*.py"))}
    uses = defaultdict(list)   # name -> (module, row) of each of its tokens
    for module, text in modules.items():
        for name, row in _name_rows(text):
            uses[name].append((module, row))
    return {name
            for module, text in modules.items()
            for name, first, last in _definitions(text)
            if not (name.startswith("__") and name.endswith("__"))
            and all(other == module and first <= row <= last for other, row in uses[name])}


def test_every_definition_has_a_reader_or_a_pinned_reason():
    found = orphans()
    assert found - PINNED.keys() == set(), "defined in src/ but read nowhere there"
    assert PINNED.keys() - found == set(), "pinned, but now read in src/: unpin it"


def test_an_orphan_method_is_found(tmp_path):
    text = (SRC / "lattice.py").read_text(encoding="utf-8")
    anchor = "    def pair(self"
    assert anchor in text
    (tmp_path / "lattice.py").write_text(text.replace(
        anchor, "    def is_root(self, v):\n        return self.is_root(v)\n\n" + anchor))
    assert "is_root" in orphans(tmp_path)
    assert "_check_len" not in orphans(tmp_path)   # read by pairings in the same module


# Every other reader of a star goes through `datum`, `min_degrees` or
# `star_positions`.

def star_reads(src=SRC):
    """(module, row) of each `STAR` name token outside its definition line and
    the `LedgerMatrix` class of homledger.py."""
    found = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        allowed = set()
        if path.name == "homledger.py":
            for node in ast.parse(text).body:
                if isinstance(node, ast.ClassDef) and node.name == "LedgerMatrix":
                    allowed.update(range(node.lineno, node.end_lineno + 1))
                elif isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "STAR" for t in node.targets):
                    allowed.add(node.lineno)
        found += [(path.name, row) for name, row in _name_rows(text)
                  if name == "STAR" and row not in allowed]
    return found


def test_only_ledger_matrix_reads_a_star():
    assert star_reads() == []


def test_a_star_read_outside_ledger_matrix_is_found(tmp_path):
    text = (SRC / "homledger.py").read_text(encoding="utf-8")
    anchor = "def validate_ledger("
    assert anchor in text
    (tmp_path / "homledger.py").write_text(
        text.replace(anchor, "IS_STAR = STAR.__eq__\n\n\n" + anchor))
    row = text[:text.index(anchor)].count("\n") + 1
    assert star_reads(tmp_path) == [("homledger.py", row)]
