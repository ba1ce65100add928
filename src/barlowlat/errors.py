"""Exception hierarchy.

Every failure mode of the toolkit raises a named subclass of ToolkitError,
so callers (and the CLI) can map problems to exit codes without string
matching.
"""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


# --- lattice arithmetic ------------------------------------------------------

class DimensionMismatch(ToolkitError):
    """A coordinate vector does not match the rank of the lattice."""


class NonSymmetricGram(ToolkitError):
    """The supplied Gram matrix is not symmetric."""


class ParityViolation(ToolkitError):
    """v.v - v.k is odd: the Gram matrix or k is inconsistent."""


class ProbesDoNotSpan(ToolkitError):
    """Probe classes do not span the lattice rationally."""


class InconsistentValues(ToolkitError):
    """An overdetermined pairing system has no solution."""


class NonIntegralSolution(ToolkitError):
    """A pairing system has a rational solution outside the lattice."""


# --- fixtures ----------------------------------------------------------------

class SchemaError(ToolkitError):
    """A fixture document does not match the expected JSON shape."""


class SymmetryError(ToolkitError):
    """A fixture intersection matrix is not symmetric."""


class RankError(ToolkitError):
    """A fixture intersection matrix has the wrong rational rank."""


class TableInconsistency(ToolkitError):
    """A cross-check between fixture tables failed; the message names the cell."""


class UnknownName(ToolkitError):
    """Lookup of a class name that is not in the registry."""


class ChiMatrixMismatch(ToolkitError):
    """The Euler pairing matrix of the shipped sequence disagrees with the table."""


class RelationViolation(ToolkitError):
    """A frozen linear relation between named classes fails on reconstruction."""


# --- root systems ------------------------------------------------------------

class IndefinitePerp(ToolkitError):
    """The orthogonal complement of k is not negative definite."""


class PartitionFailure(ToolkitError):
    """The three root families overlap, leave roots uncovered, or have wrong sizes."""


# --- exceptional sequences ----------------------------------------------------

class ConfigurationInvalid(ToolkitError):
    """A ten-root configuration violates one of its adjacency constraints."""


# --- hom ledger ----------------------------------------------------------------

class StarPositionError(SchemaError):
    """A ledger diagonal entry or an undetermined entry is out of place."""


class ChiInconsistency(ToolkitError):
    """A ledger entry's alternating sum disagrees with the Euler pairing."""


# --- height engine --------------------------------------------------------------

class UndefinedEntry(ToolkitError):
    """An arc touched a cell of the bound matrix that carries no data."""
