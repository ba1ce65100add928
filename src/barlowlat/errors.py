"""The four error classes, one per way the CLI reports a failure.

* ToolkitError: a claim or a computation failed.  The CLI exits 1 and
  prints "check failed: <message>"; inside `verify` the check's row fails.
* UsageError: a malformed argument or expression, or an unreadable --matrix
  or unwritable --report file.  Exit 2, the message alone on one line.
* SchemaError: a fixture document is malformed.  Exit 2, printed as
  "fixture error: <message>".
* UnknownName: a class name is not in the registry.  Exit 2, printed as
  "unknown name: <message>".

The message names the cell or the value at fault; no caller tells failures
apart by anything finer than these classes.
"""


class ToolkitError(Exception):
    """A claim or a computation failed; base class of the other three."""


class UsageError(ToolkitError):
    """A command-line argument is malformed; the message is the whole report."""


class SchemaError(ToolkitError):
    """A fixture document does not match the expected shape or placement."""


class UnknownName(ToolkitError):
    """Lookup of a class name that is not in the registry."""
