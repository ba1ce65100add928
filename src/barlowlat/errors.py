"""The four error classes, one per way the CLI reports a failure.

* ToolkitError: a claim or a computation failed.  Exit 1, printed as
  "check failed: <message>"; inside `verify` the check's row fails.
* UsageError: a malformed argument or expression, or an unreadable --matrix
  or unwritable --report file.  Exit 2, the message alone on one line.
* SchemaError: a fixture document or a table record is malformed.  Exit 2, as
  "fixture error: <message>".
* UnknownName: a class name is not in the registry.  Exit 2, printed as
  "unknown name: <message>".

Each class holds its `exit_code` and the `prefix` that `cli.main` prints
before the message, which names the cell or the value at fault.
"""


class ToolkitError(Exception):
    """A claim or a computation failed; base class of the other three."""
    exit_code = 1
    prefix = "check failed: "


class UsageError(ToolkitError):
    """A command-line argument is malformed; the message is the whole report."""
    exit_code = 2
    prefix = ""


class SchemaError(ToolkitError):
    """A fixture document or a table record has the wrong shape or placement."""
    exit_code = 2
    prefix = "fixture error: "


class UnknownName(ToolkitError):
    """Lookup of a class name that is not in the registry."""
    exit_code = 2
    prefix = "unknown name: "
