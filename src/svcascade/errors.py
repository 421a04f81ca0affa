"""Exception hierarchy shared across the toolkit, and the text reader
every artifact and config reader uses to name undecodable bytes.

Exit-code mapping for the CLI: validation problems are 1, missing
prerequisite artifacts are 2, numeric failures are 3.
"""


class ToolError(Exception):
    exit_code = 1


class ValidationError(ToolError):
    """Bad arguments, malformed configs/files, or violated contracts."""

    exit_code = 1


class CapacityError(ValidationError):
    """A dataset cannot supply what was requested (names the shortfall)."""


class DependencyError(ToolError):
    """A required artifact is missing; message names the producing command."""

    exit_code = 2


class NumericError(ToolError):
    """Non-finite values encountered during computation."""

    exit_code = 3


def read_text(path: str) -> str:
    """The whole file decoded as UTF-8, with universal newlines; bytes that
    do not decode are a ValidationError naming path:line."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        # read() decodes the whole file at once, so e.object is all of it
        line = len((e.object[:e.start].decode("utf-8") + "?").splitlines())
        raise ValidationError(f"{path}:{line}: not UTF-8 text") from None
