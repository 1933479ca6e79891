"""Exception types shared across the package.

The CLI maps these onto exit codes: config problems exit 2, data problems
exit 3, so modules should raise the most specific class that applies.
"""


class CapsieveError(Exception):
    """Base class for all errors raised by this package."""


class _LocatedError(CapsieveError):
    """An error that may name the file and line it was found at."""

    def __init__(self, message: str, *, path=None, line: int | None = None):
        loc = ""
        if path is not None:
            loc = f"{path}: "
        if line is not None:
            loc = f"{loc}line {line}: "
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line = line


class FormatError(_LocatedError):
    """A file is malformed: parse failure, bad magic, truncated payload."""


class ValidationError(_LocatedError):
    """Data violates an invariant: duplicate ids, empty lemmas, zero vectors."""


class MissingKeyError(CapsieveError, KeyError):
    """A referenced id, class, or weight is absent from its container."""

    def __init__(self, message: str):
        # Bypass KeyError's repr-quoting of the message.
        Exception.__init__(self, message)

    def __str__(self) -> str:
        return self.args[0]
