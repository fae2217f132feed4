"""Shared exception types."""


class InstanceTooLargeError(ValueError):
    """An exact-computation guard (enumeration, cover search, nodes, LP size) would be exceeded."""


class EnumerationGuardError(InstanceTooLargeError):
    """The brute-force enumeration guard; an LP bound may still fit."""


class ParseError(ValueError):
    """Malformed input file: the offending 1-based line number and, once known, the file."""

    def __init__(self, line_no, message, path=None):
        where = "" if path is None else f" (in {path})"
        super().__init__(f"line {line_no}: {message}{where}")
        self.line_no, self.message = line_no, message
