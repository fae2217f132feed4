"""Shared exception types."""


class InstanceTooLargeError(ValueError):
    """An exact-computation guard (enumeration, cover search, nodes, LP size) would be exceeded."""


class EnumerationGuardError(InstanceTooLargeError):
    """The brute-force enumeration guard; an LP bound may still fit."""


class ParseError(ValueError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
