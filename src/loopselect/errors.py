"""Shared exception types."""


class InstanceTooLargeError(ValueError):
    """An exact-computation guard (enumeration, ILP nodes, LP size) would be exceeded."""


class EnumerationGuardError(InstanceTooLargeError):
    """The brute-force enumeration guard; an LP bound may still fit."""


class DataError(ValueError):
    """An input file's content is at fault: the CLI's exit 2. Its message names the file."""


class ParseError(DataError):
    """Malformed input file: the offending 1-based line number and, once known, the file."""

    def __init__(self, line_no, message, path=None):
        where = "" if path is None else f" (in {path})"
        super().__init__(f"line {line_no}: {message}{where}")
        self.line_no, self.message = line_no, message
