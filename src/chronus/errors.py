"""Shared exception types."""


class ChronusError(Exception):
    """Base class for all package errors."""


class DataFormatError(ChronusError):
    """A bundled or user-supplied data file failed to parse."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}:"
        if line is not None:
            loc = f"{loc}{line}:"
        super().__init__(f"{loc} {message}" if loc else message)
