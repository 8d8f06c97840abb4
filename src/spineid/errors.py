"""Exception hierarchy shared by the whole toolkit.

Every error class carries the process exit code the command line front end
maps it to: 2 for rejected input, 3 for numeric divergence, 4 for file
problems. Library callers catch the classes; only ``cli`` looks at the codes.
"""

from __future__ import annotations


class SpineError(Exception):
    """Base class for all toolkit errors.

    An error found in a file names it: with ``path`` (and ``line``) the
    message ends in ``[path]`` (``[path:line]``).
    """

    exit_code = 1

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + where)


class ValidationError(SpineError):
    """An input value or file violates a documented invariant."""

    exit_code = 2


class ParseError(SpineError):
    """A file exists but its content could not be decoded."""

    exit_code = 4


class DivergenceError(SpineError):
    """A numeric routine produced a non-finite value."""

    exit_code = 3

    def __init__(self, message: str, *, epoch: int | None = None):
        self.epoch = epoch
        if epoch is not None:
            message = f"{message} (epoch {epoch})"
        super().__init__(message)


class DegenerateGeometryError(ValidationError):
    """Two distinct vertebrae share a physical position, so 1/distance is undefined."""


class EmptyClusterError(SpineError):
    """Clustering rejected every detection box.

    Carries how many boxes each pass removed so callers can tell whether the
    density floor, the position pass, or the dimension pass ate the data.
    """

    exit_code = 2

    def __init__(self, *, dropped_density: int, dropped_position: int, dropped_dimension: int):
        self.dropped_density = dropped_density
        self.dropped_position = dropped_position
        self.dropped_dimension = dropped_dimension
        super().__init__(
            "no cluster survived: "
            f"{dropped_density} boxes below the density floor, "
            f"{dropped_position} rejected as position noise, "
            f"{dropped_dimension} rejected by the dimension pass"
        )
