"""Exception hierarchy shared by the whole toolkit, and the rules every constructor checks its numbers by.

Every error class carries the process exit code the command line front end
maps it to: 2 for rejected input, 3 for numeric divergence, 4 for file
problems. Library callers catch the classes; only ``cli`` looks at the codes.
"""

from __future__ import annotations

import numbers
import reprlib


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


def _invalid(what: str, value, why: str = "") -> ValidationError:
    """The error for a value of the wrong type: ``<what> has an invalid value <value, abbreviated><why>``."""
    return ValidationError(f"{what} has an invalid value {reprlib.repr(value)}{why}")


# Each rule tests the builtin types first: an abstract base class check costs several times as much.
def _integer_type(t: type) -> bool:
    """The integer rule: a Python or numpy integer; never a bool, a float or a string, whatever it spells."""
    return t is int or (issubclass(t, numbers.Integral) and t is not bool)


def _number_type(t: type) -> bool:
    """The number rule: a Python or numpy integer or float; never a bool or a string, whatever it spells."""
    return t is float or t is int or (issubclass(t, numbers.Real) and t is not bool)


def _integer(value, what: str, why: str = "") -> int:
    """``value`` as a Python int, if it passes the integer rule; else ``_invalid(what, value, why)``."""
    if not _integer_type(type(value)):
        raise _invalid(what, value, why)
    return int(value)


def _number(value, what: str) -> float:
    """``value`` as a Python float, if it passes the number rule and fits a float; else ``_invalid(what, value)``."""
    if _number_type(type(value)):
        try:
            return float(value)
        except OverflowError:
            pass
    raise _invalid(what, value)


def _numbers(values, what: str, integer: bool = False):
    """``values`` as given, if it is a sequence (not a string or a mapping) whose elements pass the number rule.

    ``integer`` asks for the integer rule. The rule runs once per element type, never once per value.
    """
    rule = _integer_type if integer else _number_type
    try:
        ok = not isinstance(values, (str, dict)) and all(map(rule, set(map(type, values))))
    except TypeError:
        ok = False
    if not ok:
        raise _invalid(what, values)
    return values
