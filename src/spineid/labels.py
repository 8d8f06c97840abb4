"""The 24-class vertebra label taxonomy.

A label is a plain integer index. Labels are ordered cranial to caudal:
C1..C7 map to indices 0..6, T1..T12 to 7..18, and L1..L5 to 19..23. The
sacrum is not a class. The integer encoding is an artifact of this toolkit;
callers with their own encodings must map explicitly.
"""

from __future__ import annotations

from .errors import ValidationError, _integer

N_CLASSES = 24

CANONICAL_NAMES: tuple[str, ...] = (
    tuple(f"C{i}" for i in range(1, 8))
    + tuple(f"T{i}" for i in range(1, 13))
    + tuple(f"L{i}" for i in range(1, 6))
)

_NAME_TO_INDEX = {name.upper(): i for i, name in enumerate(CANONICAL_NAMES)}


def label_index(name: str) -> int:
    """The index of a canonical vertebra name; case and surrounding whitespace are ignored."""
    try:
        return _NAME_TO_INDEX[name.strip().upper()]
    except (KeyError, AttributeError):
        raise ValidationError(f"unknown vertebra name {name!r}") from None


def _check_label(value, what: str) -> int:
    """``value`` as a Python int, if it is a label index: it passes the integer rule and lies in [0, 24).

    ``what`` names the value in the ValidationError.
    """
    index = _integer(value, what, ", not an integer label index")
    if not 0 <= index < N_CLASSES:
        raise ValidationError(f"{what} has an invalid value {index}, which lies outside [0, {N_CLASSES})")
    return index
