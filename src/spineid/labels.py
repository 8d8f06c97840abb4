"""The 24-class vertebra label taxonomy.

A label is a plain integer index. Labels are ordered cranial to caudal:
C1..C7 map to indices 0..6, T1..T12 to 7..18, and L1..L5 to 19..23. The
sacrum is not a class. The integer encoding is an artifact of this toolkit;
callers with their own encodings must map explicitly.

``sequence_loss`` scores a predicted label sequence by how far it is from
being strictly increasing, in pure Python: the ``score`` command runs
without numpy.
"""

from __future__ import annotations

from typing import Sequence

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


def sequence_loss(seq: Sequence[int]) -> int:
    """Sequence length minus the longest strictly increasing subsequence.

    ``seq`` is a non-empty cranial-to-caudal sequence of label indices.

    Computed by the quadratic relaxation v[i] = max(v[i], v[j] + 1) over
    j < i with seq[i] > seq[j], each v initialized to 1. Zero exactly when
    the sequence is already strictly increasing; duplicates are penalized.
    The score is an integer penalty and is not differentiable.
    """
    seq = [_check_label(v, f"seq[{i}]") for i, v in enumerate(seq)]
    n = len(seq)
    if n == 0:
        raise ValidationError("label sequence must not be empty")
    v = [1] * n
    for i in range(n):
        for j in range(i):
            if seq[i] > seq[j]:
                v[i] = max(v[i], v[j] + 1)
    return n - max(v)
