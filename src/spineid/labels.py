"""The 24-class vertebra label taxonomy.

Labels are ordered cranial to caudal: C1..C7 map to indices 0..6, T1..T12 to
7..18, and L1..L5 to 19..23. The sacrum is not a class. The integer encoding
is an artifact of this toolkit; callers with their own encodings must map
explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError

N_CLASSES = 24

CANONICAL_NAMES: tuple[str, ...] = (
    tuple(f"C{i}" for i in range(1, 8))
    + tuple(f"T{i}" for i in range(1, 13))
    + tuple(f"L{i}" for i in range(1, 6))
)

_NAME_TO_INDEX = {name.upper(): i for i, name in enumerate(CANONICAL_NAMES)}


@dataclass(frozen=True, order=True)
class VertebraLabel:
    """One of the 24 vertebra classes, identified by its cranial-to-caudal index."""

    index: int

    def __post_init__(self):
        if not isinstance(self.index, int) or isinstance(self.index, bool):
            raise ValidationError(f"label index must be an integer, got {self.index!r}")
        if not 0 <= self.index < N_CLASSES:
            raise ValidationError(f"label index {self.index} outside [0, {N_CLASSES - 1}]")

    @property
    def name(self) -> str:
        return CANONICAL_NAMES[self.index]

    @classmethod
    def from_name(cls, name: str) -> "VertebraLabel":
        try:
            return cls(_NAME_TO_INDEX[name.strip().upper()])
        except (KeyError, AttributeError):
            raise ValidationError(f"unknown vertebra name {name!r}") from None

    def __str__(self) -> str:
        return self.name
