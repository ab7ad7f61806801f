"""Vectors over Z/mZ and their two coordinate norms.

Coordinates are stored canonically in [0, m).  The two norms sum the
coordinates' weights: least residues (ONE) or distances to 0 on the
m-cycle (LEE), listed by weights(m, kind) as one range (ONE) or a rising
and a falling range (LEE).  Everything is exact integer arithmetic on
immutable values, so all operations are safe to call concurrently.

A vector keeps the norm sequence of each kind once admissible.norm_sequence
has computed it, as a field that ==, hash, repr and pickling ignore; the
write stores a value fixed by the coordinates, so a race between two
threads only computes it twice.  ModVec(m, coords) checks and reduces
every coordinate; the private _reduced takes coordinates that are exact
ints in [0, m) by construction (concat, halve, the builders and the
oracle's witness) as they are.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import index
from typing import Iterable

from .errors import positive


class NormKind(enum.Enum):
    """Selector between the least-residue norm and the Lee norm."""

    ONE = "one"
    LEE = "lee"


def abs_least_residue(x: int, m: int) -> int:
    """min(c, m - c) for the canonical residue c = x mod m: distance from x to 0."""
    m = positive(m, "modulus")
    c = index(x) % m
    return min(c, m - c)


@dataclass(frozen=True)
class ModVec:
    """An r-dimensional vector over Z/mZ.

    Coordinates are reduced on construction, so two vectors compare equal
    iff they agree coordinatewise mod m.  The empty vector (r = 0) is
    legal with norm 0, and so is m = 1, where every coordinate is 0.
    The modulus and coordinates must be integers (operator.index); a float
    raises TypeError.

    _norms holds the norm sequences computed so far, by NormKind, filled
    by admissible.norm_sequence.  ==, hash and repr ignore it, and a
    pickle or copy holds the modulus and coordinates alone.
    """

    modulus: int
    coords: tuple[int, ...]
    _norms: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __init__(self, modulus: int, coords: Iterable[int] = ()):
        modulus = positive(modulus, "modulus")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "coords", tuple(index(c) % modulus for c in coords))

    def __len__(self) -> int:
        return len(self.coords)

    def __reduce__(self):
        return ModVec, (self.modulus, self.coords)


def _reduced(modulus: int, coords: Iterable[int]) -> ModVec:
    """ModVec(modulus, coords) for coordinates that are exact ints in [0, modulus), unchecked.

    Only for coordinates canonical by construction; outside input goes
    through the checked ModVec constructor.
    """
    v = object.__new__(ModVec)
    v.__dict__.update(modulus=modulus, coords=tuple(coords))
    return v


def require_kind(kind: NormKind) -> NormKind:
    """kind itself, or TypeError when it is not a NormKind (the string "one", say)."""
    if not isinstance(kind, NormKind):
        raise TypeError(f"norm kind must be a NormKind, got {kind!r}")
    return kind


def norm(v: ModVec, kind: NormKind) -> int:
    """Sum of least residues (ONE) or of cycle distances (LEE)."""
    if require_kind(kind) is NormKind.ONE:
        return sum(v.coords)
    m = v.modulus
    return sum(min(c, m - c) for c in v.coords)


def weights(m: int, kind: NormKind) -> list[int]:
    """The weight of each residue 0, ..., m-1: c (ONE) or min(c, m - c) (LEE).

    The LEE table climbs 0, 1, ..., m//2 and falls back from m - m//2 - 1 to 1,
    two ranges copied at C speed.
    """
    if require_kind(kind) is NormKind.ONE:
        return list(range(m))
    return [*range(m // 2 + 1), *range(m - m // 2 - 1, 0, -1)]


def shift(v: ModVec, x: int) -> ModVec:
    """v + x*e: add x to every coordinate."""
    return ModVec(v.modulus, (c + x for c in v.coords))


def concat(u: ModVec, v: ModVec) -> ModVec:
    """Coordinates of u followed by those of v; both norms are additive."""
    if u.modulus != v.modulus:
        raise ValueError(f"modulus mismatch: {u.modulus} != {v.modulus}")
    return _reduced(u.modulus, u.coords + v.coords)


def halve(v: ModVec) -> ModVec:
    """Halve every coordinate of an even vector, Z/2mZ -> Z/mZ; the LEE norm halves exactly."""
    if v.modulus % 2 != 0:
        raise ValueError(f"modulus must be even to halve, got {v.modulus}")
    if any(c % 2 for c in v.coords):
        raise ValueError("not an even vector")
    return _reduced(v.modulus // 2, (c // 2 for c in v.coords))
