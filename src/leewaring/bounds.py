"""Closed forms for the largest norm of a minimal-in-coset vector.

g_bound covers the least-residue norm, h_bound the Lee norm; both are
exact for every modulus m and dimension r.  Floors are evaluated on
rearranged integer fractions (never through floating point):

    floor(mr/4 - r/(4m)) = r*(m*m - 1) // (4*m)
    floor(mr/4 - m/(4r)) = m*(r*r - 1) // (4*r)
    floor(mr/4 - 1/2)    = (m*r - 2) // 4
"""

from __future__ import annotations

import enum
from math import gcd

from .errors import positive


class BoundCase(enum.Enum):
    """Which branch of the Lee norm bound h(m, r) applies."""

    EVEN_EVEN = "EVEN_EVEN"        # m, r even:              mr/4
    EVEN_ODD_RGT = "EVEN_ODD_RGT"  # m even, r odd, r > m:   floor(mr/4 - 1/2)
    ODD_RGT = "ODD_RGT"            # m odd, r > m:           floor(mr/4 - r/(4m))
    ODD_EVEN_RLT = "ODD_EVEN_RLT"  # m odd, r even, r < m:   floor(mr/4 - 1/2)
    ODD_R_LE = "ODD_R_LE"          # r odd, r <= m:          floor(mr/4 - m/(4r))


def g_bound(m: int, r: int) -> int:
    """(mr - m - r + gcd(m, r)) / 2, always an integer."""
    m, r = positive(m, "modulus"), positive(r, "dimension")
    return (m * r - m - r + gcd(m, r)) // 2


def bound_case(m: int, r: int) -> BoundCase:
    """The h_bound branch selected by the parities of m, r and their order."""
    m, r = positive(m, "modulus"), positive(r, "dimension")
    if m % 2 == 0:
        if r % 2 == 0:
            return BoundCase.EVEN_EVEN
        return BoundCase.EVEN_ODD_RGT if r > m else BoundCase.ODD_R_LE
    if r % 2 == 1:
        return BoundCase.ODD_R_LE if r <= m else BoundCase.ODD_RGT
    return BoundCase.ODD_RGT if r > m else BoundCase.ODD_EVEN_RLT


def h_bound(m: int, r: int) -> int:
    """Largest Lee norm of a minimal-in-coset vector in (Z/mZ)^r."""
    m, r = positive(m, "modulus"), positive(r, "dimension")
    case = bound_case(m, r)
    if case is BoundCase.EVEN_EVEN:
        return m * r // 4
    if case is BoundCase.ODD_RGT:
        return r * (m * m - 1) // (4 * m)
    if case is BoundCase.ODD_R_LE:
        return m * (r * r - 1) // (4 * r)
    # m even/odd with the opposite r parity near m: floor(mr/4 - 1/2)
    return (m * r - 2) // 4


def band_c(m: int, r: int) -> int:
    """The gap mr/2 - 2*h(m, r) between the extreme norms in a coset.

    Defined for even m and odd r <= 2m.  Writing m/2 = Q*r + R with
    0 <= R < r, the value is Q, Q+1 or Q+2 according to R being zero, odd,
    or positive even, and it is always congruent to m/2 mod 2.
    """
    m, r = positive(m, "modulus"), positive(r, "dimension")
    if m % 2 != 0:
        raise ValueError(f"band width needs an even modulus, got {m}")
    if r % 2 != 1:
        raise ValueError(f"band width needs an odd dimension, got {r}")
    if r > 2 * m:
        raise ValueError(f"band width needs r <= 2m, got r={r}, m={m}")
    return m * r // 2 - 2 * h_bound(m, r)

