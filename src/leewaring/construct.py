"""Constructions of admissible vectors attaining the norm bounds exactly.

construct_max_norm1 hits g_bound for the least-residue norm; the
construct_max_lee dispatch hits h_bound for the Lee norm via even
dimensions, balanced vectors rebuilt from step plans (even modulus),
halving even vectors (odd modulus), and full-cycle reductions for large
dimensions.  Every routine returns a vector whose admissibility and exact
norm are cheap to re-check; the test suite and the CLI self-check do so.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, cycle, repeat
from operator import add, index, mul, sub

from .admissible import m_sequence
from .errors import dims, positive
from .modring import ModVec, concat, halve


def construct_max_norm1(m: int, r: int) -> ModVec:
    """Admissible vector of maximal least-residue norm g_bound(m, r).

    For k = 1..m-1 it places (r(k-1) mod m + r - rk mod m)/m coordinates
    equal to m - k (in descending value order) and fills up with zeros;
    every shift x then raises the norm by exactly rx mod m.
    """
    m, r = dims(m, r)
    coords: list[int] = []
    for k in range(1, m):
        t_k = ((r * (k - 1)) % m + r - (r * k) % m) // m
        coords.extend([m - k] * t_k)
    coords.extend([0] * (r - len(coords)))
    return ModVec(m, coords)


def full_cycle(m: int) -> ModVec:
    """(0, 1, ..., m-1): shifts permute the coordinates, so it is admissible.

    Its Lee norm, m^2/4 for even m and (m^2-1)/4 for odd m, is maximal for
    dimension r = m.
    """
    m = positive(m, "modulus")
    return ModVec(m, range(m))


def construct_even_dim(m: int, r: int) -> ModVec:
    """Admissible vector of maximal Lee norm for even dimension r.

    Even m: r/2 copies of (0, m/2), each contributing the constant m/2.
    Odd m: pairs (y_i, y_i + (m-1)/2) with y_i = -(i-1)(m-1)/2, rotated so
    that the high plateaus of their norm sequences tile the shift range as
    evenly as possible, leaving shift 0 minimal.
    """
    r = index(r)
    if r < 2 or r % 2 != 0:
        raise ValueError(f"dimension must be even and >= 2, got {r}")
    m = positive(m, "modulus")
    if m % 2 == 0:
        return ModVec(m, (0, m // 2) * (r // 2))
    step = (m - 1) // 2
    coords: list[int] = []
    for i in range(r // 2):
        y = (-i * step) % m
        coords.extend((y, y + step))
    return ModVec(m, coords)


@dataclass(frozen=True)
class MDiffPlan:
    """Signed steps between consecutive entries of a balanced vector's m-sequence.

    A valid plan over modulus m (even) has step sizes summing to m/2, a
    first step >= 1, and running sums that never leave [0, total]; the
    total is the band width the rebuilt vector's norm sequence may use, so
    band containment makes the rebuilt vector admissible.
    """

    modulus: int
    diffs: tuple[int, ...]

    def validate(self) -> None:
        m, d = self.modulus, self.diffs
        if m < 2 or m % 2 != 0:
            raise ValueError(f"plan modulus must be even, got {m}")
        if not d:
            raise ValueError("plan must contain at least one step")
        if d[0] < 1:
            raise ValueError(f"first step must be >= 1, got {d[0]}")
        if sum(map(abs, d)) != m // 2:
            raise ValueError(f"step sizes must sum to m/2 = {m // 2}, got {sum(map(abs, d))}")
        sums = list(accumulate(d))
        if min(sums) < 0 or max(sums) > sums[-1]:
            raise ValueError("running sums leave the band [0, total]")


def vector_from_m_diffs(plan: MDiffPlan, r: int) -> ModVec:
    """Rebuild the unique balanced vector with v1 = 0 whose m-sequence steps match.

    Solving the step relations right to left: vr = m/2 - d0, then each
    earlier coordinate alternates around m/2 (v(r-i) = d_i + m/2 + v(r-i+1)
    for odd i, v(r-i) = v(r-i+1) - m/2 - d_i for even i), one accumulate.
    The result is range-checked against the balanced chain, must end on
    v1 = 0, and must reproduce the plan through m_sequence.
    """
    plan.validate()
    m, d = plan.modulus, plan.diffs
    if len(d) != r:
        raise ValueError(f"plan has {len(d)} steps but r={r}")
    if r % 2 != 1:
        raise ValueError(f"dimension must be odd, got {r}")
    half = m // 2
    vals = [*accumulate(map(mul, cycle((1, -1)), map(add, d[1:], repeat(half))), initial=half - d[0])][::-1]
    offsets = list(map(sub, vals, cycle((0, half))))  # the balanced chain, each in [0, m/2)
    if min(offsets) < 0 or max(offsets) >= half:
        pos = next(pos for pos, c in enumerate(offsets, 1) if not 0 <= c < half)
        lo, hi = (0, half) if pos % 2 == 1 else (half, m)
        raise ValueError(f"inconsistent plan: coordinate {pos} = {vals[pos - 1]} outside [{lo}, {hi})")
    if vals[0] != 0:
        raise ValueError(f"inconsistent plan: first coordinate is {vals[0]}, not 0")
    v = ModVec(m, vals)
    ms = m_sequence(v)
    if tuple(map(sub, ms[1:], ms)) != d:
        raise ValueError("inconsistent plan: rebuilt vector does not reproduce the steps")
    return v


def plan_even_modulus(m: int, r: int) -> MDiffPlan:
    """Step plan whose rebuilt vector is admissible of Lee norm h_bound(m, r).

    Needs m even, r odd, r <= 2m.  With m/2 = Q*r + R (0 <= R < r), steps
    of size Q fill the middle and steps of size Q+1 go first and last so
    the running sums stay inside the band of width band_c(m, r).
    """
    m, r = _check_plan_dims(m, r)
    if m % 2 != 0:
        raise ValueError(f"plan needs an even modulus, got {m}")
    q, rem = divmod(m // 2, r)
    if rem == 0:
        mags = [q] * r
    else:
        mags = [q + 1] + [q] * (r - rem) + [q + 1] * (rem - 1)
    return MDiffPlan(m, _alternate(mags))


def plan_even_vector(m: int, r: int) -> MDiffPlan:
    """Step plan with every step size odd, so the rebuilt vector is even.

    Needs m = 2 mod 4 and r odd with r <= m/2.  The rebuilt vector is
    admissible of Lee norm 2*h_bound(m/2, r); when h_bound(m, r) is odd no
    even vector reaches it and the band widens by 2.  With m/2 = Q*r + R:

      R = 0:                     all steps Q (odd);
      R odd, R = r mod 4:        (r+R)/2 steps Q+1, then Q-1;
      R odd, R != r mod 4:       (r+R)/2 - 2 steps Q+1, then Q-1, last Q+3;
      R = 2 mod 4:               r - R/2 steps Q, then Q+2;
      R = 0 mod 4, R > 0:        r - 1 - (R-4)/2 steps Q, then Q+2, last Q+4.
    """
    m, r = _check_plan_dims(m, r)
    if m % 4 != 2:
        raise ValueError(f"even-vector plan needs m = 2 mod 4, got {m}")
    if r > m // 2:
        raise ValueError(f"even-vector plan needs r <= m/2, got r={r}, m={m}")
    q, rem = divmod(m // 2, r)
    if rem == 0:
        mags = [q] * r
    elif rem % 2 == 1 and (r - rem) % 4 == 0:
        hi = (r + rem) // 2
        mags = [q + 1] * hi + [q - 1] * (r - hi)
    elif rem % 2 == 1:
        hi = (r + rem) // 2 - 2
        mags = [q + 1] * hi + [q - 1] * (r - 1 - hi) + [q + 3]
    elif rem % 4 == 2:
        lo = r - rem // 2
        mags = [q] * lo + [q + 2] * (rem // 2)
    else:
        lo = r - 1 - (rem - 4) // 2
        mags = [q] * lo + [q + 2] * ((rem - 4) // 2) + [q + 4]
    return MDiffPlan(m, _alternate(mags))


def _check_plan_dims(m: int, r: int) -> tuple[int, int]:
    m, r = dims(m, r)
    if r % 2 != 1:
        raise ValueError(f"plans need an odd dimension, got {r}")
    if r > 2 * m:
        raise ValueError(f"plans need r <= 2m, got r={r}, m={m}")
    return m, r


def _alternate(mags: list[int]) -> tuple[int, ...]:
    return tuple(map(mul, mags, cycle((1, -1))))


def construct_odd_modulus(m: int, r: int) -> ModVec:
    """Admissible vector of Lee norm h_bound(m, r) for odd m and odd r <= m.

    Builds an even admissible vector of norm 2*h_bound(m, r) over Z/2mZ
    and halves it; halving preserves admissibility and halves the norm.
    """
    m, r = index(m), index(r)
    if m < 1 or m % 2 != 1:
        raise ValueError(f"needs an odd modulus, got {m}")
    if r < 1 or r % 2 != 1 or r > m:
        raise ValueError(f"needs an odd dimension <= m, got r={r}, m={m}")
    doubled = vector_from_m_diffs(plan_even_vector(2 * m, r), r)
    return halve(doubled)


def construct_max_lee(m: int, r: int) -> ModVec:
    """Admissible vector of maximal Lee norm h_bound(m, r), for any m, r >= 1.

    Dispatch: peel full cycles while r >= 2m (leaving a residual dimension
    in [m, 2m)); even r via paired constructions; odd r with even m via a
    step plan; odd r with odd m via halving (r <= m) or by appending one
    full cycle to the even-dimension solution (m < r < 2m).
    """
    m, r = dims(m, r)
    if r >= 2 * m:
        residual = r % m + m
        cycles = full_cycle(m).coords * ((r - residual) // m)
        return ModVec(m, cycles + construct_max_lee(m, residual).coords)
    if r % 2 == 0:
        return construct_even_dim(m, r)
    if m % 2 == 0:
        return vector_from_m_diffs(plan_even_modulus(m, r), r)
    if r <= m:
        return construct_odd_modulus(m, r)
    return concat(construct_even_dim(m, r - m), full_cycle(m))
