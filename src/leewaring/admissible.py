"""Admissibility and the shape of norm sequences.

A vector is admissible when no shift by a multiple of the all-ones vector
lowers its norm, i.e. its norm is minimal within its coset of the
all-ones line.  The norm sequence of v lists ||v + x*e|| for all x; its
strict local extrema (with plateaus, read cyclically) drive the balanced
vector constructions.  shift_norms is the single-vector kernel that
computes a norm sequence from a residue histogram and a weight table
(modring.weights) in O(m) steps, chained by itertools at C speed; the
oracle, which scores many states at once, sums rows of a shift table
instead.  Admissibility, the canonical shift (which returns an admissible
vector itself), balancedness and the m-sequence read the norm sequence and
the coordinates with builtins and operator maps, not a Python step per
entry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import accumulate, compress, cycle, islice, repeat
from math import gcd
from operator import add, le, mul, neg, sub
from typing import Sequence

from .modring import ModVec, NormKind, shift, weights


def shift_norms(hist, w):
    """Yield the norms sum_c hist[c] * w[(c + x) % m] at the shifts x = 0, ..., m-1.

    hist[c] counts the coordinates equal to c, and w weighs each residue.  This
    is the single-vector kernel of norm_sequence: hist is a list of ints (numpy
    rows, one entry per vector, step the same way).  Step x -> x+1 adds the
    slope sum_c hist[c] * step[(c + x) % m], step[j] = w[j+1] - w[j]
    cyclically.  The slope changes only at the bends j, where turn[j] =
    step[j] - step[j-1] is not 0: by turn[j] for each of the
    hist[(j - x - 1) % m] coordinates that reach j.  compress picks the bends
    out of turn, and a bend's reach at every shift is one slice of the
    reversed histogram written twice.  The turns share a factor u (2 for LEE
    at even m, m for ONE, 1 for LEE at odd m), so the reaches are added or
    subtracted, scaled by |turn[j]| / u only where that is not 1, and their
    sum is scaled by u once.  ONE and LEE, with 2 or 3 bends, cost O(1) row
    operations a step, chained by itertools at C speed for an int list.
    """
    m = len(hist)
    step = list(map(sub, w[1:] + w[:1], w))
    turn = list(map(sub, step, step[-1:] + step[:-1]))
    bends = list(compress(range(m), turn))
    unit = gcd(*map(turn.__getitem__, bends)) or 1
    back = [*hist[::-1]] * 2  # back[m + x - j] = hist[(j - x - 1) % m]: at shift x, the coordinates that reach j
    turns = repeat(0)  # no bends: w is constant
    for k, j in enumerate(bends):
        e, reach = turn[j] // unit, back[m - j:2 * m - j]
        if abs(e) != 1:
            reach = map(mul, repeat(abs(e)), reach)
        if k:
            turns = map(add if e > 0 else sub, turns, reach)
        else:
            turns = reach if e > 0 else map(neg, reach)
    if unit != 1:
        turns = map(mul, repeat(unit), turns)
    slopes = accumulate(turns, initial=sum(map(mul, step, hist)))
    return islice(accumulate(slopes, initial=sum(map(mul, w, hist))), m)


def norm_sequence(v: ModVec, kind: NormKind) -> list[int]:
    """All norms ||v + x*e|| for x = 0, ..., m-1, in O(m + r) by shift_norms.

    The histogram is counted coordinate by coordinate, a list index and an
    add each, which is faster than collections.Counter.
    """
    hist = [0] * v.modulus
    for c in v.coords:
        hist[c] += 1
    return list(shift_norms(hist, weights(v.modulus, kind)))


def is_admissible(v: ModVec, kind: NormKind) -> bool:
    """True iff entry 0 of the norm sequence is a global minimum."""
    seq = norm_sequence(v, kind)
    return seq[0] == min(seq)


def canonical_shift(v: ModVec, kind: NormKind) -> tuple[int, ModVec]:
    """Smallest x minimising ||v + x*e||, with the shifted (admissible) vector.

    Ties break towards the smallest shift so results are reproducible.  An
    admissible v (least shift 0) comes back itself: ModVec is immutable.
    """
    seq = norm_sequence(v, kind)
    x = seq.index(min(seq))
    return x, shift(v, x) if x else v


class ExtremumKind(enum.Enum):
    MAX = "max"
    MIN = "min"


@dataclass(frozen=True)
class Extremum:
    """A strict local maximum or minimum plateau of a cyclic sequence.

    index is the first position of the plateau (entered by a strict step),
    plateau its length; 1 <= plateau <= len(seq) - 1.
    """

    index: int
    kind: ExtremumKind
    plateau: int


def extremal_values(seq: Sequence[int]) -> list[Extremum]:
    """Strict local maxima and minima of a cyclic sequence.

    A plateau at x of length c is a maximum when seq[x-1] < seq[x] and
    seq[x+c] < seq[x] (indices mod len), a minimum symmetrically.  The
    constant sequence has no extrema.  Results are ordered by index, and
    maxima and minima alternate cyclically.
    """
    m = len(seq)
    out: list[Extremum] = []
    if m == 0 or all(a == seq[0] for a in seq):
        return out
    for x in range(m):
        here = seq[x]
        prev = seq[x - 1]
        if prev == here:
            continue  # inside a plateau, not its entry point
        c = 1
        while seq[(x + c) % m] == here:
            c += 1
        nxt = seq[(x + c) % m]
        if prev < here and nxt < here:
            out.append(Extremum(x, ExtremumKind.MAX, c))
        elif prev > here and nxt > here:
            out.append(Extremum(x, ExtremumKind.MIN, c))
    return out


def is_balanced(v: ModVec) -> bool:
    """Whether 0 = v1 <= v2 - m/2 <= v3 <= ... <= v(r-1) - m/2 <= vr < m/2.

    Needs m even and r odd.  Odd positions carry values in [0, m/2), even
    positions values in [m/2, m), and the offsets interleave into a single
    non-decreasing chain; such vectors have norm sequences of slope +-1.
    """
    m, r = v.modulus, len(v)
    if m % 2 != 0:
        raise ValueError(f"balancedness needs an even modulus, got {m}")
    if r % 2 != 1:
        raise ValueError(f"balancedness needs an odd dimension, got {r}")
    half = m // 2
    offsets = list(map(sub, v.coords, cycle((0, half))))
    return offsets[0] == 0 and offsets[-1] < half and all(map(le, offsets, offsets[1:]))


def m_sequence(v: ModVec) -> list[int]:
    """Norms of a balanced vector at the shifts where its norm sequence can bend.

    Entry 0 is ||v||; entry i >= 1 evaluates the norm after shifting by
    m/2 - c (i odd) or m - c (i even), where c is coordinate r-i+1.  These
    r+1 values include every extremal value of the norm sequence over the
    shifts 0..m/2, and their absolute consecutive differences sum to m/2.
    """
    if not is_balanced(v):
        raise ValueError("m_sequence needs a balanced vector")
    seq = norm_sequence(v, NormKind.LEE)
    # shift m/2 - c or m - c, read as the index m/2 - c or -c: both lie in (-m, m)
    return [seq[0], *map(seq.__getitem__, map(sub, cycle((v.modulus // 2, 0)), reversed(v.coords)))]
