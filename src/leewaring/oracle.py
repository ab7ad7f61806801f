"""Exhaustive ground truth for the maximal admissible norm.

The admissible norm of v (its minimum over the shifts v + x*e) depends
only on the multiset of v's coordinates.  Every coset of the all-ones
line holds a vector with a coordinate 0, so the C(m+r-2, r-1) states
{0} + S (S a multiset of r-1 residues) cover all m^(r-1) cosets; the
answer is the max over states of the min over shifts.  Those norms come
from admissible.shift_norms, the kernel behind every norm sequence, fed
the norm's weight table and the states' residue histograms as numpy rows
so that it steps them all at once.

Witness: the lexicographically smallest sorted((s + x) mod m) over the
maximal states s and their minimising shifts x, which is the smallest
admissible vector of maximal norm: each such vector arranges a shifted
state, and a multiset's sorted arrangement is its smallest.

Budget: a run costs max(m^(r-1), C(m+r-2, r-1) * (m + r)) units (cosets
covered; entries of the states x (shifts + coordinates) arrays), about 8
bytes each, and is refused before allocating when over budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations_with_replacement
from math import comb

from .admissible import is_admissible, shift_norms
from .errors import BudgetError, budgeted_power
from .modring import ModVec, NormKind, norm, weights

DEFAULT_BUDGET = 10**7


@dataclass(frozen=True)
class OracleResult:
    """Maximal admissible norm, a witness attaining it, and the cosets covered."""

    max_norm: int
    witness: ModVec
    enumerated: int


def _check_budget(m: int, r: int, budget: int) -> int:
    """The m^(r-1) cosets covered, once the run is known to fit the budget."""
    cosets = budgeted_power(m, r - 1, budget, "oracle enumeration")
    required = max(cosets, comb(m + r - 2, r - 1) * (m + r))
    if required > budget:
        raise BudgetError(required, budget, "oracle enumeration")
    return cosets


def brute_max_admissible(
    m: int, r: int, kind: NormKind, budget: int = DEFAULT_BUDGET, threads: int = 1
) -> OracleResult:
    """Exhaustive maximum of the admissible norm over (Z/mZ)^r with a witness.

    Raises BudgetError over budget.  threads must be positive; the work is serial.
    """
    if m < 1 or r < 1:
        raise ValueError(f"m and r must be positive, got m={m}, r={r}")
    if threads < 1:
        raise ValueError(f"threads must be positive, got {threads}")
    if r == 1:  # one coordinate: every coset holds (0,), of norm 0
        return OracleResult(0, ModVec(m, (0,)), 1)
    cosets = _check_budget(m, r, budget)
    import numpy as np
    states = comb(m + r - 2, r - 1)
    free = np.fromiter(chain.from_iterable(combinations_with_replacement(range(m), r - 1)), np.int64)
    hist = np.bincount(free * states + np.repeat(np.arange(states), r - 1), minlength=m * states)
    hist = hist.reshape(m, states)  # hist[c, s]: copies of residue c in state s
    hist[0] += 1
    w = weights(m, kind)
    mins = reduce(np.minimum, shift_norms(hist, w))
    best = int(mins.max())
    hist = hist[:, mins == best]
    xs, ids = np.nonzero(np.array(list(shift_norms(hist, w))) == best)
    left = r  # the smallest sorted arrangement holds the most 0s, then the most 1s, ...
    for value in range(m):
        counts = hist[(value - xs) % m, ids]
        keep = counts == counts.max()
        xs, ids, left = xs[keep], ids[keep], left - int(counts.max())
        if left == 0:
            break
    witness = ModVec(m, np.repeat(np.arange(m), np.roll(hist[:, ids[0]], xs[0])))
    if not is_admissible(witness, kind) or norm(witness, kind) != best:
        raise AssertionError("oracle witness failed its self-check")
    return OracleResult(best, witness, cosets)
