"""Exhaustive ground truth for the maximal admissible norm.

The admissible norm of v (its minimum over the shifts v + x*e) depends
only on the multiset of v's coordinates.  Every coset of the all-ones
line holds a vector with a coordinate 0, so the C(m+r-2, r-1) states
{0} + S (S a multiset of r-1 residues) cover all m^(r-1) cosets; the
answer is the max over states of the min over shifts.  Those norms come
from admissible.shift_norms, the kernel behind every norm sequence, fed
the norm's weight table and the residue histograms of a chunk of states
as numpy rows, so that it steps the whole chunk at once.

Witness: the lexicographically smallest sorted((s + x) mod m) over the
maximal states s and their minimising shifts x, which is the smallest
admissible vector of maximal norm: each such vector arranges a shifted
state, and a multiset's sorted arrangement is its smallest.

Chunks: the states come from combinations_with_replacement, n =
max(_CHUNK_MIN, _CHUNK_ENTRIES // (m + r)) at a time.  One shift_norms
pass gives the chunk's m x n norm block, and from it each state's
minimum, the chunk's maximum and the minimising shifts of its maximal
states.  The witness rule picks among those; across chunks the run keeps
the best norm and the largest witness count vector (copies of 0, of 1,
...), which is the smallest sorted arrangement.  Histogram and norms are
int32 when 4 * r * m < 2^31, which bounds every norm, slope and turn.

Budget: a run is charged max(m^(r-1), C(m+r-2, r-1) * (m + r)) units
(cosets covered; states x (shifts + coordinates) over all chunks) and is
refused before it allocates when over budget.  The charge bounds time.
Memory is one chunk, about max(_CHUNK_ENTRIES, _CHUNK_MIN * (m + r))
entries each of histogram and norms, whatever the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, islice
from math import comb

from .admissible import is_admissible, shift_norms
from .errors import BudgetError, budgeted_power
from .modring import ModVec, NormKind, norm, weights

DEFAULT_BUDGET = 10**7
# A chunk holds about _CHUNK_ENTRIES histogram entries, and never fewer than
# _CHUNK_MIN states, since each chunk costs m numpy steps.
_CHUNK_ENTRIES = 2**16
_CHUNK_MIN = 2048


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
    dtype = np.int32 if 4 * r * m < 2**31 else np.int64
    chunk = max(_CHUNK_MIN, _CHUNK_ENTRIES // (m + r))
    w = weights(m, kind)
    states = combinations_with_replacement(range(m), r - 1)
    best, top = -1, None  # top: the best witness's count vector
    while (free := np.fromiter(chain.from_iterable(islice(states, chunk)), np.int64)).size:
        n = free.size // (r - 1)
        hist = np.bincount(free * n + np.repeat(np.arange(n), r - 1), minlength=m * n)
        hist = hist.reshape(m, n).astype(dtype)  # hist[c, s]: copies of residue c in state s
        hist[0] += 1
        # norms[x, s]: the norm of state s shifted by x
        norms = np.fromiter(shift_norms(hist, w), np.dtype((dtype, n)), m)
        mins = norms.min(axis=0)
        peak = int(mins.max())
        if peak < best:
            continue
        tied = mins == peak
        hist = hist[:, tied]
        xs, ids = np.nonzero(norms[:, tied] == peak)
        left = r  # the smallest sorted arrangement holds the most 0s, then the most 1s, ...
        for value in range(m):
            counts = hist[(value - xs) % m, ids]
            keep = counts == counts.max()
            xs, ids, left = xs[keep], ids[keep], left - int(counts.max())
            if left == 0:
                break
        col, x = hist[:, ids[0]].tolist(), m - int(xs[0])
        cand = col[x:] + col[:x]  # the chunk's witness: its copies of each value
        if peak > best or cand > top:
            best, top = peak, cand
    witness = ModVec(m, np.repeat(np.arange(m), top))
    if not is_admissible(witness, kind) or norm(witness, kind) != best:
        raise AssertionError("oracle witness failed its self-check")
    return OracleResult(best, witness, cosets)
