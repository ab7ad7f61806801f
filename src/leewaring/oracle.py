"""Exhaustive ground truth for the maximal admissible norm.

The admissible norm of v (its minimum over the shifts v + x*e) depends
only on the multiset of v's coordinates.  Every coset of the all-ones
line holds a vector with a coordinate 0, so the C(m+r-2, r-1) states
{0} + S (S a multiset of r-1 residues) cover all m^(r-1) cosets; the
answer is the max over states of the min over shifts.  Row c of the
shift table, table[c, x] = w[(c + x) % m] for the norm's weight table w,
weighs residue c at every shift; it is a strided view of w + w, 2m
entries, never an m x m copy.  A state's norms at all m shifts are the
sum of the rows of its r coordinates.

Witness: the lexicographically smallest sorted((s + x) mod m) over the
maximal states s and their minimising shifts x, which is the smallest
admissible vector of maximal norm: each such vector arranges a shifted
state, and a multiset's sorted arrangement is its smallest.

Chunks: the states come from combinations_with_replacement, n =
max(1, _CHUNK_ENTRIES // (m + r)) at a time, as the n x (r-1) matrix of
their multisets S (one byte a residue when m <= 256, packed by bytes()
at C speed).  Row 0 plus r-1 row gathers from the table give the
chunk's n x m norm block, and from it each state's minimum, the chunk's
maximum and the (state, shift) pairs that attain it.  Those pairs,
shifted and sorted row by row, go through one lexsort, which gives the
chunk's smallest arrangement; across chunks the run keeps the best norm
and the smallest arrangement.  Norms are int32 when 4 * r * m < 2^31,
which bounds every norm.

Budget: a run is charged max(m^(r-1), C(m+r-2, r-1) * (m + r)) units
(cosets covered; states x (shifts + coordinates) over all chunks) and is
refused before it allocates when over budget.  The charge bounds time:
a chunk costs r-1 gathers, and m^(r-1) <= budget gives r-1 <= log2(budget)
for m >= 2 (m = 1 is answered without enumerating).  Memory is one chunk,
about _CHUNK_ENTRIES = 2^16 entries whatever m and the budget are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations_with_replacement, islice
from math import comb

from .admissible import is_admissible
from .errors import BudgetError, budgeted_power
from .modring import ModVec, NormKind, norm, require_kind, weights

DEFAULT_BUDGET = 10**7
# A chunk of n states holds about _CHUNK_ENTRIES = n * (m + r) entries.
_CHUNK_ENTRIES = 2**16


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

    Raises BudgetError over budget and TypeError when kind is not a NormKind.
    threads must be positive; the work is serial.
    """
    if m < 1 or r < 1:
        raise ValueError(f"m and r must be positive, got m={m}, r={r}")
    if threads < 1:
        raise ValueError(f"threads must be positive, got {threads}")
    require_kind(kind)
    if r == 1:  # one coordinate: every coset holds (0,), of norm 0
        return OracleResult(0, ModVec(m, (0,)), 1)
    cosets = _check_budget(m, r, budget)
    if m == 1:  # every coordinate is 0
        return OracleResult(0, ModVec(1, (0,) * r), 1)
    import numpy as np
    dtype = np.int32 if 4 * r * m < 2**31 else np.int64
    ww = np.array(weights(m, kind) * 2, dtype)
    # row c of the table, w[(c + x) % m] for x = 0, ..., m-1, is ww[c:c + m]: a strided
    # view of w + w that holds each row as one item, so that a gather copies whole rows
    table = np.ndarray(m, (np.void, ww.itemsize * m), buffer=ww, strides=ww.strides)
    chunk = max(1, _CHUNK_ENTRIES // (m + r))
    states = combinations_with_replacement(range(m), r - 1)
    # residues below 256 fit a byte, and bytes() packs them about twice as fast as fromiter
    if m <= 256:
        pack = lambda flat: np.frombuffer(bytes(flat), np.uint8)
    else:
        pack = partial(np.fromiter, dtype=np.intp)
    best, top = -1, None  # top: the best witness, sorted
    while (free := pack(chain.from_iterable(islice(states, chunk)))).size:
        free = free.reshape(-1, r - 1)  # free[s]: the coordinates of state s after its 0
        norms = table[free[:, 0]].view(dtype).reshape(-1, m)  # norms[s, x]: state s shifted by x
        norms += ww[:m]
        for i in range(1, r - 1):
            norms += table[free[:, i]].view(dtype).reshape(-1, m)
        mins = norms.min(axis=1)
        peak = int(mins.max())
        if peak < best:
            continue
        tied = np.flatnonzero(mins == peak)
        ids, xs = np.nonzero(norms[tied] == peak)
        rows = np.zeros((ids.size, r), dtype)  # each maximal state at each minimising shift
        rows[:, 1:] = free[tied[ids]]
        rows += xs[:, None]
        rows %= m
        rows.sort(axis=1)
        cand = rows[np.lexsort(rows.T[::-1])[0]].tolist()  # the chunk's smallest arrangement
        if peak > best or cand < top:
            best, top = peak, cand
    witness = ModVec(m, top)
    if not is_admissible(witness, kind) or norm(witness, kind) != best:
        raise AssertionError("oracle witness failed its self-check")
    return OracleResult(best, witness, cosets)
