"""The coset-enumeration oracle, kept as the reference for the multiset oracle.

One representative per coset of the all-ones line (first coordinate
pinned to 0), all m shift norms per representative from an m x m shift
table, in fixed-size chunks reduced in index order.  The witness is the
lexicographically smallest canonically shifted vector among the
representatives of maximal min-over-shift norm (the original per-tie
Python loop is replaced by one lexsort per chunk; the rule is the same).
"""

import numpy as np

from leewaring import NormKind

_CHUNK = 1 << 15


def _scan(m: int, r: int, wshift: np.ndarray, lo: int, hi: int) -> tuple[int, tuple[int, ...]]:
    idx = np.arange(lo, hi, dtype=np.int64)
    rows = np.zeros((idx.size, r), dtype=np.int64)
    for j in range(r - 1):  # column 0 stays 0: coset representatives
        rows[:, r - 1 - j] = (idx // m**j) % m
    norms = np.empty((idx.size, m), dtype=np.int64)
    for x in range(m):
        norms[:, x] = wshift[x][rows].sum(axis=1)
    mins = norms.min(axis=1)
    best = int(mins.max())
    tied = np.flatnonzero(mins == best)
    # each tied representative shifted by its smallest minimising shift
    # (argmin takes the first), then the lexicographically smallest of them
    shifted = (rows[tied] + norms[tied].argmin(axis=1)[:, None]) % m
    first = np.lexsort(shifted.T[::-1])[0]
    return best, tuple(int(c) for c in shifted[first])


def coset_max_admissible(m: int, r: int, kind: NormKind) -> tuple[int, tuple[int, ...], int]:
    """(max admissible norm, witness coordinates, cosets enumerated)."""
    c = np.arange(m, dtype=np.int64)
    w = c if kind is NormKind.ONE else np.minimum(c, m - c)
    wshift = np.stack([w[(np.arange(m) + x) % m] for x in range(m)])
    total = m ** (r - 1)
    best, witness = -1, None
    for lo in range(0, total, _CHUNK):
        b, wit = _scan(m, r, wshift, lo, min(lo + _CHUNK, total))
        if b > best or (b == best and wit < witness):
            best, witness = b, wit
    return best, witness, total
