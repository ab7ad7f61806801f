"""Exhaustive ground truth for the maximal admissible norm.

The admissible norm of v (its minimum over the shifts v + x*e) depends
only on the multiset of v's coordinates.  Every coset of the all-ones
line holds a vector with a coordinate 0, so the C(m+r-2, r-1) states
{0} + S (S a multiset of k = r-1 residues) cover all m^(r-1) cosets; the
answer is the max over states of the min over shifts.  Row c of the
shift table, w[(c + x) % m] over the shifts x for the norm's weight
table w, weighs residue c at every shift; it is a strided view of w + w,
2m entries.  A state's norms at all m shifts are the sum of the rows of
its r coordinates.

Meet in the middle (Horowitz and Sahni): S, sorted, splits into a prefix
of its a smallest residues and a suffix of its d = k - a largest.  The
n = C(m+d-1, d) suffixes are drawn once per call, in lex order, and
scored into the shift-major grid[x, j] with row 0 folded in; those of
minimum >= L are its tail from n - C(m-L+d-1, d).  The prefixes stream in
order of falling maximum L, each scored once.  A state is then a prefix
column plus a grid column: one add and one minimum per shift, nothing
per coordinate.  d is the largest depth whose grid, shifts and
coordinates together (n x (m + d)) fit _CHUNK_ENTRIES, so every small
call has a = 0 and is one tile.  For d = 1 the grid is the shift table
itself (it is symmetric, T[c, x] = T[x, c]), read through a strided
m x m view and never copied, and row 0 goes with the prefixes instead.

Tiles: a block of consecutive prefixes meets the suffix tail of its
smallest maximum, width suffixes a tile; tile[x, i, j] is prefix i with
suffix j at shift x, reduced over x.  A prefix paired with a suffix below
its maximum revisits some state, which changes neither the maximum nor
the witness.  A block takes the prefixes of further maxima only while its
tiles stay within _CHUNK_ENTRIES entries and cover at most twice the
states it must; a single prefix splits its tail into tiles of about
_CHUNK_ENTRIES entries.  A tile of fewer states than shifts is laid out
state by state, so that its minima run along rows of m entries.

Witness: the lexicographically smallest sorted((s + x) mod m) over the
maximal states s and their minimising shifts x, which is the smallest
admissible vector of maximal norm: each such vector arranges a shifted
state, and a multiset's sorted arrangement is its smallest.  A tile that
reaches the best norm so far sorts the arrangements of its tied (prefix,
suffix, shift) triples row by row and takes the smallest by one lexsort;
across tiles the run keeps the best norm and the smallest arrangement.
Coordinates are one byte each when m <= 256 (packed by bytes() at C
speed) and intp above.  Norms are int32 when 4 * r * m < 2^31, which
bounds every norm.

Budget: errors.charge refuses a run over budget before it allocates.  It
is charged max(m^(r-1), C(m+r-2, r-1) * (m + r)) units (cosets covered;
states x (shifts + coordinates)).  The charge bounds the time: the tiles
hold at most 2 * states * m entries; the grid and the prefixes, neither
family more numerous than the states, gather at most r - 1 rows of m
entries each; and m^(r-1) <= budget gives r - 1 <= log2(budget) for
m >= 2 (m = 1 is answered without enumerating).  Each tile and each
prefix block covers a state that no other does, so neither outnumbers
the states.  Memory is one tile, one prefix block and the grid, each of
about _CHUNK_ENTRIES = 2^16 entries whatever m and the budget are (the
grid's gather holds d rows a suffix, at most 3.3 times that).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations_with_replacement, islice
from math import comb
from operator import index

from .admissible import norm_sequence
from .errors import budgeted_power, charge, dims, positive
from .modring import ModVec, NormKind, require_kind, weights

DEFAULT_BUDGET = 10**7
# A tile, a prefix block and the suffix grid each hold about _CHUNK_ENTRIES entries.
_CHUNK_ENTRIES = 2**16


@dataclass(frozen=True)
class OracleResult:
    """Maximal admissible norm, a witness attaining it, and the cosets covered."""

    max_norm: int
    witness: ModVec
    enumerated: int


def _depth(m: int, k: int) -> int:
    """The suffix depth: the largest d <= k whose C(m+d-1, d) x (m + d) grid fits, and at least 1."""
    d = 1
    while d < k and comb(m + d, d + 1) * (m + d + 1) <= _CHUNK_ENTRIES:
        d += 1
    return d


def _tiles(m: int, a: int, d: int):
    """The run's tiles, as blocks of prefixes in draw order.

    Yields (rows, start, width): the next rows prefixes meet the suffixes
    from index start on, width suffixes a tile.
    """
    n = comb(m + d - 1, d)
    if a == 0:  # the one empty prefix
        yield 1, 0, min(n, max(1, _CHUNK_ENTRIES // m))
        return
    rows = exact = tail = 0  # the open block: its prefixes, the states it must cover, its suffixes
    for high in range(m - 1, -1, -1):  # the prefixes of maximum high need the suffixes of minimum >= high
        count, suffixes = comb(high + a - 1, a - 1), comb(m - high + d - 1, d)
        cap = max(1, _CHUNK_ENTRIES // (suffixes * m))
        while count:
            take = min(count, cap - rows)
            if rows and (take <= 0 or (rows + take) * suffixes > 2 * (exact + take * suffixes)):
                yield rows, n - tail, min(tail, max(1, _CHUNK_ENTRIES // (rows * m)))
                rows = exact = 0
                continue
            rows, exact, count, tail = rows + take, exact + take * suffixes, count - take, suffixes
    yield rows, n - tail, min(tail, max(1, _CHUNK_ENTRIES // (rows * m)))


def brute_max_admissible(
    m: int, r: int, kind: NormKind, budget: int = DEFAULT_BUDGET, threads: int = 1
) -> OracleResult:
    """Exhaustive maximum of the admissible norm over (Z/mZ)^r with a witness.

    m, r, budget and threads must be integers (operator.index); a float or a
    string raises TypeError.  Raises BudgetError over budget and TypeError
    when kind is not a NormKind.  threads must be at least 1; the work is serial.
    """
    m, r, budget, threads = index(m), index(r), index(budget), index(threads)
    dims(m, r)
    positive(threads, "threads")
    require_kind(kind)
    if r == 1:  # one coordinate: every coset holds (0,), of norm 0
        return OracleResult(0, ModVec(m, (0,)), 1)
    cosets = budgeted_power(m, r - 1, budget, "oracle enumeration")
    charge(max(cosets, comb(m + r - 2, r - 1) * (m + r)), budget, "oracle enumeration")
    if m == 1:  # every coordinate is 0
        return OracleResult(0, ModVec(1, (0,) * r), 1)
    import numpy as np
    dtype = np.int32 if 4 * r * m < 2**31 else np.int64
    d = _depth(m, r - 1)
    a = r - 1 - d
    ww = np.array(weights(m, kind) * 2, dtype)
    item = ww.itemsize
    # item c of table is the row w[(c + x) % m] over the shifts x, ww[c:c + m]: a strided
    # view of w + w that holds each row as one item, so that a gather copies whole rows
    table = np.ndarray(m, (np.void, item * m), buffer=ww, strides=(item,))
    # residues below 256 fit a byte, and bytes() packs them about twice as fast as fromiter
    if m <= 256:
        pack = lambda flat: np.frombuffer(bytes(flat), np.uint8)
    else:
        pack = partial(np.fromiter, dtype=np.intp)
    # grid[x, j]: suffix j at shift x.  For d = 1 it is the table itself, w[(x + j) % m],
    # read through a strided m x m view of w + w and never copied, and row 0 goes with
    # the prefixes; a built grid holds row 0, so that a = 0 makes it the one tile
    if d == 1:
        suffix = np.arange(m).reshape(m, 1)
        grid = np.ndarray((m, m), dtype, buffer=ww, strides=(item, item))
        lead = ww[:m, None]
    else:
        suffix = pack(chain.from_iterable(combinations_with_replacement(range(m), d))).reshape(-1, d)
        scores = table[suffix.T.ravel()].view(dtype).reshape(d, -1, m).sum(axis=0, dtype=dtype)
        scores += ww[:m]
        grid = np.ascontiguousarray(scores.T)
        lead = None
    n = suffix.shape[0]
    if a:
        # drawn from the falling residues, each prefix falls, so that its first residue is
        # its maximum and the maxima fall in draw order
        prefixes = combinations_with_replacement(range(m - 1, -1, -1), a)
    best, top = -1, None  # top: the best witness, sorted
    for rows, start, width in _tiles(m, a, d):
        score = lead  # score[x, i]: prefix i at shift x, with row 0 when d = 1
        if a:
            drawn = pack(chain.from_iterable(islice(prefixes, rows))).reshape(rows, a)
            own = table[drawn[:, 0]].view(dtype).reshape(rows, m)
            for t in range(1, a):
                own += table[drawn[:, t]].view(dtype).reshape(rows, m)
            score = own.T if lead is None else own.T + lead
        # a tile of fewer states than shifts is laid out state by state, so that the
        # minima run along rows of m entries rather than across short ones
        order = "C" if rows * width >= m else "F"
        for lo in range(start, n, width):
            tile = grid[:, None, lo:lo + width]  # tile[x, i, j]: prefix i with suffix lo + j
            if score is not None:
                tile = np.add(tile, score[:, :, None], order=order)
            mins = tile.min(axis=0)
            peak = int(mins.max())
            if peak < best:
                continue
            tied = (mins == peak).ravel().nonzero()[0]  # i * tile.shape[2] + j: prefix i, suffix lo + j
            states = tile.transpose(1, 2, 0).reshape(-1, m)[tied]  # tied states' rows, in either layout
            ids, xs = np.divmod((states == peak).ravel().nonzero()[0], m)
            each = np.zeros((ids.size, r), dtype)  # each maximal state at each minimising shift
            if a:
                i, j = np.divmod(tied[ids], tile.shape[2])
                each[:, 1:a + 1] = drawn[i]
            else:
                j = tied[ids]
            each[:, a + 1:] = suffix[lo:][j]
            each += xs[:, None]
            each %= m
            each.sort(axis=1)
            cand = each[np.lexsort(each.T[::-1])[0]].tolist()  # the tile's smallest arrangement
            if peak > best or cand < top:
                best, top = peak, cand
    witness = ModVec(m, top)
    seq = norm_sequence(witness, kind)  # admissible (no shift lowers it) and of norm best
    if not seq[0] == min(seq) == best:
        raise AssertionError("oracle witness failed its self-check")
    return OracleResult(best, witness, cosets)
