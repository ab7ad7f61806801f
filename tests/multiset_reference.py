"""A plain-Python oracle, kept as an independent slow path for the tiled one.

Every state {0} + S (S a multiset of r-1 residues, from itertools), its
norm at every shift from norm_sequence, and the witness rule: the
lexicographically smallest sorted((s + x) mod m) over the maximal states s
and their minimising shifts x.  No numpy, no tiles, no prefix/suffix split.
"""

from itertools import combinations_with_replacement

from leewaring import ModVec, NormKind, norm_sequence


def multiset_max_admissible(m: int, r: int, kind: NormKind) -> tuple[int, tuple[int, ...]]:
    """(max admissible norm, witness coordinates)."""
    best, witness = -1, None
    for rest in combinations_with_replacement(range(m), r - 1):
        state = (0, *rest)
        seq = norm_sequence(ModVec(m, state), kind)
        low = min(seq)
        if low < best:
            continue
        cand = min(tuple(sorted((c + x) % m for c in state)) for x, v in enumerate(seq) if v == low)
        if low > best or cand < witness:
            best, witness = low, cand
    return best, witness
