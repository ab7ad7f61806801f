import itertools
import random

import numpy as np
import pytest

from leewaring import (
    Extremum,
    ExtremumKind,
    ModVec,
    NormKind,
    canonical_shift,
    extremal_values,
    is_admissible,
    is_balanced,
    m_sequence,
    norm,
    norm_sequence,
    shift,
)
from leewaring.admissible import shift_norms
from vecgen import random_balanced, random_vec

ONE, LEE = NormKind.ONE, NormKind.LEE
MAX, MIN = ExtremumKind.MAX, ExtremumKind.MIN


def test_norm_sequence_examples():
    assert norm_sequence(ModVec(4, (0, 2)), LEE) == [2, 2, 2, 2]
    assert norm_sequence(ModVec(3, (0, 1, 2)), LEE) == [2, 2, 2]
    assert norm_sequence(ModVec(2, (0, 0)), LEE) == [0, 2]


def _shift_by_shift(v, kind):
    """Reference norm sequence: one shifted vector per shift."""
    return [norm(shift(v, x), kind) for x in range(v.modulus)]


def test_norm_sequence_matches_shift_by_shift_reference():
    rng = random.Random(6)
    for _ in range(2000):
        m = rng.randrange(1, 40)
        v = random_vec(rng, m, rng.randrange(0, 12))
        for kind in (ONE, LEE):
            ref = _shift_by_shift(v, kind)
            assert norm_sequence(v, kind) == ref, (v, kind)
            assert is_admissible(v, kind) == (ref[0] == min(ref))
            assert canonical_shift(v, kind)[0] == ref.index(min(ref))


def test_shift_norms_matches_the_direct_sum_for_any_weight_table():
    """Independent slow path: sum_c hist[c] * w[(c + x) % m] at every shift x,
    for random integer tables (any w[0]) and both histogram forms."""
    rng = random.Random(15)
    for m in range(1, 13):
        for w in [[rng.randint(-9, 9) for _ in range(m)] for _ in range(30)] + [[7] * m]:  # [7] * m has no bend
            hist = [rng.randrange(6) for _ in range(m)]
            want = [sum(hist[c] * w[(c + x) % m] for c in range(m)) for x in range(m)]
            got = list(shift_norms(hist, w))
            assert got == want and all(type(n) is int for n in got), (m, w, hist)
            rows = np.array([[rng.randrange(6) for _ in range(5)] for _ in range(m)])
            want = [[sum(int(rows[c, s]) * w[(c + x) % m] for c in range(m)) for s in range(5)] for x in range(m)]
            got = list(shift_norms(rows, w))
            assert all(n.shape == (5,) for n in got), m  # rows stay rows, also at m = 1
            assert np.array(got).tolist() == want, (m, w)


def test_is_admissible_rejects_a_kind_that_is_not_a_norm_kind():
    v = ModVec(5, (0, 4))
    assert not is_admissible(v, ONE) and is_admissible(v, LEE)  # "one" once ran as LEE
    with pytest.raises(TypeError, match="NormKind"):
        is_admissible(v, "one")


def test_is_admissible_examples():
    assert is_admissible(ModVec(3, (2, 1, 0)), ONE)
    assert not is_admissible(ModVec(3, (1, 1)), LEE)
    assert is_admissible(ModVec(7, (0,) * 4), ONE)
    assert is_admissible(ModVec(7, (0,) * 4), LEE)


def test_canonical_shift_examples():
    assert canonical_shift(ModVec(3, (1, 1)), LEE) == (2, ModVec(3, (0, 0)))
    assert canonical_shift(ModVec(4, (3, 3)), LEE) == (1, ModVec(4, (0, 0)))
    v = ModVec(4, (0, 1, 3))
    assert canonical_shift(v, LEE) == (0, v)  # already admissible
    assert canonical_shift(v, LEE)[1] is v  # and returned as it is, not rebuilt


def test_canonical_shift_returns_admissible():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randrange(1, 15)
        v = random_vec(rng, m, rng.randrange(1, 7))
        for kind in (ONE, LEE):
            x, w = canonical_shift(v, kind)
            assert w == shift(v, x)
            assert is_admissible(w, kind)


def test_extremal_values_examples():
    seq = norm_sequence(ModVec(4, (0, 1, 3)), LEE)
    assert seq == [2, 3, 4, 3]
    assert extremal_values(seq) == [
        Extremum(0, MIN, 1),
        Extremum(2, MAX, 1),
    ]
    assert extremal_values([5, 5, 5, 5]) == []
    seq = norm_sequence(ModVec(4, (0, 1)), LEE)
    assert seq == [1, 3, 3, 1]
    assert extremal_values(seq) == [
        Extremum(1, MAX, 2),
        Extremum(3, MIN, 2),  # plateau wraps through index 0
    ]


def test_extrema_alternate_and_are_index_sorted():
    rng = random.Random(8)
    for _ in range(300):
        m = rng.randrange(2, 16)
        seq = [rng.randrange(4) for _ in range(m)]
        ext = extremal_values(seq)
        idx = [e.index for e in ext]
        assert idx == sorted(idx)
        assert len(ext) % 2 == 0  # maxima and minima pair up cyclically
        for a, b in zip(ext, ext[1:] + ext[:1]):
            assert a.kind != b.kind
        for e in ext:
            assert 1 <= e.plateau <= m - 1


def test_is_balanced_examples():
    assert is_balanced(ModVec(4, (0, 2, 1)))
    assert is_balanced(ModVec(4, (0, 2, 0)))
    assert not is_balanced(ModVec(4, (1, 2, 1)))
    with pytest.raises(ValueError):
        is_balanced(ModVec(5, (0, 3, 1)))  # odd modulus
    with pytest.raises(ValueError):
        is_balanced(ModVec(4, (0, 2)))  # even dimension


def test_is_balanced_matches_the_chain_rule():
    """Independent slow path: the docstring's chain 0 = v1 <= v2 - m/2 <= v3 <= ... <= vr < m/2,
    compared pair by pair, on balanced vectors, nudged ones and random ones."""
    rng = random.Random(16)
    seen = set()
    for _ in range(2000):
        m = 2 * rng.randrange(1, 11)
        r = 2 * rng.randrange(0, 5) + 1
        v = random_balanced(rng, m, r)
        if rng.randrange(2):  # move one coordinate by one, which often breaks the chain
            i = rng.randrange(r)
            v = ModVec(m, v.coords[:i] + (v.coords[i] + rng.choice((-1, 1)),) + v.coords[i + 1:])
        if rng.randrange(4) == 0:
            v = random_vec(rng, m, r)
        half = m // 2
        chain = [c - half if i % 2 == 0 else c for i, c in enumerate(v.coords, start=1)]
        want = chain[0] == 0 and all(a <= b for a, b in zip(chain, chain[1:])) and chain[-1] < half
        assert is_balanced(v) == want, v
        seen.add(want)
    assert seen == {False, True}


def test_m_sequence_example():
    # direct norm evaluation: shifts 0, 1, 2, 2 of (0,2,1) mod 4
    assert m_sequence(ModVec(4, (0, 2, 1))) == [3, 4, 3, 3]
    with pytest.raises(ValueError):
        m_sequence(ModVec(4, (1, 2, 1)))


def test_m_sequence_matches_shift_by_shift_reference():
    rng = random.Random(5)
    for _ in range(300):
        m = 2 * rng.randrange(1, 11)
        r = 2 * rng.randrange(0, 5) + 1
        v = random_balanced(rng, m, r)
        half, c = m // 2, v.coords
        shifts = [0] + [half - c[r - i] if i % 2 == 1 else m - c[r - i] for i in range(1, r + 1)]
        assert m_sequence(v) == [norm(shift(v, x), LEE) for x in shifts]


def test_m_sequence_diffs_match_coordinate_gaps():
    rng = random.Random(9)
    for _ in range(300):
        m = 2 * rng.randrange(1, 11)
        r = 2 * rng.randrange(0, 5) + 1
        v = random_balanced(rng, m, r)
        seq = m_sequence(v)
        half = m // 2
        c = v.coords
        want = [half - c[r - 1]]
        for i in range(1, r):
            a, b = c[r - i - 1], c[r - i]
            want.append((a - half) - b if i % 2 == 1 else (b - half) - a)
        got = [y - x for x, y in zip(seq, seq[1:])]
        assert got == want, (v, seq)
        assert sum(abs(d) for d in got) == half


def test_balanced_norm_sequences_move_by_one():
    rng = random.Random(10)
    for _ in range(200):
        m = 2 * rng.randrange(1, 11)
        r = 2 * rng.randrange(0, 5) + 1
        v = random_balanced(rng, m, r)
        seq = norm_sequence(v, LEE)
        for x in range(m):
            assert abs(seq[(x + 1) % m] - seq[x]) == 1


def test_balanced_band_criterion_matches_admissibility():
    rng = random.Random(11)
    for _ in range(300):
        m = 2 * rng.randrange(1, 11)
        r = 2 * rng.randrange(0, 5) + 1
        v = random_balanced(rng, m, r)
        seq = m_sequence(v)
        n0 = norm(v, LEE)
        top = m * r // 2 - n0
        assert seq[-1] == top
        assert is_admissible(v, LEE) == all(n0 <= x <= top for x in seq)


def test_admissible_norms_obey_strip_and_case_bounds():
    # exhaustive over small spaces: every admissible vector satisfies both
    # the strip bound ||v + xe|| <= mr/2 - ||v|| and the parity-case bounds
    for m in range(1, 6):
        for r in range(1, 5):
            for coords in itertools.product(range(m), repeat=r):
                v = ModVec(m, coords)
                if not is_admissible(v, LEE):
                    continue
                w = norm(v, LEE)
                for x in range(m):
                    assert 2 * (norm(shift(v, x), LEE) + w) <= m * r
                if m % 2 == 1:
                    assert 4 * m * w <= (m * m - 1) * r
                elif r % 2 == 0:
                    assert 4 * w <= m * r
                else:
                    assert 4 * w <= m * r - 2
                if r % 2 == 1 and r <= m:
                    assert 4 * r * w <= m * (r * r - 1)


def test_consecutive_sequence_entries_distinct_when_r_odd():
    rng = random.Random(12)
    for _ in range(300):
        r = 2 * rng.randrange(0, 5) + 1
        m = rng.randrange(1, 15)
        v = random_vec(rng, m, r)
        seq = norm_sequence(v, LEE)
        equal = sum(1 for x in range(m) if seq[(x + 1) % m] == seq[x])
        if m % 2 == 0:
            assert equal == 0
        else:
            assert equal <= len(set(v.coords))


def test_extrema_count_bounded_by_distinct_components():
    rng = random.Random(13)
    for _ in range(300):
        m = rng.randrange(1, 15)
        r = rng.randrange(1, 7)
        v = random_vec(rng, m, r)
        ext = extremal_values(norm_sequence(v, LEE))
        assert len(ext) <= 2 * len(set(v.coords))
