import copy
import pickle
import random

import pytest

from leewaring import (
    ModVec,
    NormKind,
    abs_least_residue,
    concat,
    halve,
    norm,
    norm_sequence,
    shift,
)
from leewaring.modring import weights
from vecgen import random_vec

ONE, LEE = NormKind.ONE, NormKind.LEE


@pytest.mark.parametrize("x,m,want", [(3, 5, 2), (0, 7, 0), (2, 4, 2)])
def test_abs_least_residue(x, m, want):
    assert abs_least_residue(x, m) == want


def test_least_residue_rejects_bad_modulus():
    with pytest.raises(ValueError):
        abs_least_residue(1, 0)


def test_norm_examples():
    v = ModVec(5, (3, 4))
    assert norm(v, ONE) == 7
    assert norm(v, LEE) == 3
    zero = ModVec(9, (0, 0, 0))
    assert norm(zero, ONE) == 0 and norm(zero, LEE) == 0
    assert norm(ModVec(7, ()), ONE) == 0  # empty vector


def test_norm_kind_must_be_a_norm_kind():
    # the string "one" once fell through to the Lee branch: weights(5, "one") was [0, 1, 2, 2, 1]
    assert weights(5, ONE) == [0, 1, 2, 3, 4]
    v = ModVec(5, (3, 4))
    for kind in ("one", "lee", None, 1):
        with pytest.raises(TypeError, match="NormKind"):
            weights(5, kind)
        with pytest.raises(TypeError, match="NormKind"):
            norm(v, kind)


def test_modvec_canonicalises_coordinates():
    assert ModVec(4, (-1, 6, 4)).coords == (3, 2, 0)
    with pytest.raises(ValueError):
        ModVec(0, (1,))


def test_modvec_rejects_non_integers():
    with pytest.raises(TypeError):
        ModVec(5, [1.5])
    with pytest.raises(TypeError):
        ModVec(5.0, [1])
    v = ModVec(5, [True, 7])  # anything operator.index accepts is an integer
    assert v.coords == (1, 2) and all(type(c) is int for c in v.coords)


def test_modvec_modulus_one_is_all_zero():
    assert ModVec(1, (5, 7, 9)).coords == (0, 0, 0)
    assert norm(ModVec(1, (5,)), LEE) == 0


def test_shift_examples():
    assert shift(ModVec(4, (0, 2)), 2).coords == (2, 0)
    assert shift(ModVec(3, (0, 1, 2)), 1).coords == (1, 2, 0)
    assert shift(ModVec(5, (3, 3)), 0).coords == (3, 3)


def test_concat_examples():
    assert concat(ModVec(4, (0, 2)), ModVec(4, (1, 3))).coords == (0, 2, 1, 3)
    assert concat(ModVec(5, (3,)), ModVec(5, ())).coords == (3,)
    v = ModVec(4, (0, 2))
    assert norm(concat(v, v), LEE) == 4
    with pytest.raises(ValueError):
        concat(ModVec(4, (0,)), ModVec(5, (0,)))


def test_halve_examples():
    assert halve(ModVec(6, (0, 2, 4))) == ModVec(3, (0, 1, 2))
    with pytest.raises(ValueError, match="not an even vector"):
        halve(ModVec(6, (0, 1)))
    with pytest.raises(ValueError):
        halve(ModVec(5, (0, 2)))
    assert halve(ModVec(8, (6, 2))) == ModVec(4, (3, 1))


def test_shift_norm1_congruence():
    rng = random.Random(1)
    for _ in range(200):
        m = rng.randrange(1, 16)
        r = rng.randrange(0, 8)
        v = random_vec(rng, m, r)
        x = rng.randrange(m)
        assert norm(shift(v, x), ONE) % m == (norm(v, ONE) + r * x) % m


def test_shift_lee_parity_congruence_even_modulus():
    rng = random.Random(2)
    for _ in range(200):
        m = 2 * rng.randrange(1, 9)
        r = rng.randrange(0, 8)
        v = random_vec(rng, m, r)
        x = rng.randrange(m)
        assert (norm(shift(v, x), LEE) - norm(v, LEE) - r * x) % 2 == 0


@pytest.mark.parametrize("m", range(1, 25))
def test_weight_sum_over_ring(m):
    total = sum(abs_least_residue(x, m) for x in range(m))
    assert total == (m * m // 4 if m % 2 == 0 else (m * m - 1) // 4)


def test_weight_tables_sum_to_the_norms():
    rng = random.Random(15)
    assert weights(5, ONE) == [0, 1, 2, 3, 4] and weights(5, LEE) == [0, 1, 2, 2, 1]
    assert weights(1, ONE) == weights(1, LEE) == [0]
    for m in range(1, 301):  # the tables built from ranges against their definitions
        assert weights(m, ONE) == list(range(m))
        assert weights(m, LEE) == [min(c, m - c) for c in range(m)]
    for _ in range(300):
        m = rng.randrange(1, 30)
        v = random_vec(rng, m, rng.randrange(0, 8))
        for kind in (ONE, LEE):
            assert sum(weights(m, kind)[c] for c in v.coords) == norm(v, kind)


def test_mirror_identity_even_modulus():
    rng = random.Random(3)
    for _ in range(200):
        m = 2 * rng.randrange(1, 9)
        x = rng.randrange(m)
        assert abs_least_residue(x, m) + abs_least_residue(x + m // 2, m) == m // 2
        r = rng.randrange(0, 8)
        v = random_vec(rng, m, r)
        assert norm(v, LEE) + norm(shift(v, m // 2), LEE) == m * r // 2


def test_mirror_identity_odd_modulus():
    rng = random.Random(4)
    for _ in range(200):
        m = 2 * rng.randrange(0, 9) + 1
        r = rng.randrange(0, 8)
        v = random_vec(rng, m, r)
        zeros = sum(1 for c in v.coords if c == 0)
        lhs = (
            2 * norm(v, LEE)
            + norm(shift(v, (m - 1) // 2), LEE)
            + norm(shift(v, (m + 1) // 2), LEE)
        )
        assert lhs == m * r - zeros


def test_concat_additivity_and_scaling():
    rng = random.Random(5)
    for _ in range(200):
        m = rng.randrange(1, 14)
        u = random_vec(rng, m, rng.randrange(0, 6))
        v = random_vec(rng, m, rng.randrange(0, 6))
        for kind in (ONE, LEE):
            assert norm(concat(u, v), kind) == norm(u, kind) + norm(v, kind)
        doubled = ModVec(2 * m, [2 * c for c in u.coords])
        assert norm(doubled, LEE) == 2 * norm(u, LEE)
        assert halve(doubled) == u


def test_a_kept_sequence_is_invisible_to_eq_hash_repr_and_pickle():
    # a vector keeps the norm sequences it has computed; the value alone decides
    # equality, the hash, the repr and the pickled bytes
    for m, coords in ((7, (0, 3, 5, 5)), (4, (0, 2)), (1, (0, 0)), (5, ())):
        plain, kept = ModVec(m, coords), ModVec(m, coords)
        for kind in (ONE, LEE):
            norm_sequence(kept, kind)
        assert kept == plain and hash(kept) == hash(plain) and repr(kept) == repr(plain)
        assert pickle.dumps(kept) == pickle.dumps(plain)
        for c in (pickle.loads(pickle.dumps(kept)), copy.deepcopy(kept), copy.copy(kept)):
            assert c == plain and hash(c) == hash(plain) and repr(c) == repr(plain)
            assert norm_sequence(c, LEE) == norm_sequence(plain, LEE)
