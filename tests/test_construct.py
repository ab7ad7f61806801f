import random
from collections import Counter

import pytest

from vecgen import random_balanced
from leewaring import (
    MDiffPlan,
    ModVec,
    NormKind,
    brute_max_admissible,
    construct_even_dim,
    construct_max_lee,
    construct_max_norm1,
    construct_odd_modulus,
    full_cycle,
    g_bound,
    h_bound,
    is_admissible,
    m_sequence,
    norm,
    norm_sequence,
    plan_even_modulus,
    plan_even_vector,
    vector_from_m_diffs,
)

ONE, LEE = NormKind.ONE, NormKind.LEE


def test_construct_max_norm1_examples():
    v = construct_max_norm1(3, 3)
    assert Counter(v.coords) == Counter({2: 1, 1: 1, 0: 1})
    assert norm(v, ONE) == 3 == g_bound(3, 3)
    v = construct_max_norm1(4, 2)
    assert Counter(v.coords) == Counter({2: 1, 0: 1})
    assert norm(v, ONE) == 2 == g_bound(4, 2)
    assert construct_max_norm1(1, 4).coords == (0, 0, 0, 0)


def test_construct_max_norm1_emits_descending_coordinates():
    v = construct_max_norm1(6, 9)
    assert list(v.coords) == sorted(v.coords, reverse=True)


def test_construct_even_dim_examples():
    v = construct_even_dim(4, 4)
    assert v.coords == (0, 2, 0, 2) and norm(v, LEE) == 4
    v = construct_even_dim(5, 2)
    assert v.coords == (0, 2) and norm(v, LEE) == 2 == h_bound(5, 2)
    v = construct_even_dim(3, 4)
    assert v.coords == (0, 1, 2, 0)
    assert norm(v, LEE) == 2 == h_bound(3, 4)
    assert is_admissible(v, LEE)
    with pytest.raises(ValueError):
        construct_even_dim(4, 3)


def test_vector_from_m_diffs_example_and_roundtrip():
    v = vector_from_m_diffs(MDiffPlan(6, (1, -1, 1)), 3)
    assert norm(v, LEE) == 4 == h_bound(6, 3)
    assert is_admissible(v, LEE)
    seq = m_sequence(v)
    assert tuple(b - a for a, b in zip(seq, seq[1:])) == (1, -1, 1)


def test_vector_from_m_diffs_rejects_bad_plans():
    with pytest.raises(ValueError):
        vector_from_m_diffs(MDiffPlan(6, (1, -1, 2)), 3)  # sizes sum to 4 != 3
    with pytest.raises(ValueError):
        vector_from_m_diffs(MDiffPlan(6, (0, -2, 1)), 3)  # zero first step
    with pytest.raises(ValueError):
        vector_from_m_diffs(MDiffPlan(6, (1, -1, 1)), 5)  # wrong dimension
    with pytest.raises(ValueError):
        vector_from_m_diffs(MDiffPlan(6, (1, 1, -1)), 3)  # running sums leave the band
    with pytest.raises(ValueError, match="inconsistent plan"):
        # passes the band check but its signs violate the balanced chain
        vector_from_m_diffs(MDiffPlan(8, (2, 1, 1)), 3)


def test_roundtrip_from_admissible_balanced_vectors():
    # the step diffs of an admissible balanced vector form a valid plan,
    # and rebuilding from them returns the same vector
    rng = random.Random(17)
    hits = 0
    while hits < 100:
        m = 2 * rng.randrange(1, 11)
        r = 2 * rng.randrange(0, 5) + 1
        v = random_balanced(rng, m, r)
        if not is_admissible(v, LEE):
            continue
        seq = m_sequence(v)
        plan = MDiffPlan(m, tuple(b - a for a, b in zip(seq, seq[1:])))
        assert vector_from_m_diffs(plan, r) == v
        hits += 1


def test_plan_even_modulus_examples():
    assert plan_even_modulus(6, 3).diffs == (1, -1, 1)
    assert plan_even_modulus(8, 3).diffs == (2, -1, 1)
    assert plan_even_modulus(4, 5).diffs == (1, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        plan_even_modulus(5, 3)
    with pytest.raises(ValueError):
        plan_even_modulus(4, 4)
    with pytest.raises(ValueError):
        plan_even_modulus(4, 11)


def test_plan_even_vector_examples():
    plan = plan_even_vector(6, 3)
    assert plan.diffs == (1, -1, 1)
    v = vector_from_m_diffs(plan, 3)
    assert v.coords == (0, 4, 2)
    assert all(c % 2 == 0 for c in v.coords)
    assert norm(v, LEE) == 4 == 2 * h_bound(3, 3)

    plan = plan_even_vector(10, 5)
    assert plan.diffs == (1, -1, 1, -1, 1)
    v = vector_from_m_diffs(plan, 5)
    assert all(c % 2 == 0 for c in v.coords)
    assert norm(v, LEE) == 2 * h_bound(5, 5) == 12

    assert plan_even_vector(10, 3).diffs == (1, -1, 3)
    with pytest.raises(ValueError):
        plan_even_vector(8, 3)  # m = 0 mod 4
    with pytest.raises(ValueError):
        plan_even_vector(10, 7)  # r > m/2


@pytest.mark.parametrize(
    "m,r",
    [(14, 3), (22, 5), (18, 5), (10, 3), (6, 3), (26, 9), (34, 7), (30, 13)],
)
def test_plan_even_vector_rebuilds_even_admissible_vectors(m, r):
    plan = plan_even_vector(m, r)
    assert all(abs(d) % 2 == 1 for d in plan.diffs)
    v = vector_from_m_diffs(plan, r)
    assert all(c % 2 == 0 for c in v.coords)
    assert is_admissible(v, LEE)
    assert norm(v, LEE) == 2 * h_bound(m // 2, r)


def test_plans_satisfy_their_invariants():
    for m in range(2, 40, 2):
        for r in range(1, min(2 * m, 23), 2):
            plan = plan_even_modulus(m, r)
            plan.validate()
            assert sum(plan.diffs) == m * r // 2 - 2 * h_bound(m, r)
    for m in range(2, 80, 4):
        for r in range(1, m // 2 + 1, 2):
            plan_even_vector(m, r).validate()


def test_construct_odd_modulus_examples():
    assert norm(construct_odd_modulus(3, 3), LEE) == 2 == h_bound(3, 3)
    assert norm(construct_odd_modulus(5, 3), LEE) == 3 == h_bound(5, 3)
    assert norm(construct_odd_modulus(7, 5), LEE) == 8 == h_bound(7, 5)
    with pytest.raises(ValueError):
        construct_odd_modulus(4, 3)
    with pytest.raises(ValueError):
        construct_odd_modulus(5, 7)


def test_odd_modulus_intermediate_vector_is_even_and_admissible():
    for m, r in [(3, 3), (5, 3), (7, 5), (9, 7), (13, 11)]:
        doubled = vector_from_m_diffs(plan_even_vector(2 * m, r), r)
        assert doubled.modulus == 2 * m
        assert all(c % 2 == 0 for c in doubled.coords)
        assert is_admissible(doubled, LEE)
        assert norm(doubled, LEE) == 2 * h_bound(m, r)


def test_full_cycle_examples():
    v = full_cycle(3)
    assert v.coords == (0, 1, 2) and norm(v, LEE) == 2
    assert norm(full_cycle(4), LEE) == 4
    assert full_cycle(1).coords == (0,)
    for m in range(1, 12):
        assert is_admissible(full_cycle(m), LEE)
        assert sorted(norm_sequence(full_cycle(m), LEE)) == [norm(full_cycle(m), LEE)] * m


def test_construct_max_lee_examples():
    v = construct_max_lee(3, 7)
    assert norm(v, LEE) == 4 == h_bound(3, 7) and is_admissible(v, LEE)
    assert construct_max_lee(2, 2).coords == (0, 1)
    v = construct_max_lee(5, 11)
    assert norm(v, LEE) == 13 == h_bound(5, 11) and is_admissible(v, LEE)
    for r in (1, 2, 3, 2000):  # m = 1 goes through the general dispatch
        v = construct_max_lee(1, r)
        assert v == ModVec(1, [0] * r) and v.modulus == 1 and len(v) == r


def test_construct_dispatch_small_grid():
    for m in range(1, 22):
        for r in range(1, 22):
            v = construct_max_lee(m, r)
            assert len(v) == r and v.modulus == m
            assert norm(v, LEE) == h_bound(m, r), (m, r)
            assert is_admissible(v, LEE), (m, r)
            w = construct_max_norm1(m, r)
            assert norm(w, ONE) == g_bound(m, r), (m, r)
            assert is_admissible(w, ONE), (m, r)


def _exact(v):
    """Whether every coordinate is a Python int in [0, m) and v equals the checked ModVec of its coords."""
    m = v.modulus
    return type(m) is int and all(type(c) is int and 0 <= c < m for c in v.coords) and v == ModVec(m, v.coords)


def test_built_vectors_hold_exact_coordinates_on_the_criterion_1_grid():
    # the builders, halve and concat take their coordinates unchecked, so each
    # branch's output must already be what the checked ModVec gate makes of it
    for m in range(1, 9):
        for r in range(1, 8):
            for v in (construct_max_norm1(m, r), construct_max_lee(m, r)):
                assert _exact(v) and len(v) == r, (m, r, v)
            if m ** (r - 1) <= 5000:
                for kind in (ONE, LEE):
                    assert _exact(brute_max_admissible(m, r, kind).witness), (m, r, kind)
    for m in range(1, 9):  # the builders the dispatch reaches, called directly
        assert _exact(full_cycle(m))
        for r in range(2, 9, 2):
            assert _exact(construct_even_dim(m, r)), (m, r)
        for r in range(1, m + 1, 2):
            if m % 2:
                assert _exact(construct_odd_modulus(m, r)), (m, r)
            else:
                assert _exact(vector_from_m_diffs(plan_even_modulus(m, r), r)), (m, r)
    for m, r in ((2, 8000), (3, 50), (4, 11), (7, 11), (8, 23)):  # full cycles peeled off
        assert _exact(construct_max_lee(m, r)) and _exact(construct_max_norm1(m, r)), (m, r)


def test_constructions_are_deterministic():
    rng = random.Random(14)
    for _ in range(50):
        m = rng.randrange(1, 30)
        r = rng.randrange(1, 30)
        assert construct_max_lee(m, r) == construct_max_lee(m, r)
        assert construct_max_norm1(m, r) == construct_max_norm1(m, r)
