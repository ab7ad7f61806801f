import copy
import dataclasses
import gc
import pickle
import random
import weakref
from math import gcd

import numpy as np
import pytest

from leewaring import (
    BudgetError,
    FqField,
    ModVec,
    NormKind,
    cyclotomic_field,
    find_irreducible,
    g_bound,
    h_bound,
    is_primitive_root,
    kth_power_set,
    norm,
    per_element_length,
    shift,
    to_coset_vector,
    verify_remarks,
    verify_theorem1,
    verify_theorem2,
    waring_number,
)
from leewaring import ffwaring
from leewaring.ffwaring import _is_prime, _sumset_levels


def _reference_levels(f, k_red):
    """Independent slow path: the sumset BFS on coefficient tuples in a dict."""
    powers = [a.coeffs for a in kth_power_set(f, k_red)]
    p, n, q = f.p, f.n, f.q
    zero = (0,) * n
    levels = {zero: 0}
    frontier = [zero]
    depth = 0
    while frontier and len(levels) < q:
        depth += 1
        fresh = []
        for a in frontier:
            for s in powers:
                t = tuple([(x + y) % p for x, y in zip(a, s)])
                if t not in levels:
                    levels[t] = depth
                    fresh.append(t)
            if len(levels) == q:
                break
        frontier = fresh
    return levels, (depth if len(levels) == q else None)


# Every extension field with q <= 2000 and the prime fields up to 500.  The
# tuple reference costs about q * (number of powers) per divisor, so the
# prime fields between 500 and 2000 would add about a minute and no new
# code path.
BFS_GRID = [
    (p, n)
    for p in range(2, 2000)
    if _is_prime(p)
    for n in range(1, 12)
    if p**n <= 2000 and (n > 1 or p <= 500)
]


def test_is_primitive_root_examples():
    assert is_primitive_root(3, 5)
    assert not is_primitive_root(7, 3)
    assert is_primitive_root(2, 3)
    with pytest.raises(ValueError):
        is_primitive_root(4, 5)
    with pytest.raises(ValueError):
        is_primitive_root(5, 9)
    with pytest.raises(ValueError):
        is_primitive_root(5, 5)


def test_cyclotomic_field_examples():
    f = cyclotomic_field(2, 3)
    assert f.q == 4 and f.modulus == (1, 1, 1)
    f = cyclotomic_field(3, 5)
    assert f.q == 81 and f.modulus == (1, 1, 1, 1, 1)
    with pytest.raises(ValueError, match="primitive root"):
        cyclotomic_field(7, 3)


def test_find_irreducible_examples():
    assert find_irreducible(3, 2) == (1, 0, 1)  # x^2 + 1
    assert find_irreducible(2, 1) == (0, 1)     # x
    assert find_irreducible(5, 2) == (2, 0, 1)  # x^2 + 2
    with pytest.raises(ValueError):
        find_irreducible(6, 2)


def test_find_irreducible_refuses_a_huge_degree_before_building_its_size():
    with pytest.raises(BudgetError) as info:
        find_irreducible(3, 3 * 10**6)
    assert info.value.required == 1 << 3_000_000
    assert info.value.budget == 2 * 10**6


@pytest.mark.parametrize(
    "call",
    [
        lambda p: find_irreducible(p, 1),
        lambda p: verify_remarks(p),
        lambda p: verify_theorem1(p, 3),
        lambda p: verify_theorem2(p, 3),
    ],
    ids=["find_irreducible", "verify_remarks", "verify_theorem1", "verify_theorem2"],
)
def test_a_prime_over_the_budget_is_refused_before_its_primality_test(call, monkeypatch):
    def refuse(n):
        raise AssertionError(f"primality test of {n} over budget")

    monkeypatch.setattr(ffwaring, "_is_prime", refuse)
    with pytest.raises(BudgetError) as info:
        call(2**61 - 1)
    assert (info.value.required, info.value.budget) == (2**61 - 1, 2 * 10**6)


def test_field_constructor_rejects_reducible_modulus():
    with pytest.raises(ValueError, match="reducible"):
        FqField(2, (0, 0, 1))  # x^2 over F_2
    with pytest.raises(ValueError):
        FqField(4, (1, 1))  # p not prime


def test_field_arithmetic_basics():
    f = cyclotomic_field(2, 5)  # F_16 with xi^4 = 1 + xi + xi^2 + xi^3
    xi = f.gen()
    assert (xi**5).coeffs == f.one().coeffs  # fifth root of unity
    assert xi**4 == f.element((1, 1, 1, 1))
    a = f.element((1, 0, 1))
    assert a + a == f.zero()
    assert f.rank(f.from_rank(11)) == 11
    assert len(list(f.elements())) == 16


def test_element_repr_shows_its_coefficients():
    assert repr(cyclotomic_field(3, 5).gen()) == (
        "FqElem(field=FqField(p=3, modulus=(1, 1, 1, 1, 1), cyclotomic_order=5), coeffs=(0, 1, 0, 0))"
    )


def test_elements_are_frozen_and_survive_pickle_and_deepcopy():
    f = cyclotomic_field(3, 5)
    a = f.element((2, 0, 1, 1))
    assert waring_number(f, 16) == 4  # the copies carry a level table too
    for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert b == a and hash(b) == hash(a) and b.coeffs == (2, 0, 1, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.rank = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.field = f
    assert a.rank == 2 + 9 + 27


def test_every_route_to_an_element_gives_the_same_element():
    f, g = cyclotomic_field(3, 5), cyclotomic_field(3, 5)
    xi = f.gen()
    coeffs = (2, 1, 0, 2)  # 2 + xi + 2 xi^3
    t = 2 + 3 + 2 * 27
    routes = [
        f.element(coeffs),
        f.element((5, 4, 3, -1)),  # digits taken mod p
        f.from_rank(t),
        list(f.elements())[t],
        f.one() + f.one() + xi + xi**3 + xi**3,
        (f.one() + f.one() + xi + xi**3 + xi**3) * xi * xi**4,  # xi^5 = 1
        -(f.zero() - xi**6 * f.element(coeffs) * xi**4),  # xi^10 = 1, -(-a) = a
        g.element(coeffs),
        g.from_rank(t),
        list(g.elements())[t],
    ]
    for a in routes:
        assert a == routes[0] and hash(a) == hash(routes[0])
        assert a.coeffs == coeffs and a.rank == t == f.rank(a) == g.rank(a)
    assert f.element(coeffs) != FqField(3, (1, 1, 1, 1, 1)).element(coeffs)  # not flagged cyclotomic


def test_an_element_is_false_only_at_rank_zero():
    f = cyclotomic_field(2, 5)
    assert [t for t in range(f.q) if not f.from_rank(t)] == [0]
    assert not f.zero() and not (f.gen() - f.gen()) and f.one()


def test_kth_power_set_examples():
    f4 = cyclotomic_field(2, 3)
    assert {a.coeffs for a in kth_power_set(f4, 3)} == {(0, 0), (1, 0)}
    f5 = FqField(5, find_irreducible(5, 1))
    assert {f5.rank(a) for a in kth_power_set(f5, 2)} == {0, 1, 4}
    assert len(kth_power_set(f5, 1)) == 5


def test_kth_power_set_matches_direct_powers():
    rng = random.Random(15)
    for f in (FqField(7, find_irreducible(7, 1)), cyclotomic_field(3, 5), FqField(3, (1, 0, 1))):
        for _ in range(5):
            k = rng.randrange(1, 50)
            direct = {a**k for a in f.elements()}
            assert kth_power_set(f, k) == direct
            assert len(direct) == 1 + (f.q - 1) // gcd(k, f.q - 1)
    # every subgroup order d | q - 1, from d = q - 1 (48 = 2^4 * 3, 63 = 3^2 * 7) down to d = 1
    for f in (FqField(7, find_irreducible(7, 2)), FqField(2, find_irreducible(2, 6))):
        for k in range(1, f.q):
            if (f.q - 1) % k == 0:
                direct = {a**k for a in f.elements()}
                assert kth_power_set(f, k) == direct
                assert len(direct) == 1 + (f.q - 1) // k


def test_waring_number_examples():
    f4 = cyclotomic_field(2, 3)
    assert waring_number(f4, 3) is None  # cubes only span the prime subfield
    f81 = cyclotomic_field(3, 5)
    assert waring_number(f81, 16) == 4
    for p in (2, 3, 5, 7, 11, 13):
        fp = FqField(p, find_irreducible(p, 1))
        assert waring_number(fp, max(p - 1, 1)) == p - 1


def test_waring_number_is_gcd_invariant():
    rng = random.Random(16)
    for f in (cyclotomic_field(2, 5), cyclotomic_field(3, 5), FqField(11, find_irreducible(11, 1))):
        for _ in range(8):
            k = rng.randrange(1, 200)
            assert waring_number(f, k) == waring_number(f, gcd(k, f.q - 1))


def test_per_element_length_examples():
    f5 = FqField(5, find_irreducible(5, 1))
    assert per_element_length(f5, 2, f5.element((3,))) == 2  # 3 = 4 + 4
    assert per_element_length(f5, 2, f5.zero()) == 0
    f81 = cyclotomic_field(3, 5)
    assert per_element_length(f81, 16, f81.gen()) == 1
    f4 = cyclotomic_field(2, 3)
    with pytest.raises(ValueError):
        per_element_length(f4, 3, f4.one())


def test_per_element_length_rejects_foreign_elements():
    f81 = cyclotomic_field(3, 5)
    other81 = FqField(3, find_irreducible(3, 4))  # same q, another modulus
    with pytest.raises(ValueError, match="different field"):
        per_element_length(f81, 16, other81.gen())
    f625 = FqField(5, find_irreducible(5, 4))
    with pytest.raises(ValueError, match="different field"):
        per_element_length(f81, 16, f625.gen())
    # an equal field built separately is the same field
    assert per_element_length(f81, 16, cyclotomic_field(3, 5).gen()) == 1


@pytest.mark.parametrize(
    "field",
    [
        lambda: FqField(2, find_irreducible(2, 1)),
        lambda: FqField(7, find_irreducible(7, 1)),
        lambda: FqField(2, find_irreducible(2, 6)),
        lambda: FqField(7, find_irreducible(7, 2)),
        lambda: cyclotomic_field(3, 5),
        lambda: cyclotomic_field(13, 5),
    ],
    ids=["F_2", "F_7", "F_2^6", "F_7^2", "F_3^4", "F_13^4"],
)
def test_elements_run_in_rank_order(field):
    f = field()
    p, n = f.p, f.n
    assert f.q == p**n
    elements = list(f.elements())
    assert elements == [f.from_rank(t) for t in range(f.q)]
    sample = range(f.q) if f.q <= 2401 else random.Random(17).sample(range(f.q), 400)
    for t in sample:
        assert elements[t].coeffs == tuple(t // p**i % p for i in range(n))
        assert f.rank(f.from_rank(t)) == t
    with pytest.raises(ValueError, match="outside"):
        f.from_rank(f.q)


def test_separately_built_fields_are_equal():
    f, g = cyclotomic_field(3, 5), cyclotomic_field(3, 5)
    assert waring_number(f, 16) == 4  # f holds a level table, g none
    assert f is not g and f == g and hash(f) == hash(g) and repr(f) == repr(g)
    assert repr(f) == "FqField(p=3, modulus=(1, 1, 1, 1, 1), cyclotomic_order=5)"
    assert f != FqField(3, (1, 1, 1, 1, 1))  # the same modulus, not flagged cyclotomic


def test_level_tables_live_with_their_field():
    # x^3 + 2x + 2: no other test builds this field, so a cache keyed by
    # equal fields would have to hold this very object
    f = FqField(3, (2, 2, 0, 1))
    assert waring_number(f, 2) == 2
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("p,n", BFS_GRID)
def test_rank_bfs_matches_tuple_bfs(p, n):
    f = FqField(p, find_irreducible(p, n))
    for k_red in range(1, f.q):
        if (f.q - 1) % k_red:
            continue
        ref, ref_g = _reference_levels(f, k_red)
        want = np.full(f.q, -1)
        for coeffs, level in ref.items():
            want[sum(c * p**i for i, c in enumerate(coeffs))] = level
        levels, g = _sumset_levels(f, k_red)
        assert g == ref_g == waring_number(f, k_red), (p, n, k_red)
        assert np.array_equal(levels, want), (p, n, k_red)


def test_to_coset_vector_examples():
    f4 = cyclotomic_field(2, 3)
    assert to_coset_vector(f4.zero()) == ModVec(2, (0, 0, 0))
    assert to_coset_vector(f4.gen()) == ModVec(2, (0, 1, 0))
    f16 = cyclotomic_field(2, 5)
    xi = f16.gen()
    assert to_coset_vector(xi + xi**3) == ModVec(2, (0, 1, 0, 1, 0))
    plain = FqField(2, (1, 1, 1))  # same modulus, not flagged cyclotomic
    with pytest.raises(ValueError):
        to_coset_vector(plain.one())


@pytest.mark.parametrize("p,r,want", [(2, 3, 1), (3, 5, 4), (5, 3, 4)])
def test_verify_theorem1_examples(p, r, want):
    rep = verify_theorem1(p, r)
    assert rep.computed_g == want == rep.formula_g
    assert rep.match


@pytest.mark.parametrize("p,r,want", [(3, 5, 3), (5, 3, 3)])
def test_verify_theorem2_examples(p, r, want):
    rep = verify_theorem2(p, r)
    assert rep.computed_g == want == rep.formula_g
    assert rep.match


@pytest.mark.parametrize(
    "thm,p,r,want",
    [
        (1, 2, 19, 9),
        (1, 13, 5, 24),
        (2, 13, 5, 15),
        (1, 17, 5, 32),
        (2, 17, 5, 20),
        (1, 23, 5, 44),
        (2, 23, 5, 27),
    ],
)
def test_verify_theorems_at_larger_fields(thm, p, r, want):
    assert is_primitive_root(p, r)
    rep = (verify_theorem1 if thm == 1 else verify_theorem2)(p, r)
    assert rep.computed_g == want == rep.formula_g
    assert rep.match


def test_verify_theorem2_rejects_p_two():
    with pytest.raises(ValueError):
        verify_theorem2(2, 5)


def test_theorem_formulas_agree_with_norm_bounds():
    for p, r in [(2, 3), (2, 5), (3, 5), (5, 3), (3, 7)]:
        assert verify_theorem1(p, r).formula_g == g_bound(p, r)
    for p, r in [(3, 5), (5, 3), (3, 7)]:
        assert verify_theorem2(p, r).formula_g == h_bound(p, r)


def test_verify_remarks_examples():
    by_label = {rep.label: rep for rep in verify_remarks(5)}
    assert by_label["g(p-1, p)"].computed_g == 4
    assert by_label["g((p-1)/2, p)"].computed_g == 2
    assert all(rep.match for rep in verify_remarks(5))

    # p = 3: the half exponent is k = 1, so every element is a first power
    reps = verify_remarks(3)
    by_label = {rep.label: rep for rep in reps}
    assert by_label["g((p-1)/2, p)"].k == 1
    assert by_label["g((p-1)/2, p)"].computed_g == 1
    assert by_label["g((p^2-1)/4, p^2)"].computed_g == 2
    assert all(rep.match for rep in reps)

    reps = verify_remarks(7)
    assert [rep.computed_g for rep in reps] == [6, 3, 6]
    assert all(rep.match for rep in reps)

    assert [rep.label for rep in verify_remarks(2)] == ["g(p-1, p)"]


def test_report_fields_round_trip():
    rep = verify_theorem1(3, 5)
    d = rep.to_dict()
    assert d["p"] == 3 and d["q"] == 81 and d["k"] == 16
    assert d["computed_g"] == d["formula_g"] == 4 and d["match"] is True


def _min_coset_norm(vec, kind):
    return min(norm(shift(vec, x), kind) for x in range(vec.modulus))


@pytest.mark.parametrize("p,r", [(2, 3), (5, 3)])
def test_minimal_lengths_equal_coset_norms(p, r):
    f = cyclotomic_field(p, r)
    k1 = (f.q - 1) // r
    for a in f.elements():
        assert per_element_length(f, k1, a) == _min_coset_norm(to_coset_vector(a), NormKind.ONE)
    if p != 2:
        k2 = (f.q - 1) // (2 * r)
        for a in f.elements():
            assert per_element_length(f, k2, a) == _min_coset_norm(to_coset_vector(a), NormKind.LEE)


# q = 37^4 = 1 874 161, just under the default budget: opt-in (pytest -m slow).
@pytest.mark.slow
@pytest.mark.parametrize("thm,want", [(1, 72), (2, 44)])
def test_verify_theorems_at_37_5(thm, want):
    rep = (verify_theorem1 if thm == 1 else verify_theorem2)(37, 5)
    assert rep.q == 37**4
    assert rep.computed_g == want == rep.formula_g and rep.match


@pytest.mark.slow
def test_every_per_element_length_of_F_37_4_peaks_at_72():
    f = cyclotomic_field(37, 5)
    k = (f.q - 1) // 5
    assert max(per_element_length(f, k, a) for a in f.elements()) == 72
    for t in random.Random(37).sample(range(f.q), 300):
        a = f.from_rank(t)
        assert per_element_length(f, k, a) == _min_coset_norm(to_coset_vector(a), NormKind.ONE)
