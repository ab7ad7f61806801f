import tracemalloc
from math import comb

import pytest

from coset_reference import coset_max_admissible
from leewaring import (
    BudgetError,
    ModVec,
    NormKind,
    OracleResult,
    brute_max_admissible,
    g_bound,
    h_bound,
    is_admissible,
    norm,
    oracle,
)

ONE, LEE = NormKind.ONE, NormKind.LEE


def test_examples():
    res = brute_max_admissible(3, 2, ONE)
    assert res.max_norm == 1 and res.enumerated == 3
    res = brute_max_admissible(3, 3, LEE)
    assert res.max_norm == 2
    assert res.witness == ModVec(3, (0, 1, 2))
    res = brute_max_admissible(1, 5, LEE)
    assert res.max_norm == 0 and res.witness.coords == (0,) * 5


def test_covering_radius_examples():
    # the Lee covering radius of the line (Z/mZ)e is the maximal admissible Lee norm
    assert brute_max_admissible(4, 2, LEE).max_norm == 2
    assert brute_max_admissible(2, 5, LEE).max_norm == 2
    assert brute_max_admissible(5, 3, LEE).max_norm == 3


def test_witness_is_admissible_and_attains_max():
    for m in range(1, 7):
        for r in range(1, 6):
            for kind in (ONE, LEE):
                res = brute_max_admissible(m, r, kind)
                assert is_admissible(res.witness, kind)
                assert norm(res.witness, kind) == res.max_norm
                assert res.enumerated == m ** (r - 1)


def test_matches_closed_forms_on_small_grid():
    for m in range(1, 7):
        for r in range(1, 6):
            assert brute_max_admissible(m, r, ONE).max_norm == g_bound(m, r)
            assert brute_max_admissible(m, r, LEE).max_norm == h_bound(m, r)


def test_budget_is_enforced():
    with pytest.raises(BudgetError) as info:
        brute_max_admissible(7, 9, LEE, budget=10**6)
    assert info.value.required == 7**8
    assert info.value.budget == 10**6


def test_result_independent_of_thread_count():
    # 6^6 = 46656 cosets spans several chunks
    for kind in (ONE, LEE):
        solo = brute_max_admissible(6, 7, kind, threads=1)
        multi = brute_max_admissible(6, 7, kind, threads=4)
        assert solo == multi


def test_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        brute_max_admissible(0, 3, LEE)
    with pytest.raises(ValueError):
        brute_max_admissible(3, 0, LEE)


def test_rejects_nonpositive_threads():
    for threads in (0, -1):
        with pytest.raises(ValueError, match="threads"):
            brute_max_admissible(3, 3, LEE, threads=threads)


def test_single_coordinate_and_unit_modulus():
    for kind in (ONE, LEE):
        res = brute_max_admissible(1000, 1, kind)
        assert (res.max_norm, res.witness.coords, res.enumerated) == (0, (0,), 1)
        res = brute_max_admissible(1, 1000, kind)
        assert (res.max_norm, res.witness.coords, res.enumerated) == (0, (0,) * 1000, 1)


def test_single_coordinate_answers_without_enumerating(monkeypatch):
    # every coset of (Z/mZ)^1 holds (0,), so even m = 10^6 needs no shift norms
    def refuse(hist, kind):
        raise AssertionError("r = 1 must not step shift norms")

    monkeypatch.setattr(oracle, "shift_norms", refuse)
    for kind in (ONE, LEE):
        assert brute_max_admissible(10**6, 1, kind) == OracleResult(0, ModVec(10**6, (0,)), 1)


CRITERION_1_GRID = [(m, r) for m in range(1, 9) for r in range(1, 8) if m ** (r - 1) <= 2 * 10**6]


@pytest.mark.parametrize("m, r", CRITERION_1_GRID + [(2, 21), (4, 11)])
def test_matches_coset_reference(m, r):
    # (2, 21) and (4, 11) are tie-heavy: a third and a fifth of their cosets
    # attain the maximum, so the witness rule decides among many candidates
    for kind in (ONE, LEE):
        res = brute_max_admissible(m, r, kind)
        assert (res.max_norm, res.witness.coords, res.enumerated) == coset_max_admissible(m, r, kind)


def test_newly_reachable_grid_matches_closed_forms():
    # cells beyond criterion 1 whose states x (shifts + coordinates) stay
    # small, although most have far more cosets than the default budget
    cells = [
        (m, r)
        for m in range(1, 13)
        for r in range(1, 13)
        if (m, r) not in CRITERION_1_GRID and comb(m + r - 2, r - 1) * (m + r) <= 10**6
    ]
    assert len(cells) == 78
    for m, r in cells:
        budget = max(m ** (r - 1), 10**6)
        assert brute_max_admissible(m, r, ONE, budget=budget).max_norm == g_bound(m, r), (m, r)
        assert brute_max_admissible(m, r, LEE, budget=budget).max_norm == h_bound(m, r), (m, r)


def _refused(m, r, **kw):
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError) as info:
            brute_max_admissible(m, r, LEE, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    return info.value


def test_budget_bounds_states_and_shifts():
    # 10^5 cosets fit the budget, but 10^5 states x 10^5 shifts do not
    err = _refused(100000, 2)
    assert err.required == 100000 * 100002 and err.budget == 10**7
    err = _refused(1, 10**8)
    assert err.required == 10**8 + 1


def test_budget_error_for_astronomical_counts():
    # 3^(10^7 - 1) is never built: the error carries the bound 2^(10^7 - 1)
    err = _refused(3, 10**7)
    assert err.required == 1 << (10**7 - 1)
    assert "at least 2^9999999" in str(err)
    assert "needs at least 2^9999," in str(_refused(3, 10000))
