import os
import subprocess
import sys
import tracemalloc
from functools import cache
from itertools import islice
from math import ceil, comb

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


def _refuse_enumeration(monkeypatch):
    """Make any oracle run that draws a chunk of states fail."""
    def refuse(states, n):
        raise AssertionError("the answer needs no enumeration")

    monkeypatch.setattr(oracle, "islice", refuse)


def test_single_coordinate_answers_without_enumerating(monkeypatch):
    # every coset of (Z/mZ)^1 holds (0,), so even m = 10^6 needs no states
    _refuse_enumeration(monkeypatch)
    for kind in (ONE, LEE):
        assert brute_max_admissible(10**6, 1, kind) == OracleResult(0, ModVec(10**6, (0,)), 1)


def test_unit_modulus_answers_without_enumerating(monkeypatch):
    # m = 1 is the one case where m^(r-1) <= budget does not bound r: (1, 10^6)
    # fits the default budget and would otherwise make 10^6 gathers
    _refuse_enumeration(monkeypatch)
    for kind in (ONE, LEE):
        assert brute_max_admissible(1, 10**6, kind) == OracleResult(0, ModVec(1, (0,) * 10**6), 1)


def test_rejects_a_kind_that_is_not_a_norm_kind():
    # the string "one" once ran as LEE: max 3 with witness (0, 1, 3), where ONE gives 4
    assert brute_max_admissible(5, 3, ONE).max_norm == 4
    for r in (1, 3):
        with pytest.raises(TypeError, match="NormKind"):
            brute_max_admissible(5, r, "one")


CRITERION_1_GRID = [(m, r) for m in range(1, 9) for r in range(1, 8) if m ** (r - 1) <= 2 * 10**6]


_reference = cache(coset_max_admissible)


@pytest.mark.parametrize("m, r", CRITERION_1_GRID + [(2, 21), (4, 11)])
def test_matches_coset_reference(m, r):
    # (2, 21) and (4, 11) are tie-heavy: a third and a fifth of their cosets
    # attain the maximum, so the witness rule decides among many candidates
    for kind in (ONE, LEE):
        res = brute_max_admissible(m, r, kind)
        assert (res.max_norm, res.witness.coords, res.enumerated) == _reference(m, r, kind)


@pytest.mark.parametrize("m, r", CRITERION_1_GRID + [(2, 21), (4, 11)])
def test_matches_coset_reference_one_state_a_chunk(m, r, monkeypatch):
    # every tie and every witness comparison crosses a chunk boundary
    monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", 1)
    for kind in (ONE, LEE):
        res = brute_max_admissible(m, r, kind)
        assert (res.max_norm, res.witness.coords, res.enumerated) == _reference(m, r, kind)


def _chunks(monkeypatch):
    """Count the states of each chunk the oracle runs that follow draw."""
    calls = []

    def counted(states, n):
        chunk = list(islice(states, n))
        if chunk:
            calls.append(len(chunk))
        return iter(chunk)

    monkeypatch.setattr(oracle, "islice", counted)
    return calls


def test_chunks_hold_at_most_their_entries(monkeypatch):
    calls = _chunks(monkeypatch)
    # 2^16 // 24 = 2730 states a chunk: 705 432 states in 259 chunks
    assert brute_max_admissible(12, 12, LEE, budget=10**12).max_norm == 36
    assert len(calls) == 259 and max(calls) == 2730
    calls.clear()
    # 2^16 // 103 = 636 states a chunk: 5 050 states in 8 chunks
    assert brute_max_admissible(100, 3, LEE, budget=10**8).max_norm == h_bound(100, 3)
    assert calls == [636] * 7 + [comb(101, 2) - 7 * 636]


@pytest.mark.parametrize("m", [255, 256, 257])
def test_residues_on_both_sides_of_a_byte_match_closed_forms(m):
    # states with m <= 256 are packed as bytes, wider ones as intp
    for kind, bound in ((ONE, g_bound), (LEE, h_bound)):
        res = brute_max_admissible(m, 3, kind)
        assert res.max_norm == bound(m, 3) and res.enumerated == m**2, (m, kind)


def test_memory_is_one_chunk():
    # the whole 48 620-state histogram and its norms at once peak at 10.4 MiB;
    # (400, 3) and (3000, 2) peaked at 12.6 and 70.5 MiB in 2048-state chunks
    for m, r in ((10, 10), (400, 3), (3000, 2)):
        tracemalloc.start()
        try:
            res = brute_max_admissible(m, r, LEE, budget=10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.max_norm == h_bound(m, r)
        assert peak < 2 * 2**20, (m, r, peak)


@pytest.mark.slow
def test_lee_12_12_runs_in_bounded_memory():
    code = (
        "import resource; from leewaring import NormKind, brute_max_admissible; "
        "print(brute_max_admissible(12, 12, NormKind.LEE, budget=10**12).max_norm, "
        "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(oracle.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    value, rss_kb = map(int, proc.stdout.split())
    assert value == 36
    assert rss_kb < 80 * 1000, rss_kb  # whole histogram at once: 211 MB


@pytest.mark.slow
@pytest.mark.parametrize("m, r", [(3000, 2), (400, 3), (60, 5)])
def test_large_modulus_matches_closed_form(m, r, monkeypatch):
    # a chunk holds 2^16 // (m + r) states, however large m is
    calls = _chunks(monkeypatch)
    assert brute_max_admissible(m, r, LEE, budget=10**8).max_norm == h_bound(m, r)
    assert len(calls) == ceil(comb(m + r - 2, r - 1) / (oracle._CHUNK_ENTRIES // (m + r)))


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
