import json
import os
import subprocess
import sys
import tracemalloc
from functools import cache
from math import comb

import numpy as np
import pytest

from coset_reference import coset_max_admissible
from multiset_reference import multiset_max_admissible
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


class _Tiles(list):
    blocks = 0  # prefix blocks, each of one or more tiles


def _count_tiles(monkeypatch):
    """Record (prefixes, suffixes) for each tile of the plans the oracle runs."""
    tiles, plan = _Tiles(), oracle._tiles

    def recorded(m, a, d):
        n = comb(m + d - 1, d)
        for rows, start, width in plan(m, a, d):
            tiles.extend((rows, min(width, n - lo)) for lo in range(start, n, width))
            tiles.blocks += 1
            yield rows, start, width

    monkeypatch.setattr(oracle, "_tiles", recorded)
    return tiles


def test_single_coordinate_answers_without_enumerating(monkeypatch):
    # every coset of (Z/mZ)^1 holds (0,), so even m = 10^6 needs no states
    tiles = _count_tiles(monkeypatch)
    for kind in (ONE, LEE):
        assert brute_max_admissible(10**6, 1, kind) == OracleResult(0, ModVec(10**6, (0,)), 1)
    assert tiles == []


def test_unit_modulus_answers_without_enumerating(monkeypatch):
    # m = 1 is the one case where m^(r-1) <= budget does not bound r: (1, 10^6)
    # fits the default budget and would otherwise draw a state of 10^6 - 1 residues
    tiles = _count_tiles(monkeypatch)
    for kind in (ONE, LEE):
        assert brute_max_admissible(1, 10**6, kind) == OracleResult(0, ModVec(1, (0,) * 10**6), 1)
    assert tiles == []


def test_integral_arguments_of_any_type_give_python_ints():
    want = brute_max_admissible(5, 3, LEE)
    for m, r, budget, threads in ((np.int64(5), 3, 10**7, 1), (5, np.int64(3), np.int64(10**7), np.int32(2))):
        res = brute_max_admissible(m, r, LEE, budget=budget, threads=threads)
        assert res == want
        assert type(res.max_norm) is int and type(res.enumerated) is int
        assert all(type(c) is int for c in res.witness.coords)
        assert json.loads(json.dumps([res.max_norm, res.enumerated])) == [3, 25]


@pytest.mark.parametrize(
    "args, kw",
    [
        ((5.0, 3), {}),
        ((5, 3.0), {}),
        (("5", 3), {}),
        ((5, 3), {"budget": 10**7 + 0.5}),
        ((5, 3), {"budget": "10000000"}),
        ((5, 3), {"threads": 1.5}),
    ],
    ids=["float-m", "float-r", "str-m", "float-budget", "str-budget", "float-threads"],
)
def test_rejects_arguments_that_are_not_integers(args, kw):
    # floats once failed in the budget check with AttributeError, or (threads) ran
    with pytest.raises(TypeError):
        brute_max_admissible(*args, LEE, **kw)


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
    # one state a tile: every tie and every witness comparison crosses a tile boundary
    monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", 1)
    tiles = _count_tiles(monkeypatch)
    for kind in (ONE, LEE):
        res = brute_max_admissible(m, r, kind)
        assert (res.max_norm, res.witness.coords, res.enumerated) == _reference(m, r, kind)
    assert set(tiles) <= {(1, 1)}


# cells whose states split into a prefix and a suffix (a >= 1) with 97- or 41-entry tiles
SPLIT_CELLS = [
    (m, r) for m in range(3, 9) for r in range(3, 8) if m ** (r - 1) <= 2 * 10**6 and (m, r) not in ((3, 3), (3, 4), (4, 3))
] + [(2, 21), (4, 11)]


@pytest.mark.parametrize("entries", [97, 41])
@pytest.mark.parametrize("m, r", SPLIT_CELLS)
def test_matches_coset_reference_in_prime_tiles(m, r, entries, monkeypatch):
    # prime tiles, which the shifts (m < entries) do not divide, split the prefixes
    # of a run into blocks, and at 41 entries the suffixes of m >= 7 into column
    # blocks too, so that ties cross tile boundaries
    monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", entries)
    assert r - 1 - oracle._depth(m, r - 1) >= 1
    tiles = _count_tiles(monkeypatch)
    for kind in (ONE, LEE):
        res = brute_max_admissible(m, r, kind)
        assert (res.max_norm, res.witness.coords, res.enumerated) == _reference(m, r, kind)
    _assert_tiles_fit(tiles, m)
    assert (len(tiles) > tiles.blocks) == (entries == 41 and m >= 7)


def _assert_tiles_fit(tiles, m):
    # no tile holds more than _CHUNK_ENTRIES entries, short of the one-pair minimum of m
    assert all(m * rows * cols <= oracle._CHUNK_ENTRIES or rows * cols == 1 for rows, cols in tiles)


def test_tiles_hold_at_most_their_entries(monkeypatch):
    tiles = _count_tiles(monkeypatch)
    # 705 432 states of 7-residue prefixes and 4-residue suffixes in 134 tiles,
    # each holding one block of prefixes against the suffixes it needs
    assert brute_max_admissible(12, 12, LEE, budget=10**12).max_norm == 36
    assert len(tiles) == 134 and max(12 * rows * cols for rows, cols in tiles) == 65532
    _assert_tiles_fit(tiles, 12)
    tiles.clear()
    # 5 050 states: 100 one-residue prefixes against the 100 columns of the shift table
    assert brute_max_admissible(100, 3, LEE, budget=10**8).max_norm == h_bound(100, 3)
    assert len(tiles) == 10 and sum(rows * cols for rows, cols in tiles) == 5687
    _assert_tiles_fit(tiles, 100)


@pytest.mark.parametrize("m, r, count", [(3000, 2, 143), (400, 3, 655), (60, 5, 552)])
def test_large_modulus_tiles_match_closed_form(m, r, count, monkeypatch):
    # the suffixes are the columns of the shift table: (3000, 2) and (400, 3) read
    # it in column blocks of about 2^16 // m, (60, 5) whole against 3-residue prefixes
    tiles = _count_tiles(monkeypatch)
    assert brute_max_admissible(m, r, LEE, budget=10**8).max_norm == h_bound(m, r)
    assert len(tiles) == count
    _assert_tiles_fit(tiles, m)


def test_one_pair_tiles_past_the_chunk(monkeypatch):
    # with fewer entries than shifts a tile is one (prefix, suffix) pair
    monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", 50)
    tiles = _count_tiles(monkeypatch)
    assert brute_max_admissible(60, 3, LEE).max_norm == h_bound(60, 3)
    assert len(tiles) == comb(61, 2) and set(tiles) == {(1, 1)}


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
    # a small relay interpreter starts the child, so that its ru_maxrss leaves this process
    # out: Linux counts the resident set of the process that starts a program in its ru_maxrss
    relay = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(oracle.__file__)))
    argv = [sys.executable, "-c", relay, sys.executable, "-c", code]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    value, rss_kb = map(int, proc.stdout.split())
    assert value == 36
    assert rss_kb < 80 * 1000, rss_kb  # whole histogram at once: 211 MB


# every cell with m, r <= 16 whose states x (shifts + coordinates) stay within 2 * 10^5
MULTISET_GRID = [
    (m, r) for m in range(1, 17) for r in range(1, 17) if comb(m + r - 2, r - 1) * (m + r) <= 2 * 10**5
]


def _matches_multiset_reference(cells):
    for m, r in cells:
        for kind in (ONE, LEE):
            res = brute_max_admissible(m, r, kind, budget=max(m ** (r - 1), 10**6))
            assert (res.max_norm, res.witness.coords) == multiset_max_admissible(m, r, kind), (m, r, kind)


def test_matches_multiset_reference_beyond_criterion_1():
    cells = [(m, r) for m, r in MULTISET_GRID if (m, r) not in CRITERION_1_GRID and comb(m + r - 2, r - 1) < 10**4]
    assert len(cells) == 108
    _matches_multiset_reference(cells)


@pytest.mark.slow
def test_matches_multiset_reference_on_the_whole_grid():
    assert len(MULTISET_GRID) == 164
    _matches_multiset_reference(MULTISET_GRID)


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
