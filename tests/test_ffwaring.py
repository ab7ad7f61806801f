import collections
import copy
import dataclasses
import gc
import os
import pickle
import random
import subprocess
import sys
import time
import tracemalloc
import weakref
from array import array
from math import gcd, isqrt

import pytest

from leewaring import (
    BudgetError,
    FqElem,
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
from leewaring import cli, ffwaring
from leewaring.ffwaring import _MR_EXACT_BELOW, _is_prime, _mul, _pow, _sumset_levels
from leewaring.modring import weights


def _elem(f, coeffs):
    """The element of f with these coefficients (constant first), digits taken mod p."""
    return FqElem(f, sum(c % f.p * v for c, v in zip(coeffs, f._place)))


def _primitive_walk(f):
    """Independent slow path: g^0, ..., g^(q-2) as coefficient tuples, for the
    first g in rank order whose successive products reach 1 only after q-1 steps."""
    one = FqElem(f, 1).coeffs
    for t in range(1, f.q):
        a = FqElem(f, t).coeffs
        walk, x = [one], a
        while x != one:
            walk.append(x)
            x = _mul(f, x, a)
        if len(walk) == f.q - 1:
            return walk


def _reference_levels(f, powers):
    """Independent slow path: the sumset BFS on coefficient tuples in a dict."""
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


def test_field_gate_refuses_an_inconsistent_cyclotomic_order():
    with pytest.raises(ValueError, match="7 is not a primitive root modulo 3"):
        FqField(7, (1, 1, 1))
    assert [f.name for f in dataclasses.fields(FqField) if f.init] == ["p", "modulus"]
    with pytest.raises(TypeError):
        FqField(3, (1,) * 5, cyclotomic_order=5)  # the modulus alone fixes the order
    assert FqField(3, (1,) * 5) == cyclotomic_field(3, 5)


def test_field_gate_reads_the_cyclotomic_order_off_the_modulus():
    f = FqField(3, (1,) * 5)
    assert f == cyclotomic_field(3, 5) and hash(f) == hash((3, (1,) * 5))
    assert repr(f) == "FqField(p=3, modulus=(1, 1, 1, 1, 1))" and f.cyclotomic_order == 5
    assert per_element_length(cyclotomic_field(3, 5), 16, FqElem(f, 3)) == 1  # xi, rank p
    assert FqField(3, (4, 7, 1, -2, 10)).cyclotomic_order == 5  # read off the reduced modulus
    # r = p and a composite r are not cyclotomic shapes: trial division decides
    assert FqField(2, (1, 1)).cyclotomic_order is None  # x + 1 over F_2
    with pytest.raises(ValueError, match="reducible over Z/3Z"):
        FqField(3, (1, 1, 1))  # (x - 1)^2
    with pytest.raises(ValueError, match="reducible over Z/2Z"):
        FqField(2, (1, 1, 1, 1))  # (x + 1)(x^2 + 1)
    assert FqField(5, (2, 0, 1)).cyclotomic_order is None


def test_p_below_two_is_refused_before_any_primality_test(monkeypatch):
    def refuse(n):
        raise AssertionError(f"primality test of {n}")

    monkeypatch.setattr(ffwaring, "_is_prime", refuse)
    with pytest.raises(ValueError, match="0 is not prime"):
        FqField(0, (1, 1, 1))


def test_cyclotomic_field_refuses_a_huge_order_before_building_its_modulus():
    # 2^61 - 1 is prime and 3 is not a primitive root modulo it: 3^((r-1)/3) = 1
    assert pow(3, (2**61 - 2) // 3, 2**61 - 1) == 1
    with pytest.raises(ValueError, match="primitive root"):
        cyclotomic_field(3, 2**61 - 1)


def _prime_by_trial_division(n):
    return n > 1 and all(n % f for f in range(2, isqrt(n) + 1))


def test_miller_rabin_matches_trial_division():
    assert [n for n in range(10**5) if _is_prime(n)] == [
        n for n in range(10**5) if _prime_by_trial_division(n)
    ]
    # strong pseudoprimes to the bases 2..7, 2..23 and 2..37
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n), n
    assert _is_prime(2**61 - 1) and _is_prime(2147483693)
    # above the exact range a composite is still refused by Miller-Rabin itself
    assert not _is_prime((2**61 - 1) * (2**89 - 1))


def test_a_survivor_above_the_exact_bound_is_refused_at_once():
    # 2^89 - 1 is prime, and the bound itself is a composite strong
    # pseudoprime to every base 2..41; trial division of either would hang
    assert _MR_EXACT_BELOW == 1287836182261 * 2575672364521
    big = 2**89 - 1
    for call in (
        lambda: _is_prime(big),
        lambda: _is_prime(_MR_EXACT_BELOW),
        lambda: FqField(big, (0, 1)),
        lambda: is_primitive_root(3, big),
    ):
        with pytest.raises(ValueError, match=f"exact only below {_MR_EXACT_BELOW}"):
            call()


def _order_by_walk(p, r):
    """Independent slow path: the multiplicative order of p mod r, power by power."""
    order, t = 1, p % r
    while t != 1:
        t = t * p % r
        order += 1
    return order


PRIMES_BELOW_200 = [n for n in range(200) if _is_prime(n)]


def test_is_primitive_root_matches_the_order_walk():
    pairs = [(p, r) for p in PRIMES_BELOW_200 for r in PRIMES_BELOW_200 if p != r]
    for p, r in pairs:
        assert is_primitive_root(p, r) == (_order_by_walk(p, r) == r - 1), (p, r)


def _trial_prime_divisors(n, primes):
    """Independent slow path: each of the given primes up to sqrt(n) in turn, the cofactor last."""
    out = []
    for f in primes:
        if f * f > n:
            break
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
    else:
        raise AssertionError(f"{n} needs primes past {primes[-1]}")
    return out + [n] if n > 1 else out


def test_prime_divisors_match_plain_trial_division():
    primes = [f for f in range(2, 100004) if _is_prime(f)]  # 100003^2 > 10^10
    rng = random.Random(17)
    big = [99989 * 99991, 2 * 99991**2, 3 * 99989 * 99991, 2**33, 3**20, 9999999967]
    for n in [*range(1, 5000), *(rng.randrange(1, 10**10) for _ in range(300)), *big]:
        assert list(ffwaring._prime_divisors(n)) == _trial_prime_divisors(n, primes), n


# r = 2q + 1 with q prime: r - 1 = 2q, whose trial division up to sqrt(2q)
# took about 3 s; division stops once the cofactor q is proved prime.
def test_a_safe_prime_is_tested_without_trial_division_to_its_root():
    r = 2000000000014403
    assert _is_prime(r) and _is_prime((r - 1) // 2)
    start = time.perf_counter()
    assert list(ffwaring._prime_divisors(r - 1)) == [2, (r - 1) // 2]
    assert is_primitive_root(2, r) and not is_primitive_root(3, r)
    assert time.perf_counter() - start < 0.5


# The place values p^i of the rank digits are built on the first read of a
# rank's digits, not by the field gate: building all 40 012 of them here took
# 1.4 s and peaked at 104 MiB; the gate alone peaks at 0.9 MiB (Python 3.11).
def test_the_field_gate_builds_no_place_values():
    tracemalloc.start()
    try:
        f = cyclotomic_field(2, 40013)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.q == 2**40012 and peak < 4 * 2**20, peak
    assert FqElem(cyclotomic_field(3, 5), 3 + 2 * 27).coeffs == (0, 1, 0, 2)  # read on demand


def test_cyclotomic_field_builds_exactly_when_the_modulus_is_irreducible():
    # trial division up to degree (r-1)/2 costs about p^((r-1)/2) divisions
    pairs = [
        (p, r)
        for p in PRIMES_BELOW_200
        for r in PRIMES_BELOW_200
        if p != r and p ** ((r - 1) // 2) <= 2000
    ]
    for p, r in pairs:
        irreducible = ffwaring._is_irreducible((1,) * r, p)
        for build in (lambda: cyclotomic_field(p, r), lambda: FqField(p, (1,) * r)):
            try:
                f = build()
            except ValueError as err:
                assert "primitive root" in str(err) and not irreducible, (p, r)
            else:
                assert irreducible and f.cyclotomic_order == r, (p, r)


def test_only_F_4_of_the_smallest_irreducibles_is_cyclotomic():
    fields = [
        FqField(p, find_irreducible(p, n))
        for p in range(2, 3001)
        if _is_prime(p)
        for n in range(1, 12)
        if p**n <= 3000
    ]
    assert len(fields) == 466
    assert [(f.q, f.cyclotomic_order) for f in fields if f.cyclotomic_order] == [(4, 3)]


def test_cyclotomic_fields_skip_trial_division(monkeypatch):
    def refuse(poly, p):
        raise AssertionError(f"trial division of {poly} mod {p}")

    monkeypatch.setattr(ffwaring, "_is_irreducible", refuse)
    assert cyclotomic_field(3, 17).q == FqField(3, (1,) * 17).q == 3**16
    assert verify_theorem1(3, 5).match
    assert verify_theorem2(5, 7).match


def test_the_field_gate_tests_each_prime_once(monkeypatch):
    calls = collections.Counter()
    is_prime, generates = ffwaring._is_prime, ffwaring._generates

    def counted_is_prime(n):
        calls[n] += 1
        return is_prime(n)

    def counted_walk(p, r):
        calls["walk"] += 1
        return generates(p, r)

    monkeypatch.setattr(ffwaring, "_is_prime", counted_is_prime)
    monkeypatch.setattr(ffwaring, "_generates", counted_walk)
    FqField(3, (1,) * 5)
    assert calls == {3: 1, 5: 1, "walk": 1}
    for verify in (verify_theorem1, verify_theorem2):
        calls.clear()
        assert verify(3, 5).match
        assert calls[3] <= 2 and calls[5] <= 2 and calls["walk"] == 2, (verify, calls)
        assert set(calls) == {3, 5, "walk"}


PRIMES_TO_43 = [n for n in range(44) if _is_prime(n)]


# 257 and 65537 take the ONE levels to 256 and 65 536, so their tables are
# the first 2-byte and the first 4-byte ones (LEE: 128 and 32 768).
@pytest.mark.parametrize("p", PRIMES_TO_43 + [257, 65537])
def test_prime_field_levels_are_the_norm_weights(p):
    """Both sides of the reduction at n = 1, where rank is residue: the Waring
    levels of k = (p-1)/t in F_p are the ONE (t = 1) and LEE (t = 2) weights."""
    f = FqField(p, (0, 1))
    assert list(_sumset_levels(f, p - 1)[0]) == weights(p, NormKind.ONE)
    if p > 2:
        assert list(_sumset_levels(f, (p - 1) // 2)[0]) == weights(p, NormKind.LEE)


def test_field_arithmetic_basics():
    f = cyclotomic_field(2, 5)  # F_16 with xi^4 = 1 + xi + xi^2 + xi^3
    xi, one = (0, 1, 0, 0), FqElem(f, 1).coeffs
    assert _pow(f, xi, 5) == one == (1, 0, 0, 0)  # fifth root of unity
    assert _pow(f, xi, 4) == (1, 1, 1, 1)
    assert _mul(f, xi, xi) == _pow(f, xi, 2) == (0, 0, 1, 0)
    assert _pow(f, xi, 0) == one
    assert FqElem(f, 11).coeffs == (1, 1, 0, 1)
    assert len(list(f.elements())) == 16


def test_element_repr_shows_its_coefficients():
    assert repr(FqElem(cyclotomic_field(3, 5), 3)) == (
        "FqElem(field=FqField(p=3, modulus=(1, 1, 1, 1, 1)), coeffs=(0, 1, 0, 0))"
    )


def test_elements_are_frozen_and_survive_pickle_and_deepcopy():
    f = cyclotomic_field(3, 5)
    a = _elem(f, (2, 0, 1, 1))
    assert waring_number(f, 16) == 4  # the copies carry a level table too
    for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert b == a and hash(b) == hash(a) and b.coeffs == (2, 0, 1, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.rank = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.field = f
    assert a.rank == 2 + 9 + 27


def _assert_same_element(a, f):
    """a, built by the element factory, cannot be told apart from FqElem(f, a.rank)."""
    b = FqElem(f, a.rank)
    assert type(a) is FqElem and a.field is f
    assert a == b and hash(a) == hash(b) == hash((f, a.rank))
    assert repr(a) == repr(b) and bool(a) == bool(b) and a.coeffs == b.coeffs
    for c in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert c == a and hash(c) == hash(a) and c.coeffs == a.coeffs and repr(c) == repr(a)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.rank = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.field = f


def test_factory_built_elements_match_constructed_ones():
    f = cyclotomic_field(3, 5)
    for a in f.elements():
        _assert_same_element(a, f)


def test_every_route_to_an_element_gives_the_same_element():
    f, g = cyclotomic_field(3, 5), cyclotomic_field(3, 5)
    one, xi = FqElem(f, 1).coeffs, FqElem(f, 3).coeffs
    xi3 = _pow(f, xi, 3)
    coeffs = (2, 1, 0, 2)  # 2 + xi + 2 xi^3
    t = 2 + 3 + 2 * 27
    total = tuple(map(sum, zip(one, one, xi, xi3, xi3)))
    routes = [
        _elem(f, coeffs),
        FqElem(f, t),
        list(f.elements())[t],
        _elem(f, total),
        _elem(f, _mul(f, _mul(f, total, xi), _pow(f, xi, 4))),  # xi^5 = 1
        _elem(f, _mul(f, _mul(f, _pow(f, xi, 6), coeffs), _pow(f, xi, 4))),  # xi^10 = 1
        _elem(g, coeffs),
        FqElem(g, t),
        list(g.elements())[t],
    ]
    for a in routes:
        assert a == routes[0] and hash(a) == hash(routes[0])
        assert a.coeffs == coeffs and a.rank == t
    assert FqElem(f, t) == FqElem(FqField(3, (1, 1, 1, 1, 1)), t)  # the modulus fixes the field


def test_an_element_is_false_only_at_rank_zero():
    f = cyclotomic_field(2, 5)
    assert [t for t in range(f.q) if not FqElem(f, t)] == [0]


def test_kth_power_set_examples():
    f4 = cyclotomic_field(2, 3)
    assert {FqElem(f4, t).coeffs for t in kth_power_set(f4, 3)} == {(0, 0), (1, 0)}
    f5 = FqField(5, find_irreducible(5, 1))
    assert kth_power_set(f5, 2) == [0, 1, 4]
    assert kth_power_set(f5, 1) == kth_power_set(f5, 3) == range(5)
    f81 = cyclotomic_field(3, 5)
    assert kth_power_set(f81, 1) == range(81)  # gcd(1, 80) = 1: every element
    for k in (16, 80):  # sorted int ranks, 0 first
        powers = kth_power_set(f81, k)
        assert type(powers) is list and all(type(t) is int for t in powers)
        assert powers[0] == 0 and powers == sorted(set(powers)) and len(powers) == 1 + 80 // k
    with pytest.raises(ValueError, match="positive"):
        kth_power_set(f5, 0)


def test_kth_power_set_matches_direct_powers():
    rng = random.Random(15)
    for f in (FqField(7, find_irreducible(7, 1)), cyclotomic_field(3, 5), FqField(3, (1, 0, 1))):
        for _ in range(5):
            k = rng.randrange(1, 50)
            direct = {_elem(f, _pow(f, a.coeffs, k)).rank for a in f.elements()}
            assert set(kth_power_set(f, k)) == direct
            assert len(direct) == 1 + (f.q - 1) // gcd(k, f.q - 1)
    # every subgroup order d | q - 1, from d = q - 1 (48 = 2^4 * 3, 63 = 3^2 * 7) down to d = 1
    for f in (FqField(7, find_irreducible(7, 2)), FqField(2, find_irreducible(2, 6))):
        for k in range(1, f.q):
            if (f.q - 1) % k == 0:
                direct = {_elem(f, _pow(f, a.coeffs, k)).rank for a in f.elements()}
                assert set(kth_power_set(f, k)) == direct
                assert len(direct) == 1 + (f.q - 1) // k


# 2147483693 = 2 mod 3 is prime and above 2^31, so n (p-1)^2 >= 2^63; and
# 2 is a primitive root modulo 67, so F_{2^66} has ranks above 2^63.  The
# products must not wrap round in int64 on either side of that bound.
def test_kth_power_set_stays_exact_beyond_int64():
    p = 2147483693
    f = cyclotomic_field(p, 3)
    assert f.n * (p - 1) ** 2 >= 2**63
    cubes = set(kth_power_set(f, (f.q - 1) // 3))
    assert cubes == {0, 1, p, (p - 1) * (1 + p)}  # 0, 1, xi, xi^2 = -1 - xi
    sixths = set(kth_power_set(f, (f.q - 1) // 6))
    assert sixths == cubes | {p - 1, (p - 1) * p, 1 + p}  # and -1, -xi, -xi^2 = 1 + xi
    p = 2**61 - 1  # F_p with a single product (p-1)^2 far above 2^63
    f = FqField(p, (0, 1))
    for d in (3, 6, 1321):
        roots = set(kth_power_set(f, (p - 1) // d))
        assert len(roots) == d + 1 and all(pow(x, d, p) == 1 for x in roots - {0}), d
    f = cyclotomic_field(2, 67)
    assert f.q > 2**63
    roots = set(kth_power_set(f, (f.q - 1) // 67))
    assert roots == {0, 2**66 - 1} | {2**i for i in range(66)}  # xi^66 = 1 + xi + ... + xi^65


def _without_numpy(script, relay=False):
    """Run script in a child process in which importing numpy raises ImportError.

    With relay, a small interpreter starts the child, so that the child's
    ru_maxrss leaves this process out: Linux counts the resident set of the
    process that starts a program in the program's ru_maxrss.
    """
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ffwaring.__file__)))
    argv = [sys.executable, "-c", "import sys\nsys.modules['numpy'] = None\n" + script]
    if relay:
        argv = [sys.executable, "-c", "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)", *argv]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


FIELD_COMMANDS = [
    ["thm1", "--p", "3", "--r", "5"],
    ["thm2", "--p", "5", "--r", "3", "--format", "json"],
    ["remarks", "--p", "7"],
    ["generic", "--p", "2", "--n", "16", "--k", "3"],
]


def test_the_field_side_runs_without_numpy(capsys):
    script = f"""
from leewaring import (FqElem, cyclotomic_field, kth_power_set, per_element_length,
                       verify_remarks, verify_theorem1, verify_theorem2, waring_number)
from leewaring.cli import main
assert verify_theorem1(3, 5).match and verify_theorem2(5, 3).match
assert [rep.computed_g for rep in verify_remarks(7)] == [6, 3, 6]
f = cyclotomic_field(3, 5)
assert waring_number(f, 16) == 4 and per_element_length(f, 16, FqElem(f, 3)) == 1
assert kth_power_set(f, 40) == [0, 1, 2] and kth_power_set(f, 3) == range(81)
assert [main(["waring", *argv]) for argv in {FIELD_COMMANDS!r}] == [0, 0, 0, 0]
"""
    got = _without_numpy(script)
    for argv in FIELD_COMMANDS:
        assert cli.main(["waring", *argv]) == 0
    assert got == capsys.readouterr().out


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
    assert per_element_length(f5, 2, FqElem(f5, 3)) == 2  # 3 = 4 + 4
    assert per_element_length(f5, 2, FqElem(f5, 0)) == 0
    f81 = cyclotomic_field(3, 5)
    assert per_element_length(f81, 16, FqElem(f81, 3)) == 1  # xi
    f4 = cyclotomic_field(2, 3)
    with pytest.raises(ValueError):
        per_element_length(f4, 3, FqElem(f4, 1))


def test_per_element_length_rejects_foreign_elements():
    f81 = cyclotomic_field(3, 5)
    other81 = FqField(3, find_irreducible(3, 4))  # same q, another modulus
    with pytest.raises(ValueError, match="different field"):
        per_element_length(f81, 16, FqElem(other81, 3))
    f625 = FqField(5, find_irreducible(5, 4))
    with pytest.raises(ValueError, match="different field"):
        per_element_length(f81, 16, FqElem(f625, 5))
    # an equal field built separately is the same field
    assert per_element_length(f81, 16, FqElem(cyclotomic_field(3, 5), 3)) == 1


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
    assert elements == [FqElem(f, t) for t in range(f.q)]
    sample = range(f.q) if f.q <= 2401 else random.Random(17).sample(range(f.q), 400)
    for t in sample:
        assert elements[t].coeffs == tuple(t // p**i % p for i in range(n))


def test_separately_built_fields_are_equal():
    f, g = cyclotomic_field(3, 5), cyclotomic_field(3, 5)
    assert waring_number(f, 16) == 4  # f holds a level table, g none
    assert f is not g and f == g and hash(f) == hash(g) and repr(f) == repr(g)
    assert repr(f) == "FqField(p=3, modulus=(1, 1, 1, 1, 1))"
    assert f == FqField(3, (1, 1, 1, 1, 1))  # the modulus fixes the field


def test_the_field_hash_matches_across_routes_and_copies():
    f = cyclotomic_field(3, 5)
    other_route = FqField(3, (1,) * 5)
    assert other_route == f and hash(other_route) == hash(f) == hash((3, (1,) * 5))
    assert waring_number(f, 16) == 4  # a kept table takes no part in eq or hash
    for c in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
        assert c == f and hash(c) == hash(f) == hash(other_route)
        assert {other_route: "found"}[c] == "found"
    plain = FqField(3, (1, 0, 1))  # x^2 + 1: not a cyclotomic modulus
    assert plain != f and plain.cyclotomic_order is None and hash(plain) == hash((3, (1, 0, 1)))
    # a field built and pickled in another process hashes as one built here
    script = "import pickle, sys; from leewaring import FqField; sys.stdout.buffer.write(pickle.dumps(FqField(3, (1, 0, 1))))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ffwaring.__file__)))
    elsewhere = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, check=True, timeout=60)
    for c in (pickle.loads(elsewhere.stdout), pickle.loads(pickle.dumps(plain)), copy.deepcopy(plain), copy.copy(plain)):
        assert c == plain and hash(c) == hash(plain)
        assert {FqField(3, (1, 0, 1)): "found"}[c] == "found"


def test_powers_tables_and_reads_build_no_element(monkeypatch):
    def refuse(*args):
        raise AssertionError("an FqElem was built")

    read = cyclotomic_field(3, 5)
    a = FqElem(read, 3)  # the element to read is built before the patch
    monkeypatch.setattr(ffwaring, "FqElem", refuse)
    monkeypatch.setattr(ffwaring, "_elements", refuse)
    f = cyclotomic_field(3, 5)  # fresh: no kept table
    assert len(kth_power_set(f, 16)) == 6 and kth_power_set(f, 3) == range(f.q)
    assert waring_number(f, 16) == 4 and waring_number(f, 1) == 1
    assert per_element_length(read, 48, a) == 1


def test_a_kept_table_still_gets_every_check():
    f = cyclotomic_field(3, 5)
    a = FqElem(f, 3)
    for _ in range(2):  # the first round computes the table, the second reads it
        for k in (16, 48):  # gcd(48, 80) = 16
            assert waring_number(f, k) == waring_number(f, gcd(k, f.q - 1)) == 4
            assert per_element_length(f, k, a) == 1
            with pytest.raises(BudgetError):
                waring_number(f, k, budget=80)
            with pytest.raises(BudgetError):
                per_element_length(f, k, a, budget=80)
        # 16.0 hashes like the kept key 16, yet still raises
        for bad, err in ((0, ValueError), (-16, ValueError), (2.0, TypeError), (16.0, TypeError)):
            with pytest.raises(err):
                waring_number(f, bad)
            with pytest.raises(err):
                per_element_length(f, bad, a)
            with pytest.raises(err):
                per_element_length(f, bad, a, budget=80)  # k before the budget
        for k in (16, 16.0, 0):  # the field before k
            with pytest.raises(ValueError, match="different field"):
                per_element_length(f, k, FqElem(FqField(3, find_irreducible(3, 4)), 3))
    f4 = cyclotomic_field(2, 3)
    with pytest.raises(ValueError, match="do not span"):
        per_element_length(f4, 3, FqElem(f4, 1))
    with pytest.raises(BudgetError):  # the budget before g is None, with the table kept
        per_element_length(f4, 3, FqElem(f4, 1), budget=3)


@pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (5, 3), (7, 2), (43, 2), (13, 1), (257, 1)])
def test_the_kept_table_read_matches_the_level_array(p, n):
    assert (p, n) in BFS_GRID
    f = FqField(p, find_irreducible(p, n))
    divisors = [k for k in range(1, f.q) if (f.q - 1) % k == 0]
    spanned = []
    for k in divisors:
        levels, g = _sumset_levels(f, gcd(k, f.q - 1))
        if g is None:
            with pytest.raises(ValueError, match="do not span"):
                per_element_length(f, k, FqElem(f, 1))
            continue
        spanned.append(k)
        for a in f.elements():
            length = per_element_length(f, k, a)
            assert type(length) is int and length == levels[a.rank]
        kept = f._tables[k][0]  # bytes, one per rank, or 2-byte entries past level 254
        assert type(kept) is (bytes if g < 255 else array) and kept == levels and len(kept) == f.q
    assert spanned
    for c in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert c == f and c._tables.keys() == f._tables.keys()
        for k in spanned:
            assert [per_element_length(c, k, a) for a in c.elements()] == [
                per_element_length(f, k, a) for a in f.elements()
            ]


def _peak_of_waring_number(f, k):
    tracemalloc.start()
    try:
        return waring_number(f, k), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Sorting a first-power rank set in numpy peaked here at 5.00 MiB, and in
# Python (a second q-sized set, then a list) at 7.99 MiB (numpy 2.4, Python
# 3.11); the bound sits midway.  The k = 1 table needs no powers: 0.13 MiB as
# bytes, 0.25 MiB as an int32 array.
def test_first_powers_of_F_2_16_are_sorted_without_a_second_set():
    g, peak = _peak_of_waring_number(FqField(2, find_irreducible(2, 16)), 1)
    assert g == 1 and peak < 6.5 * 2**20, peak


# Bounds between earlier numpy builds and their regressions (numpy 2.4,
# Python 3.11), kept as they were.  Squares of F_65537 peaked at 2.91 MiB with
# the powers as one sorted int64 array; a rank set sorted in numpy peaked at
# 4.25 MiB, sorted in Python 5.00 MiB, kept alive through the BFS 5.90 MiB.
# Cubes of F_{2^16} (d = 21 845) peaked at 3.04 MiB from d digit rows filled
# in place, and at 8.04 MiB from rows grown by concatenation.  First powers of
# F_{3^12}: an int32 table is 2.0 MiB, building the set of all q ranks 40 MiB.
# With the powers as one sorted list of ints, the bitset BFS and bytes tables,
# squares of F_65537, cubes of F_{2^16} and first powers of F_{3^12} peak at
# 1.51, 0.94 and 1.01 MiB (Python 3.11).
@pytest.mark.parametrize("p,n,k,g,bound", [(65537, 1, 2, 2, 4.6), (3, 12, 1, 1, 4), (2, 16, 3, 2, 5.5)])
def test_tables_peak_under_their_memory_bounds(p, n, k, g, bound):
    got, peak = _peak_of_waring_number(FqField(p, find_irreducible(p, n)), k)
    assert got == g and peak < bound * 2**20, peak


# d = 2: 32 760 sparse levels of two ranks each, into a 2-byte table of
# 128 KiB.  Kept as (level, ranks) lists until the end, they peaked at
# 7.98 MiB; entered in the table as they are found, 0.21 MiB (Python 3.11).
def test_a_thin_run_peaks_near_its_table():
    g, peak = _peak_of_waring_number(FqField(65521, (0, 1)), 32760)
    assert g == 32760 and peak < 2**20, peak


# The tuple-BFS grid test checks the k = 1 table on every reference field
def test_first_power_table_builds_no_power_set(monkeypatch):
    monkeypatch.setattr(ffwaring, "kth_power_set", None)
    for p, n in [(2, 1), (13, 1), (2, 4), (3, 3), (7, 3)]:
        f = FqField(p, find_irreducible(p, n))
        levels, g = _sumset_levels(f, 1)
        assert (g, list(levels), type(levels)) == (1, [0] + [1] * (f.q - 1), bytes)
        assert waring_number(f, f.q) == 1  # gcd(q, q-1) = 1


def test_level_tables_live_with_their_field():
    # x^3 + 2x + 2: no other test builds this field, so a cache keyed by
    # equal fields would have to hold this very object
    f = FqField(3, (2, 2, 0, 1))
    assert waring_number(f, 2) == 2
    assert per_element_length(f, 6, FqElem(f, 3)) == per_element_length(f, 6, FqElem(f, 3))  # gcd(6, 26) = 2
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("p,n", BFS_GRID)
def test_rank_bfs_matches_tuple_bfs(p, n):
    f = FqField(p, find_irreducible(p, n))
    walk = _primitive_walk(f)
    for k_red in range(1, f.q):
        if (f.q - 1) % k_red:
            continue
        powers = [(0,) * n] + walk[::k_red]  # 0 and the subgroup of order (q-1)/k_red
        ranks = kth_power_set(f, k_red)
        assert ranks[0] == 0 and len(ranks) == 1 + (f.q - 1) // k_red and list(ranks) == sorted(set(ranks))
        assert set(ranks) == {_elem(f, c).rank for c in powers}
        ref, ref_g = _reference_levels(f, powers)
        levels, g = _sumset_levels(f, k_red)
        assert g == ref_g == waring_number(f, k_red), (p, n, k_red)
        # bytes while every level fits below 255; ranks never reached hold the largest entry
        assert type(levels) is bytes if g is None or g < 255 else levels.typecode == "H"
        want = [255 if type(levels) is bytes else 65535] * f.q
        for coeffs, level in ref.items():
            want[_elem(f, coeffs).rank] = level
        assert list(levels) == want, (p, n, k_red)


def _multiplicative_order(p, d):
    s, x = 1, p % d
    while x != 1 % d:
        s, x = s + 1, x * p % d
    return s


# The tuple-BFS grid in tier-1, the prime fields between 500 and 2000 (about
# 1.7 s more) under slow: every field with q <= 2000.
@pytest.mark.parametrize(
    "p,n",
    BFS_GRID + [pytest.param(p, 1, marks=pytest.mark.slow) for p in range(501, 2000) if _is_prime(p)],
)
def test_level_tables_keep_the_invariants_of_the_field(p, n):
    """What every level table must satisfy, with no reference BFS: for each
    d | q-1, with k = (q-1)/d, so that the powers are 0 and mu_d,

    - level 0 is rank 0 alone, and the levels 0..g are all there and sum to q;
    - every other level, and the ranks never reached, come in whole cosets of
      mu_d, so their sizes are multiples of d;
    - levels are invariant under Frobenius, a -> a^p;
    - the powers span the subfield F_{p^s}, s the order of p mod d, so g is
      None exactly when d | p^s - 1 for a proper divisor s of n;
    - on prime fields, g(k, p) <= gcd(k, p-1).
    """
    f = FqField(p, find_irreducible(p, n))
    q = f.q
    frobenius = [_elem(f, _pow(f, a.coeffs, p)).rank for a in f.elements()]
    for d in (d for d in range(1, q) if (q - 1) % d == 0):
        k = (q - 1) // d
        levels, g = _sumset_levels(f, k)
        sizes = collections.Counter(levels)
        unreached = 0 if g is not None else sizes.pop(max(sizes))
        assert levels[0] == 0 and sizes[0] == 1, d
        assert sorted(sizes) == list(range(max(sizes) + 1)) and sum(sizes.values()) + unreached == q, d
        assert g is None or max(sizes) == g, d
        assert all(size % d == 0 for level, size in sizes.items() if level) and unreached % d == 0, d
        assert all(levels[frobenius[t]] == levels[t] for t in range(q)), d
        assert q - unreached == p ** _multiplicative_order(p, d), d
        assert (g is None) == any((p**s - 1) % d == 0 for s in range(1, n) if n % s == 0), d
        if n == 1:
            assert g <= gcd(k, p - 1), d


def test_each_level_takes_the_step_of_the_cost_rule(monkeypatch):
    """For each d | q-1 with k >= 2 on every BFS_GRID field, the levels that run
    the sparse step are those that the cost rule picks: level j is sparse iff
    s d 8 <= min(s, d) (96 + q/64), with s the size of level j-1 read off the
    table (s = 1 at j = 1).  When g is None the empty last level L+1 runs too.
    The grid holds a dense level 1 and switches both ways between the steps,
    so that the bitmap of the ranks not yet seen is handed over both ways."""
    sparse_steps = []
    sparse_step = ffwaring._sparse_step

    def recorded(frontier, powers, bitmap, table, depth, place, p):
        sparse_steps.append(depth)
        return sparse_step(frontier, powers, bitmap, table, depth, place, p)

    monkeypatch.setattr(ffwaring, "_sparse_step", recorded)
    kinds = set()
    for p, n in BFS_GRID:
        f = FqField(p, find_irreducible(p, n))
        q = f.q
        for d in (d for d in range(1, q - 1) if (q - 1) % d == 0):
            sparse_steps.clear()
            levels, g = _sumset_levels(f, (q - 1) // d)
            sizes = collections.Counter(levels)
            if g is None:
                sizes.pop(max(sizes))
            last = max(sizes) + (g is None)
            rule = [sizes[j - 1] * d * 8 <= min(sizes[j - 1], d) * (96 + (q >> 6)) for j in range(1, last + 1)]
            assert sparse_steps == [j for j, sparse in enumerate(rule, 1) if sparse], (p, n, d)
            if not rule[0]:
                kinds.add("dense level 1")
            kinds.update((a, b) for a, b in zip(rule, rule[1:]) if a != b)
    assert kinds == {"dense level 1", (True, False), (False, True)}


def test_to_coset_vector_examples():
    f4 = cyclotomic_field(2, 3)
    assert to_coset_vector(FqElem(f4, 0)) == ModVec(2, (0, 0, 0))
    assert to_coset_vector(FqElem(f4, 2)) == ModVec(2, (0, 1, 0))  # xi, rank p
    f16 = cyclotomic_field(2, 5)
    xi = FqElem(f16, 2).coeffs
    assert to_coset_vector(_elem(f16, map(sum, zip(xi, _pow(f16, xi, 3))))) == ModVec(2, (0, 1, 0, 1, 0))
    assert to_coset_vector(_elem(f16, _pow(f16, xi, 4))) == ModVec(2, (1, 1, 1, 1, 0))  # xi^4 = -(1 + ... + xi^3)
    f4 = FqField(2, find_irreducible(2, 2))  # 1 + x + x^2: cyclotomic by its modulus
    assert f4 == cyclotomic_field(2, 3) and to_coset_vector(FqElem(f4, 2)) == ModVec(2, (0, 1, 0))
    plain = FqField(2, (1, 1, 0, 1))  # 1 + x + x^3
    with pytest.raises(ValueError, match="cyclotomic-basis"):
        to_coset_vector(FqElem(plain, 1))


# t = p-1 makes the coordinate weight Hamming's: g((q-1)/((p-1)r), q) = r - ceil(r/p)
# at every cyclotomic setting with p <= 13 and q <= 2*10^5
@pytest.mark.parametrize("p,r", [(2, 3), (2, 5), (2, 11), (2, 13), (3, 5), (3, 7), (5, 3), (5, 7), (7, 5), (11, 3), (13, 5)])
def test_hamming_weight_closed_form(p, r):
    f = FqField(p, (1,) * r)
    assert waring_number(f, (f.q - 1) // ((p - 1) * r)) == r - (r + p - 1) // p


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


# F_{3^16}, q = 43 046 721, at budget 10^9: one relayed child process per
# theorem, so ru_maxrss (KiB on Linux) is the theorem's own peak.  Level arrays built in
# numpy peaked at 821 MB (theorem 1) and 1 179 MB (theorem 2); the bitset BFS
# at about 210 MB for each, and at 242 and 229 MB with its byte table held
# through the BFS.  The bounds sit midway between numpy and 210 MB.
@pytest.mark.slow
@pytest.mark.parametrize("thm,want,bound_mb", [(1, 16, 515), (2, 11, 695)])
def test_verify_theorems_at_3_17(thm, want, bound_mb):
    script = (
        "import resource\nfrom leewaring import ffwaring\n"
        f"rep = ffwaring.verify_theorem{thm}(3, 17, 10**9)\n"
        "print(rep.computed_g, rep.formula_g, rep.match, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    )
    g, formula, match, peak_kib = _without_numpy(script, relay=True).split()
    assert int(g) == want == int(formula) and match == "True"
    assert int(peak_kib) < bound_mb * 1024, int(peak_kib) // 1024


# q = 37^4 = 1 874 161, just under the default budget: opt-in (pytest -m slow).
@pytest.mark.slow
@pytest.mark.parametrize("thm,want", [(1, 72), (2, 44)])
def test_verify_theorems_at_37_5(thm, want):
    rep = (verify_theorem1 if thm == 1 else verify_theorem2)(37, 5)
    assert rep.q == 37**4
    assert rep.computed_g == want == rep.formula_g and rep.match


# A long thin run within the default budget: d = 2 in F_1999993, one level
# per pair of ranks, 999 996 levels into a 4-byte table of 8 MB.  With the sparse
# levels kept as (level, ranks) lists to the end, it peaked at 284 MB; entered
# in the table as they are found, at 32 MB.
@pytest.mark.slow
def test_a_long_thin_run_peaks_near_its_table():
    script = (
        "import resource\nfrom leewaring import ffwaring\n"
        "g = ffwaring.waring_number(ffwaring.FqField(1999993, (0, 1)), 999996)\n"
        "print(g, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    )
    g, peak_kib = _without_numpy(script, relay=True).split()
    assert int(g) == 999996
    assert int(peak_kib) < 64 * 1024, int(peak_kib) // 1024


@pytest.mark.slow
def test_every_per_element_length_of_F_37_4_peaks_at_72():
    f = cyclotomic_field(37, 5)
    k = (f.q - 1) // 5
    assert max(per_element_length(f, k, a) for a in f.elements()) == 72
    for t in random.Random(37).sample(range(f.q), 300):
        a = FqElem(f, t)
        assert per_element_length(f, k, a) == _min_coset_norm(to_coset_vector(a), NormKind.ONE)
