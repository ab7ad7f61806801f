"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  All
assertions are exact integer equalities; randomized checks use fixed
seeds, at least 10^3 cases per property over m <= 20, r <= 12.
"""

import random

from leewaring import (
    FqField,
    NormKind,
    abs_least_residue,
    band_c,
    brute_max_admissible,
    construct_max_lee,
    construct_max_norm1,
    cyclotomic_field,
    extremal_values,
    find_irreducible,
    full_cycle,
    g_bound,
    h_bound,
    is_admissible,
    is_balanced,
    m_sequence,
    norm,
    norm_sequence,
    per_element_length,
    shift,
    to_coset_vector,
    verify_remarks,
    verify_theorem1,
    verify_theorem2,
    waring_number,
)
from vecgen import random_balanced, random_vec

ONE, LEE = NormKind.ONE, NormKind.LEE
CASES = 1000

PRIMES_31 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def _finish(num: int, name: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"\n[acceptance {num}] {name}: {status}")
    assert not failures, f"criterion {num} ({name}): {failures[:5]}"


def test_criterion_1_oracle_formula_equivalence():
    failures = []
    for m in range(1, 9):
        for r in range(1, 8):
            if m ** (r - 1) > 2 * 10**6:
                continue
            got_one = brute_max_admissible(m, r, ONE).max_norm
            if got_one != g_bound(m, r):
                failures.append(("one", m, r, got_one, g_bound(m, r)))
            got_lee = brute_max_admissible(m, r, LEE).max_norm
            if got_lee != h_bound(m, r):
                failures.append(("lee", m, r, got_lee, h_bound(m, r)))
    _finish(1, "oracle equals g/h on the 8x7 grid", failures)


def test_criterion_2_construction_sharpness():
    failures = []
    for m in range(1, 65):
        for r in range(1, 65):
            v = construct_max_norm1(m, r)
            if norm(v, ONE) != g_bound(m, r) or not is_admissible(v, ONE):
                failures.append(("one", m, r))
            w = construct_max_lee(m, r)
            if norm(w, LEE) != h_bound(m, r) or not is_admissible(w, LEE):
                failures.append(("lee", m, r))
    _finish(2, "constructions attain g/h on [1,64]^2", failures)


def test_criterion_3_theorem1_desk_scale():
    expected = {(2, 3): 1, (2, 5): 2, (3, 5): 4, (5, 3): 4, (3, 7): 6}
    failures = []
    for (p, r), want in expected.items():
        rep = verify_theorem1(p, r)
        if rep.computed_g != want or not rep.match:
            failures.append((p, r, rep.computed_g, rep.formula_g, want))
    _finish(3, "first power-sum theorem at desk scale", failures)


def test_criterion_4_theorem2_desk_scale():
    expected = {(3, 5): 3, (5, 3): 3, (3, 7): 4, (5, 7): 8, (7, 5): 8}
    failures = []
    for (p, r), want in expected.items():
        rep = verify_theorem2(p, r)
        if rep.computed_g != want or not rep.match:
            failures.append((p, r, rep.computed_g, rep.formula_g, want))
    _finish(4, "signed power-sum theorem at desk scale", failures)


def test_criterion_5_remarks():
    failures = []
    for p in PRIMES_31:
        fp = FqField(p, find_irreducible(p, 1))
        k1 = p - 1 if p > 2 else 1
        if waring_number(fp, k1) != p - 1:
            failures.append(("g(p-1,p)", p))
        if p > 2 and waring_number(fp, (p - 1) // 2) != (p - 1) // 2:
            failures.append(("g((p-1)/2,p)", p))
        if not all(rep.match for rep in verify_remarks(p)):
            failures.append(("remark reports", p))
    for p in (3, 7, 11):
        fsq = FqField(p, find_irreducible(p, 2))
        if waring_number(fsq, (p * p - 1) // 4) != p - 1:
            failures.append(("g((p^2-1)/4,p^2)", p))
    _finish(5, "r=1 and r=2 companion identities for p <= 31", failures)


def _min_coset_norm(vec, kind):
    return min(norm(shift(vec, x), kind) for x in range(vec.modulus))


def test_criterion_6_correspondence():
    failures = []
    for p, r in [(2, 3), (2, 5), (3, 5), (5, 3)]:
        f = cyclotomic_field(p, r)
        k1 = (f.q - 1) // r
        worst = 0
        for a in f.elements():
            length = per_element_length(f, k1, a)
            worst = max(worst, length)
            if length != _min_coset_norm(to_coset_vector(a), ONE):
                failures.append(("one", p, r, a.coeffs))
        if worst != g_bound(p, r):
            failures.append(("one-max", p, r, worst))
        if p == 2:
            continue
        k2 = (f.q - 1) // (2 * r)
        worst = 0
        for a in f.elements():
            length = per_element_length(f, k2, a)
            worst = max(worst, length)
            if length != _min_coset_norm(to_coset_vector(a), LEE):
                failures.append(("lee", p, r, a.coeffs))
        if worst != h_bound(p, r):
            failures.append(("lee-max", p, r, worst))
    _finish(6, "minimal lengths equal min-over-shift coset norms", failures)


# --- criterion 7: randomized identity suite ------------------------------------

def _weight_total(m):
    return m * m // 4 if m % 2 == 0 else (m * m - 1) // 4


def _check_weight_sum(rng):
    m = rng.randrange(1, 21)
    if sum(abs_least_residue(x, m) for x in range(m)) != _weight_total(m):
        return ("weight sum", m)


def _check_parity_congruence(rng):
    m = 2 * rng.randrange(1, 11)
    r = rng.randrange(1, 13)
    v = random_vec(rng, m, r)
    x = rng.randrange(m)
    if (norm(shift(v, x), LEE) - norm(v, LEE) - r * x) % 2:
        return ("parity congruence", m, r, v.coords, x)


def _check_mirror_even(rng):
    m = 2 * rng.randrange(1, 11)
    x = rng.randrange(m)
    if abs_least_residue(x, m) + abs_least_residue(x + m // 2, m) != m // 2:
        return ("mirror even weights", m, x)
    r = rng.randrange(1, 13)
    v = random_vec(rng, m, r)
    if norm(v, LEE) + norm(shift(v, m // 2), LEE) != m * r // 2:
        return ("mirror even norms", m, r, v.coords)


def _check_mirror_odd(rng):
    m = 2 * rng.randrange(0, 10) + 1
    r = rng.randrange(1, 13)
    v = random_vec(rng, m, r)
    zeros = sum(1 for c in v.coords if c == 0)
    lhs = (
        2 * norm(v, LEE)
        + norm(shift(v, (m - 1) // 2), LEE)
        + norm(shift(v, (m + 1) // 2), LEE)
    )
    if lhs != m * r - zeros:
        return ("mirror odd", m, r, v.coords)


def _check_norm_strip(rng):
    m = rng.randrange(1, 21)
    r = rng.randrange(1, 13)
    v = random_vec(rng, m, r)
    seq = norm_sequence(v, LEE)
    n0 = min(seq)  # admissible representative of the coset
    if any(2 * (nx + n0) > m * r for nx in seq):
        return ("norm strip", m, r, v.coords)


def _check_distinct_steps(rng):
    m = rng.randrange(1, 21)
    r = 2 * rng.randrange(0, 6) + 1
    v = random_vec(rng, m, r)
    seq = norm_sequence(v, LEE)
    equal = sum(1 for x in range(m) if seq[(x + 1) % m] == seq[x])
    if m % 2 == 0 and equal:
        return ("distinct steps even", m, r, v.coords)
    if m % 2 == 1 and equal > len(set(v.coords)):
        return ("distinct steps odd", m, r, v.coords)


def _check_bend_count(rng):
    m = rng.randrange(1, 21)
    r = rng.randrange(1, 13)
    v = random_vec(rng, m, r)
    if len(extremal_values(norm_sequence(v, LEE))) > 2 * len(set(v.coords)):
        return ("bend count", m, r, v.coords)


def _rand_balanced(rng):
    m = 2 * rng.randrange(1, 11)
    r = 2 * rng.randrange(0, 6) + 1
    return random_balanced(rng, m, r)


def _check_unit_slopes(rng):
    v = _rand_balanced(rng)
    seq = norm_sequence(v, LEE)
    m = v.modulus
    if any(abs(seq[(x + 1) % m] - seq[x]) != 1 for x in range(m)):
        return ("unit slopes", v.modulus, v.coords)


def _check_m_diffs(rng):
    v = _rand_balanced(rng)
    m, r = v.modulus, len(v)
    half = m // 2
    if not is_balanced(v):
        return ("generator broke balance", v.coords)
    seq = m_sequence(v)
    c = v.coords
    want = [half - c[r - 1]]
    for i in range(1, r):
        a, b = c[r - i - 1], c[r - i]
        want.append((a - half) - b if i % 2 == 1 else (b - half) - a)
    diffs = [y - x for x, y in zip(seq, seq[1:])]
    if diffs != want:
        return ("step formula", m, v.coords, diffs, want)
    if sum(abs(d) for d in diffs) != half:
        return ("step total", m, v.coords, diffs)


def _check_band(rng):
    v = _rand_balanced(rng)
    m, r = v.modulus, len(v)
    seq = m_sequence(v)
    n0 = norm(v, LEE)
    inside = all(n0 <= x <= m * r // 2 - n0 for x in seq)
    if is_admissible(v, LEE) != inside:
        return ("band criterion", m, v.coords)


def _check_floor_equivalence(rng):
    m = 2 * rng.randrange(1, 11)
    lo = (m // 2) | 1  # smallest odd >= m/2
    r = rng.choice(range(lo, min(2 * m, 12) + 1, 2))
    a = (m * r - 2) // 4
    b = r * (m * m - 1) // (4 * m)
    c = m * (r * r - 1) // (4 * r)
    if not (a == b == c == h_bound(m, r)):
        return ("floor equivalence", m, r, a, b, c)
    if m % 4 == 0 and a != m * r // 4 - 1:
        return ("floor value 0 mod 4", m, r)
    if m % 4 == 2 and 4 * a != m * r - 2:
        return ("floor value 2 mod 4", m, r)


def _check_band_value(rng):
    m = 2 * rng.randrange(1, 11)
    r = rng.choice(range(1, min(2 * m, 12) + 1, 2))
    q, rem = divmod(m // 2, r)
    want = q if rem == 0 else (q + 1 if rem % 2 == 1 else q + 2)
    c = band_c(m, r)
    if c != want or c % 2 != (m // 2) % 2:
        return ("band value", m, r, c, want)


def _check_half_h(rng):
    m = 2 + 4 * rng.randrange(0, 5)  # 2 mod 4, <= 18
    # halving identity holds for r <= m/2 (beyond that it genuinely fails,
    # e.g. h(3,7) = 4 but h(6,7)//2 = 5); the parity rule holds to r < 2m
    r = rng.choice(range(1, m // 2 + 1, 2))
    if h_bound(m // 2, r) != h_bound(m, r) // 2:
        return ("half h", m, r)
    r = rng.choice(range(1, min(2 * m - 1, 12) + 1, 2))
    q, rem = divmod(m // 2, r)
    even = rem == 0 or rem % 4 == 2 or rem % 4 == r % 4
    if (h_bound(m, r) % 2 == 0) != even:
        return ("half h parity", m, r)


def _check_full_cycle(rng):
    m = rng.randrange(1, 21)
    v = full_cycle(m)
    if norm(v, LEE) != _weight_total(m) or not is_admissible(v, LEE):
        return ("full cycle", m)


def _check_reduce_additivity(rng):
    while True:
        m = rng.randrange(1, 21)
        r = rng.randrange(1, 13)
        if r >= m or (m % 2 == 1 and r % 2 == 0):
            break
    if h_bound(m, r + m) != h_bound(m, r) + _weight_total(m):
        return ("cycle additivity", m, r)


def _check_m2_coincide(rng):
    r = rng.randrange(1, 13)
    if g_bound(2, r) != h_bound(2, r):
        return ("m=2 coincidence", r)


IDENTITY_CHECKS = [
    ("weight sum over the ring", _check_weight_sum),
    ("even-modulus parity congruence", _check_parity_congruence),
    ("half-turn mirror identity (even m)", _check_mirror_even),
    ("near-mirror identity (odd m)", _check_mirror_odd),
    ("admissible norm strip", _check_norm_strip),
    ("consecutive-step distinctness (odd r)", _check_distinct_steps),
    ("extrema count vs distinct components", _check_bend_count),
    ("balanced vectors have unit slopes", _check_unit_slopes),
    ("m-sequence steps and their total", _check_m_diffs),
    ("balanced band criterion", _check_band),
    ("equivalent floors near m", _check_floor_equivalence),
    ("band width closed form and parity", _check_band_value),
    ("half modulus halves h (m = 2 mod 4)", _check_half_h),
    ("full cycle is admissible of known norm", _check_full_cycle),
    ("appending a full cycle adds the weight sum", _check_reduce_additivity),
    ("g and h coincide at m = 2", _check_m2_coincide),
]


def test_criterion_7_identity_property_suite():
    failures = []
    for index, (name, check) in enumerate(IDENTITY_CHECKS):
        rng = random.Random(0xBA5E + index)
        for _ in range(CASES):
            bad = check(rng)
            if bad is not None:
                failures.append((name, bad))
                break
    _finish(7, f"structural identity suite ({len(IDENTITY_CHECKS)} properties x {CASES} cases)", failures)
