import math
import random
from fractions import Fraction

import pytest

from leewaring import BoundCase, band_c, bound_case, g_bound, h_bound


def h_reference(m: int, r: int) -> int:
    """Floor formulas evaluated with exact rationals, as an independent check."""
    mr4 = Fraction(m * r, 4)
    if m % 2 == 0 and r % 2 == 0:
        return int(mr4)
    if m % 2 == 0 and r % 2 == 1 and r > m:
        return math.floor(mr4 - Fraction(1, 2))
    if m % 2 == 1 and r > m:
        return math.floor(mr4 - Fraction(r, 4 * m))
    if m % 2 == 1 and r % 2 == 0 and r < m:
        return math.floor(mr4 - Fraction(1, 2))
    return math.floor(mr4 - Fraction(m, 4 * r))


@pytest.mark.parametrize("m,r,want", [(3, 3, 3), (1, 5, 0), (4, 2, 2)])
def test_g_examples(m, r, want):
    assert g_bound(m, r) == want


@pytest.mark.parametrize("m,r,want", [(4, 2, 2), (3, 3, 2), (4, 3, 2)])
def test_h_examples(m, r, want):
    assert h_bound(m, r) == want


@pytest.mark.parametrize("m,r,want", [(6, 3, 1), (8, 3, 2), (12, 5, 2)])
def test_band_c_examples(m, r, want):
    assert band_c(m, r) == want


@pytest.mark.parametrize("m,r", [(5, 3), (4, 4), (6, 13)])
def test_band_c_rejects_bad_inputs(m, r):
    with pytest.raises(ValueError):
        band_c(m, r)


@pytest.mark.parametrize("m,r,want", [(2, 5, 2), (3, 3, 2), (2, 4, 2), (1, 9, 0)])
def test_covering_radius_examples(m, r, want):
    # the Lee covering radius of the line (Z/mZ)e is h_bound, and at m = 2 also g_bound
    assert h_bound(m, r) == want
    for a in range(1, 65):
        assert h_bound(2, a) == g_bound(2, a), a


def test_bound_case_covers_all_branches():
    seen = {
        bound_case(4, 6): (4, 6),    # EVEN_EVEN
        bound_case(4, 7): (4, 7),    # EVEN_ODD_RGT
        bound_case(5, 8): (5, 8),    # ODD_RGT
        bound_case(7, 4): (7, 4),    # ODD_EVEN_RLT
        bound_case(6, 5): (6, 5),    # ODD_R_LE
    }
    assert set(seen) == set(BoundCase)


def test_h_matches_rational_reference():
    for m in range(1, 41):
        for r in range(1, 41):
            assert h_bound(m, r) == h_reference(m, r), (m, r)


def test_g_is_always_integral():
    for m in range(1, 41):
        for r in range(1, 41):
            assert (m * r - m - r + math.gcd(m, r)) % 2 == 0


def test_m2_norms_coincide():
    for r in range(1, 200):
        assert g_bound(2, r) == h_bound(2, r)


def test_equivalent_floors_for_even_m_odd_r_near_m():
    # for even m, odd r with m/2 <= r <= 2m, three floor formulas agree
    for m in range(2, 41, 2):
        for r in range(1, 2 * m + 1, 2):
            if r < (m + 1) // 2:
                continue
            a = (m * r - 2) // 4
            b = r * (m * m - 1) // (4 * m)
            c = m * (r * r - 1) // (4 * r)
            assert a == b == c == h_bound(m, r), (m, r)
            if m % 4 == 0:
                assert a == m * r // 4 - 1
            else:
                assert 4 * a == m * r - 2


def test_half_modulus_halves_h_when_m_is_2_mod_4():
    # the halving identity needs r <= m/2 (e.g. h(3,7) = 4 but h(6,7)//2 = 5,
    # both oracle-confirmed); the parity rule holds for all odd r < 2m
    for m in range(2, 42, 4):
        for r in range(1, m // 2 + 1, 2):
            assert h_bound(m // 2, r) == h_bound(m, r) // 2, (m, r)
        for r in range(1, min(2 * m, 26), 2):
            q, rem = divmod(m // 2, r)
            even = rem == 0 or rem % 4 == 2 or rem % 4 == r % 4
            assert (h_bound(m, r) % 2 == 0) == even, (m, r)


def test_band_c_closed_form_and_parity():
    rng = random.Random(6)
    for _ in range(300):
        m = 2 * rng.randrange(1, 40)
        r = rng.randrange(1, 2 * m + 1, 2)
        q, rem = divmod(m // 2, r)
        want = q if rem == 0 else (q + 1 if rem % 2 == 1 else q + 2)
        c = band_c(m, r)
        assert c == want, (m, r)
        assert c % 2 == (m // 2) % 2


def test_h_gains_one_weight_sum_per_appended_cycle():
    for m in range(1, 21):
        gain = m * m // 4 if m % 2 == 0 else (m * m - 1) // 4
        for r in range(1, 30):
            if r >= m or (m % 2 == 1 and r % 2 == 0):
                assert h_bound(m, r + m) == h_bound(m, r) + gain, (m, r)
