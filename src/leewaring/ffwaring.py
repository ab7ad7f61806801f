"""Exact Waring numbers of small finite fields by breadth-first sumsets.

F_{p^n} is represented concretely as Z/pZ[x] modulo a monic irreducible
polynomial.  An element is held as its rank: the base-p number whose
digits are its coefficients in the power basis (constant coefficient
first), so enumeration and table reads never build the digits, and
products run on the digit tuples.  For primes r with p a primitive root
modulo r, the polynomial 1 + x + ... + x^{r-1} is irreducible over Z/pZ
and the class xi of x is a primitive r-th root of unity; on the basis
1, xi, ..., xi^{r-2} the only relation is that all r powers of xi sum to
0, which identifies coefficient vectors up to the all-ones line and ties
minimal power-sum representations to minimal-in-coset residue vectors.

The nonzero k-th powers are the cyclic subgroup of F* of order
d = (q-1)/gcd(k, q-1), listed as the powers of one element of order d.
The sumset BFS works on element ranks: adding a power adds its digits
mod p to the digits of a whole frontier at once, and the result is a
numpy level array indexed by rank.  Each FqField holds the level arrays
it has computed, one per reduced exponent, so a table lives exactly as
long as its field and repeated reads cost a dict lookup.

For q = p^(r-1) the reduction to residue vectors makes the theorems' Waring
numbers the coset maxima of bounds: g((q-1)/r, q) = g_bound(p, r) and
g((q-1)/(2r), q) = h_bound(p, r), which verify_theorem1/2 check by BFS.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import product, repeat
from math import gcd, isqrt
from operator import add

from .bounds import g_bound, h_bound
from .errors import BudgetError, budgeted_power
from .modring import ModVec

DEFAULT_FIELD_BUDGET = 2 * 10**6


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % f for f in range(2, isqrt(n) + 1))


def _require_budget(q: int, budget: int) -> None:
    if q > budget:
        raise BudgetError(q, budget, "field size")


def _prime_divisors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + ([n] if n > 1 else [])


def _poly_rem(num: tuple[int, ...], den: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of num modulo a monic den, coefficients mod p, constant first."""
    out = [c % p for c in num]
    dn = len(den) - 1
    for i in range(len(out) - 1, dn - 1, -1):
        t = out[i]
        if t:
            for j in range(dn + 1):
                out[i - dn + j] = (out[i - dn + j] - t * den[j]) % p
    return tuple(out[:dn])


def _monic(p: int, d: int):
    """Monic degree-d polynomials over Z/pZ (constant first), in elements()' rank order."""
    for digits in product(range(p), repeat=d):
        yield digits[::-1] + (1,)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    n = len(poly) - 1
    if n < 1 or poly[-1] != 1:
        return False
    return all(any(_poly_rem(poly, den, p)) for d in range(1, n // 2 + 1) for den in _monic(p, d))


def find_irreducible(p: int, n: int, budget: int = DEFAULT_FIELD_BUDGET) -> tuple[int, ...]:
    """Smallest monic irreducible of degree n over Z/pZ, constant-first coeffs.

    Free coefficients are scanned in ascending base-p order with the
    constant term as the least significant digit, so the result is
    deterministic (x for n = 1, x^2 + 1 for p = 3, x^2 + 2 for p = 5, ...).
    Since q >= p, a p over the budget is refused before its primality test.
    """
    _require_budget(p, budget)
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    _require_budget(budgeted_power(p, n, budget, "field size"), budget)
    return next(poly for poly in _monic(p, n) if _is_irreducible(poly, p))


@dataclass(frozen=True)
class FqField:
    """F_{p^n} as Z/pZ[x] modulo a monic irreducible (constant-first coeffs).

    cyclotomic_order is set to r when the modulus is 1 + x + ... + x^{r-1},
    in which case gen() is a primitive r-th root of unity.  The size q,
    the place values p^i of the rank digits and the level tables follow
    from p and the modulus, so they take no part in eq, hash or repr.
    """

    p: int
    modulus: tuple[int, ...]
    cyclotomic_order: int | None = None
    q: int = field(init=False, repr=False, compare=False)
    _place: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _tables: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        reduced = tuple(c % self.p for c in self.modulus)
        object.__setattr__(self, "modulus", reduced)
        if len(reduced) < 2 or reduced[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        if not _is_irreducible(reduced, self.p):
            raise ValueError(f"modulus {reduced} is reducible over Z/{self.p}Z")
        n = len(reduced) - 1
        object.__setattr__(self, "q", self.p**n)
        object.__setattr__(self, "_place", tuple(self.p**i for i in range(n)))
        object.__setattr__(self, "_tables", {})

    @property
    def n(self) -> int:
        return len(self.modulus) - 1

    def element(self, coeffs) -> FqElem:
        """The element with these coefficients (constant first); the one place digits become a rank."""
        c = tuple(coeffs)
        if len(c) > self.n:
            raise ValueError(f"too many coefficients for degree {self.n}")
        p = self.p
        return FqElem(self, sum(x % p * v for x, v in zip(c, self._place)))

    def zero(self) -> FqElem:
        return FqElem(self, 0)

    def one(self) -> FqElem:
        return FqElem(self, 1)

    def gen(self) -> FqElem:
        """The residue class of x (equals -modulus[0] when n = 1)."""
        if self.n == 1:
            return self.element((-self.modulus[0],))
        return self.element((0, 1))

    def from_rank(self, t: int) -> FqElem:
        """Element with coefficient digits of t in base p (constant first)."""
        if not 0 <= t < self.q:
            raise ValueError(f"rank {t} outside [0, {self.q})")
        return FqElem(self, t)

    def rank(self, a: FqElem) -> int:
        """Inverse of from_rank: the coefficients read as base-p digits."""
        return a.rank

    def elements(self):
        """All q elements, in rank order."""
        return map(FqElem, repeat(self), range(self.q))


def _mul(f: FqField, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product of two coefficient tuples of f, reduced mod its modulus."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _poly_rem(prod, f.modulus, f.p)


def _pow(f: FqField, a: tuple[int, ...], e: int) -> tuple[int, ...]:
    """a^e on coefficient tuples of f, by square-and-multiply."""
    out = (1,) + (0,) * (f.n - 1)
    while e:
        if e & 1:
            out = _mul(f, out, a)
        a, e = _mul(f, a, a), e >> 1
    return out


@dataclass(frozen=True, slots=True)
class FqElem:
    """An element of FqField, held as its rank: the base-p number whose digits
    are its n coefficients in the power basis (constant first), read by coeffs."""

    field: FqField
    rank: int

    @property
    def coeffs(self) -> tuple[int, ...]:
        t, p = self.rank, self.field.p
        return tuple(t // v % p for v in self.field._place)

    def __repr__(self) -> str:
        return f"FqElem(field={self.field!r}, coeffs={self.coeffs!r})"

    def _other(self, other: FqElem) -> FqElem:
        if not isinstance(other, FqElem) or other.field != self.field:
            raise ValueError("elements belong to different fields")
        return other

    def __add__(self, other: FqElem) -> FqElem:
        other = self._other(other)
        return self.field.element(map(add, self.coeffs, other.coeffs))

    def __neg__(self) -> FqElem:
        return self.field.element(-a for a in self.coeffs)

    def __sub__(self, other: FqElem) -> FqElem:
        return self + (-self._other(other))

    def __mul__(self, other: FqElem) -> FqElem:
        other = self._other(other)
        return self.field.element(_mul(self.field, self.coeffs, other.coeffs))

    def __pow__(self, e: int) -> FqElem:
        if e < 0:
            raise ValueError(f"exponent must be nonnegative, got {e}")
        return self.field.element(_pow(self.field, self.coeffs, e))

    def __bool__(self) -> bool:
        return self.rank != 0


def is_primitive_root(p: int, r: int) -> bool:
    """Whether the prime p generates the multiplicative group mod the prime r."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not _is_prime(r):
        raise ValueError(f"{r} is not prime")
    if p == r:
        raise ValueError("p and r must be distinct primes")
    order, t = 1, p % r
    while t != 1:
        t = t * p % r
        order += 1
    return order == r - 1


def _require_primitive_root(p: int, r: int) -> None:
    """Raise ValueError unless 1 + x + ... + x^{r-1} is irreducible mod p."""
    if r < 2:
        raise ValueError(f"order must be a prime >= 2, got {r}")
    if not is_primitive_root(p, r):
        raise ValueError(
            f"1 + x + ... + x^{r - 1} is reducible mod {p}: "
            f"{p} is not a primitive root modulo {r}"
        )


def cyclotomic_field(p: int, r: int) -> FqField:
    """F_{p^(r-1)} on the basis 1, xi, ..., xi^(r-2) with sum(xi^i) = 0.

    Needs p to be a primitive root modulo the prime r (that is exactly when
    1 + x + ... + x^{r-1} is irreducible over Z/pZ); gen() is then a
    primitive r-th root of unity.
    """
    _require_primitive_root(p, r)
    return FqField(p, (1,) * r, cyclotomic_order=r)


def kth_power_set(f: FqField, k: int) -> set[FqElem]:
    """{x^k : x in F}: 0 plus the cyclic subgroup of F* of index gcd(k, q-1).

    That subgroup has order d = (q-1)/gcd(k, q-1) and consists of the
    gcd(k, q-1)-th powers.  The first such power b = a^gcd(k, q-1), in
    rank order of a, with b^(d/l) != 1 for every prime l | d has order
    exactly d, so the set is 0, 1, b, ..., b^(d-1).
    """
    if k < 1:
        raise ValueError(f"power must be positive, got {k}")
    k_red = gcd(k, f.q - 1)
    if k_red == 1:
        return set(f.elements())
    d = (f.q - 1) // k_red
    cofactors = [d // ell for ell in _prime_divisors(d)]
    one = f.one().coeffs
    for t in range(1, f.q):
        b = _pow(f, f.from_rank(t).coeffs, k_red)
        if all(_pow(f, b, c) != one for c in cofactors):
            break
    out = {f.zero()}
    x = one
    for _ in range(d):
        out.add(f.element(x))
        x = _mul(f, x, b)
    return out


def _digits(ranks, p: int, n: int) -> list:
    """Base-p digits of each rank, one array per position (constant first)."""
    import numpy as np

    dtype = np.uint8 if p <= 256 else np.int64
    return [(ranks // p**i % p).astype(dtype) for i in range(n)]


def _sumset_levels(f: FqField, k_red: int):
    """BFS levels of the sumset growth A_0 = {0}, A_{j+1} = A_j + powers.

    Returns (int32 level per rank, least g with A_g = F) with g None when
    the powers only generate a proper additive subgroup, and level -1 on
    the ranks never reached.  The array is read-only; _field_levels keeps
    it on the field.

    A level translates the longer of frontier and powers by each entry s
    of the shorter.  Digit i of u + s wraps exactly when digit i of u is
    at least p - s_i, so the rank of the sum is the integer u + s less
    p^(i+1) for each wrapping digit.  A translate has no repeats, and
    ranks levelled before are dropped from it, so working memory stays
    linear in the frontier and the powers (digits are kept as bytes
    where p allows).
    """
    import numpy as np

    p, n, q = f.p, f.n, f.q
    powers = np.array(sorted(a.rank for a in kth_power_set(f, k_red) if a), dtype=np.int64)
    power_digits = _digits(powers, p, n)
    levels = np.full(q, -1, dtype=np.int32)
    levels[0] = 0
    frontier = np.zeros(1, dtype=np.int64)
    seen, depth = 1, 0
    while frontier.size and seen < q:
        depth += 1
        if frontier.size <= powers.size:
            shifts, base, base_digits = frontier.tolist(), powers, power_digits
        else:
            shifts, base, base_digits = powers.tolist(), frontier, _digits(frontier, p, n)
        fresh = []
        for s in shifts:
            t = base + s
            for i, digits in enumerate(base_digits):
                si = s // p**i % p
                if si:
                    np.subtract(t, p ** (i + 1), out=t, where=digits >= p - si)
            t = t[levels[t] < 0]
            levels[t] = depth
            fresh.append(t)
            seen += t.size
            if seen == q:
                break
        frontier = np.concatenate(fresh)
    levels.flags.writeable = False
    return levels, (depth if seen == q else None)


def _field_levels(f: FqField, k_red: int):
    """_sumset_levels(f, k_red), computed once per field and kept on it."""
    table = f._tables.get(k_red)
    if table is None:
        table = f._tables[k_red] = _sumset_levels(f, k_red)
    return table


def waring_number(f: FqField, k: int, budget: int = DEFAULT_FIELD_BUDGET) -> int | None:
    """Least g such that every element of F is a sum of g k-th powers.

    Returns None when the k-th powers generate a proper additive subgroup
    (e.g. a subfield), so that no such g exists.
    """
    if k < 1:
        raise ValueError(f"power must be positive, got {k}")
    _require_budget(f.q, budget)
    return _field_levels(f, gcd(k, f.q - 1))[1]


def per_element_length(f: FqField, k: int, a: FqElem, budget: int = DEFAULT_FIELD_BUDGET) -> int:
    """Least number of k-th powers summing to a (0 for a = 0, empty sum)."""
    if k < 1:
        raise ValueError(f"power must be positive, got {k}")
    if a.field is not f and a.field != f:
        raise ValueError("element belongs to a different field")
    q = f.q
    _require_budget(q, budget)
    levels, g = _field_levels(f, gcd(k, q - 1))
    if g is None:
        raise ValueError("k-th powers do not span the field additively")
    return levels.item(a.rank)


def to_coset_vector(a: FqElem) -> ModVec:
    """Coefficients of a on the cyclotomic basis, zero-padded to length r.

    The all-ones relation sum(xi^i) = 0 means this vector is well defined
    only up to the all-ones line, matching the coset picture over Z/pZ.
    """
    r = a.field.cyclotomic_order
    if r is None:
        raise ValueError("element does not live in a cyclotomic-basis field")
    return ModVec(a.field.p, a.coeffs + (0,))


@dataclass(frozen=True)
class WaringReport:
    """One exact Waring computation next to the closed form predicting it.

    The fields are in output order.  formula_g is None for generic runs with
    no applicable closed form, in which case match is None as well;
    computed_g is None when the k-th powers do not additively span the field.
    """

    label: str
    p: int
    n: int
    q: int
    r: int | None
    k: int
    k_reduced: int
    computed_g: int | None
    formula_g: int | None
    match: bool | None

    def to_dict(self) -> dict:
        return asdict(self)


def waring_report(
    f: FqField, k: int, formula: int | None = None, r: int | None = None,
    label: str = "g(k, q)", budget: int = DEFAULT_FIELD_BUDGET,
) -> WaringReport:
    """waring_number(f, k) beside the closed form formula (None when none applies).

    Every report is built here, with k_reduced = gcd(k, q-1).
    """
    computed = waring_number(f, k, budget)
    match = None if formula is None else computed == formula
    return WaringReport(label, f.p, f.n, f.q, r, k, gcd(k, f.q - 1), computed, formula, match)


def _budgeted_cyclotomic_field(p: int, r: int, budget: int) -> FqField:
    """cyclotomic_field(p, r), refused before it is built when q exceeds the budget.

    Building the field runs a trial-division irreducibility test that grows
    with q, so the hypothesis is checked first and the budget next, except
    that a p over the budget is refused before its primality test.
    """
    _require_budget(p, budget)
    _require_primitive_root(p, r)
    _require_budget(budgeted_power(p, r - 1, budget, "field size"), budget)
    return cyclotomic_field(p, r)


def verify_theorem1(p: int, r: int, budget: int = DEFAULT_FIELD_BUDGET) -> WaringReport:
    """Check g((q-1)/r, q) = g_bound(p, r) for q = p^(r-1) by sumset BFS.

    Needs p, r prime with p a primitive root modulo r.  Then gcd(p, r) = 1
    and the closed form is (p-1)(r-1)/2.
    """
    f = _budgeted_cyclotomic_field(p, r, budget)
    k = (f.q - 1) // r
    return waring_report(f, k, g_bound(p, r), r, "g((q-1)/r, q)", budget)


def verify_theorem2(p: int, r: int, budget: int = DEFAULT_FIELD_BUDGET) -> WaringReport:
    """Check g((q-1)/(2r), q) = h_bound(p, r) for q = p^(r-1) by sumset BFS.

    Needs p, r odd primes with p a primitive root modulo r.  For such
    distinct odd p, r the closed form is floor(pr/4 - p/(4r)) when r < p
    (h's ODD_R_LE case) and floor(pr/4 - r/(4p)) otherwise (ODD_RGT).
    """
    if p == 2 or r == 2:
        raise ValueError("p and r must be odd primes")
    f = _budgeted_cyclotomic_field(p, r, budget)
    k = (f.q - 1) // (2 * r)
    return waring_report(f, k, h_bound(p, r), r, "g((q-1)/(2r), q)", budget)


def verify_remarks(p: int, budget: int = DEFAULT_FIELD_BUDGET) -> list[WaringReport]:
    """The r = 1 and r = 2 companions: g(p-1, p), g((p-1)/2, p), g((p^2-1)/4, p^2).

    The first always equals p - 1.  The second (odd p only, since k must be
    positive) equals (p-1)/2; note that for p = 3 the exponent is k = 1.
    The third applies when p = 3 mod 4 and equals p - 1, computed in
    F_{p^2} built from the smallest irreducible quadratic.
    """
    _require_budget(p, budget)
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    prime_field = FqField(p, find_irreducible(p, 1, budget))
    k1 = p - 1 if p > 2 else 1
    reports = [waring_report(prime_field, k1, p - 1, 1, "g(p-1, p)", budget)]
    if p > 2:
        k2 = (p - 1) // 2
        reports.append(waring_report(prime_field, k2, (p - 1) // 2, 1, "g((p-1)/2, p)", budget))
    if p % 4 == 3:
        square_field = FqField(p, find_irreducible(p, 2, budget))
        k3 = (p * p - 1) // 4
        reports.append(waring_report(square_field, k3, p - 1, 2, "g((p^2-1)/4, p^2)", budget))
    return reports
