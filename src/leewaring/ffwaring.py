"""Exact Waring numbers of small finite fields by breadth-first sumsets.

F_{p^n} is represented concretely as Z/pZ[x] modulo a monic irreducible
polynomial.  An element is held as its rank: the base-p number whose
digits are its coefficients in the power basis (constant coefficient
first), so enumeration and table reads never build the digits, and
products run on the digit tuples.  For primes r with p a primitive root
modulo r (FqField's criterion for this modulus, in place of trial
division), the polynomial 1 + x + ... + x^{r-1} is irreducible over Z/pZ
and the class xi of x is a primitive r-th root of unity; on the basis
1, xi, ..., xi^{r-2} the only relation is that all r powers of xi sum to
0, which identifies coefficient vectors up to the all-ones line and ties
minimal power-sum representations to minimal-in-coset residue vectors.

The nonzero k-th powers are the cyclic subgroup of F* of order
d = (q-1)/gcd(k, q-1), listed as the powers of one element of order d.
The scan for that element starts at rank p, outside the prime field, and
each power is the one before times it: an int product in F_p, two table
lookups and a lane-wise sum otherwise.  The ranks come back as one sorted
list, 0 first.  The sumset BFS switches by level between a sparse step on
rank lists and a dense step on bitsets, Python ints with one bit per rank,
in which adding a power rotates axes of the (p,)*n digit cube by shifts
and masks.  Its levels go into one table indexed by rank, the sparse ones
as they are found and the dense ones' bit planes at the end: bytes, or an
array of wider entries past level 254.  Each FqField holds the tables it
has computed, keyed by the exponent as given and by the reduced one, so a
table lives exactly as long as its field and a repeated read costs one
dict lookup.  When gcd(k, q-1) = 1 every element is a k-th power, so the
table is 0 at rank 0 and 1 elsewhere, g = 1, with no power set and no
BFS.  The field side imports no numpy.

Elements are built at the edge only: the powers, the BFS and the table
reads run on ranks, so no FqElem is built on the way to a Waring number.
elements() builds them all lazily, without the frozen dataclass __init__.

For q = p^(r-1) the reduction to residue vectors makes the theorems' Waring
numbers the coset maxima of bounds: g((q-1)/r, q) = g_bound(p, r) and
g((q-1)/(2r), q) = h_bound(p, r), which verify_theorem1/2 check by BFS.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import asdict, dataclass, field
from itertools import chain, product
from math import gcd
from operator import index

from .bounds import g_bound, h_bound
from .errors import budgeted_power, charge, positive
from .modring import ModVec

DEFAULT_FIELD_BUDGET = 2 * 10**6


# Miller-Rabin with the primes up to 41 as bases is exact below this bound;
# a survivor at or above it is refused, as trial division there would not end.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; a survivor at or above 3.3e24 raises ValueError."""
    n = index(n)
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d = (n - 1) >> 1
    s = 1
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"cannot prove {n} prime: Miller-Rabin is exact only below {_MR_EXACT_BELOW}")
    return True


def _prime_divisors(n: int):
    """The prime divisors of n in increasing order, by trial division until the rest is prime."""
    f = 2
    while f * f <= n:
        if n % f == 0:
            yield f
            while n % f == 0:
                n //= f
            if (f + 1) ** 2 <= n < _MR_EXACT_BELOW and _is_prime(n):
                break
        f += 1
    if n > 1:
        yield n


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
    p, budget = index(p), index(budget)
    charge(p, budget, "field size")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    n = positive(n, "degree")
    charge(budgeted_power(p, n, budget, "field size"), budget, "field size")
    return next(poly for poly in _monic(p, n) if _is_irreducible(poly, p))


@dataclass(frozen=True)
class FqField:
    """F_{p^n} as Z/pZ[x] modulo a monic irreducible (constant-first coeffs).

    The constructor is the one field gate, and the modulus decides.  The
    modulus 1 + x + ... + x^{r-1}, r a prime other than p, is irreducible
    exactly when p is a primitive root modulo r; that criterion replaces
    the trial division any other modulus gets, cyclotomic_order is r (else
    None) and the class of x is a primitive r-th root of unity.  Only p
    and the modulus take part in eq, hash and repr; q, the place values
    p^i of the rank digits (a.rank reads an element's) and the level
    tables do not.
    """

    p: int
    modulus: tuple[int, ...]
    cyclotomic_order: int | None = field(init=False, repr=False, compare=False)
    q: int = field(init=False, repr=False, compare=False)
    _tables: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p = index(self.p)
        if p < 2 or not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        reduced = tuple(index(c) % p for c in self.modulus)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "modulus", reduced)
        r = len(reduced)
        if r < 2 or reduced[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        cyclotomic = reduced == (1,) * r and r != p and _is_prime(r)
        if cyclotomic:
            _require_primitive_root(p, r, proved=True)
        elif not _is_irreducible(reduced, p):
            raise ValueError(f"modulus {reduced} is reducible over Z/{p}Z")
        object.__setattr__(self, "cyclotomic_order", r if cyclotomic else None)
        n = r - 1
        object.__setattr__(self, "q", p**n)
        object.__setattr__(self, "_tables", {})

    @property
    def n(self) -> int:
        return len(self.modulus) - 1

    @property
    def _place(self) -> tuple[int, ...]:
        """The place values p^i of the rank digits, built on the first read."""
        place = self.__dict__.get("_place_values")
        if place is None:
            place = self.__dict__["_place_values"] = tuple(self.p**i for i in range(self.n))
        return place

    def elements(self):
        """All q elements, in rank order, built lazily."""
        return _elements(self, range(self.q))


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
    are its n coefficients in the power basis (constant first), read by coeffs.
    The rank is read through operator.index and must lie in [0, q)."""

    field: FqField
    rank: int

    def __post_init__(self) -> None:
        rank = index(self.rank)
        if not 0 <= rank < self.field.q:
            raise ValueError(f"rank must lie in [0, {self.field.q}), got {rank}")
        object.__setattr__(self, "rank", rank)

    @property
    def coeffs(self) -> tuple[int, ...]:
        t, p = self.rank, self.field.p
        return tuple(t // v % p for v in self.field._place)

    def __repr__(self) -> str:
        return f"FqElem(field={self.field!r}, coeffs={self.coeffs!r})"

    def __bool__(self) -> bool:
        return self.rank != 0


_new_elem = object.__new__
_set_field = FqElem.field.__set__
_set_rank = FqElem.rank.__set__


def _elements(f: FqField, ranks):
    """FqElem(f, t) for each rank t, set through the slots without the frozen __init__."""
    for t in ranks:
        a = _new_elem(FqElem)
        _set_field(a, f)
        _set_rank(a, t)
        yield a


def _generates(p: int, r: int) -> bool:
    """The order test for primes p != r: p^((r-1)/l) != 1 mod r for each prime l | r-1."""
    return all(pow(p, (r - 1) // ell, r) != 1 for ell in _prime_divisors(r - 1))


def is_primitive_root(p: int, r: int) -> bool:
    """Whether the prime p generates (Z/rZ)*, by the order test."""
    for n in (p, r):
        if not _is_prime(n):
            raise ValueError(f"{n} is not prime")
    if p == r:
        raise ValueError("p and r must be distinct primes")
    return _generates(index(p), index(r))


def _require_primitive_root(p: int, r: int, proved: bool = False) -> None:
    """Raise ValueError unless 1 + x + ... + x^{r-1} is irreducible mod p.

    proved says that p and r are already known to be distinct primes, so
    only the order test runs.
    """
    if r < 2:
        raise ValueError(f"order must be a prime >= 2, got {r}")
    if not (_generates(p, r) if proved else is_primitive_root(p, r)):
        raise ValueError(
            f"1 + x + ... + x^{r - 1} is reducible mod {p}: "
            f"{p} is not a primitive root modulo {r}"
        )


def cyclotomic_field(p: int, r: int) -> FqField:
    """F_{p^(r-1)} on the basis 1, xi, ..., xi^(r-2) with sum(xi^i) = 0.

    Needs p to be a primitive root modulo the prime r, which is checked
    before the modulus is built (so a huge r costs no memory); the FqField
    gate then reads r off 1 + x + ... + x^{r-1} and checks it again.
    """
    _require_primitive_root(p, r)
    return FqField(p, (1,) * r)


def _times_matrix(f: FqField, c: tuple[int, ...]) -> list[tuple[int, ...]]:
    """M(c): row j holds the digits of c * x^j, so digits(y) @ M(c) = digits(c * y) mod p.

    Row j is row j-1 times x: its digits move up one place, and a top digit t
    that leaves comes back as t * x^n = -t * (modulus less its leading 1).
    """
    p, low = f.p, f.modulus[:-1]
    rows = [c]
    for _ in range(f.n - 1):
        prev = rows[-1]
        top = prev[-1]
        rows.append(tuple((a - top * m) % p for a, m in zip((0,) + prev[:-1], low)))
    return rows


def kth_power_set(f: FqField, k: int):
    """The sorted ranks of {x^k : x in F}: 0, then the cyclic subgroup of F* of index gcd(k, q-1).

    That subgroup has order d = (q-1)/gcd(k, q-1) and consists of the
    gcd(k, q-1)-th powers.  A power b = a^gcd(k, q-1) with b^(d/l) != 1 for
    every prime l | d has order exactly d, so the set is 0, 1, b, ...,
    b^(d-1).  The scan for a starts at rank p, the first element outside
    F_p, and wraps round to 1..p-1: an element of F_p qualifies only when
    d | p-1, and for n > 1 a primitive element outside F_p always does.
    Each candidate's digits are read off its rank; no FqElem is built.

    The result is one list of int ranks, 0 first (the powers come from
    _power_ranks and are sorted in place); gcd(k, q-1) = 1 gives range(q).
    """
    k = positive(k, "power")
    p, n, q = f.p, f.n, f.q
    k_red = gcd(k, q - 1)
    if k_red == 1:
        return range(q)
    d = (q - 1) // k_red
    cofactors = [d // ell for ell in _prime_divisors(d)]
    one = (1,) + (0,) * (n - 1)
    for t in chain(range(p, q), range(1, p)):
        b = _pow(f, tuple(t // v % p for v in f._place), k_red)
        if all(_pow(f, b, c) != one for c in cofactors):
            break
    ranks = _power_ranks(f, b, d)
    ranks.append(0)
    ranks.sort()
    return ranks


def _power_ranks(f: FqField, b: tuple[int, ...], d: int) -> list[int]:
    """The ranks of b^0, ..., b^(d-1), each power the one before times b.

    In F_p the powers are int products mod p.  Otherwise multiplication by
    b maps the digits linearly (row j of M(b) is the image of x^j), so the
    image of an element is the digit-wise sum of the images of its h low
    and n - h high digits.  Each element is held as its digits in lanes of
    w bits, and the two halves are looked up in two tables whose values
    hold the image's lanes above the half's rank.  The next power is then
    two lookups and one carry-free add, and the rank one mask.  The sum
    leaves digits up to 2p - 2 in the lanes, so the tables take keys with
    such digits too, 2p - 1 values per lane, and reduce each image once
    as they are built: a lane at p or above is the one whose top bit an
    add of 2^(w-1) - p sets, and loses p.  While the two tables would not
    be smaller than d, the powers are products on the digit tuples.
    """
    p, n = f.p, f.n
    out = []
    if n == 1:
        x, b = 1, b[0]
        for _ in range(d):
            out.append(x)
            x = x * b % p
        return out
    place = f._place
    h = n // 2
    if (2 * p - 1) ** h + (2 * p - 1) ** (n - h) >= d:
        x = (1,) + (0,) * (n - 1)
        for _ in range(d):
            out.append(sum(c * v for c, v in zip(x, place)))
            x = _mul(f, x, b)
        return out
    w = p.bit_length() + 1
    ones = sum(1 << (i * w) for i in range(n))
    top, rise = w - 1, ones * ((1 << (w - 1)) - p)
    shift = f.q.bit_length()  # the image's lanes sit above the rank

    def reduced(x):
        """x with p taken off each image lane at p or above."""
        return x - (((x >> shift) + rise >> top & ones) * p << shift)

    def half(rows, values):
        """{lanes of y: lanes of image(y) << shift | rank of y}, y over the digit
        vectors of one half with digits 0 .. 2p-2."""
        table = {0: 0}
        for j, (row, v) in enumerate(zip(rows, values)):
            key, val = 1 << (j * w), (sum(c << (i * w) for i, c in enumerate(row)) << shift) + v
            layers = [table]
            for _ in range(p - 1):  # digit j = 1 .. p-1
                layers.append({y + key: reduced(x + val) for y, x in layers[-1].items()})
            for c in range(p - 1):  # digit j = p + c has the image and rank of digit c
                layers.append({y + p * key: x for y, x in layers[c].items()})
            table = {}
            for layer in layers:
                table.update(layer)
        return table

    rows = _times_matrix(f, b)
    low, high = half(rows[:h], place[:h]), half(rows[h:], place[h:])
    low_lanes, split, rank_bits = (1 << (h * w)) - 1, h * w, (1 << shift) - 1
    z = 1
    for _ in range(d):
        v = low[z & low_lanes] + high[z >> split]
        out.append(v & rank_bits)
        z = v >> shift
    return out


# The switch between the two BFS steps compares their costs in Python steps.
# The sparse step costs about one step per (frontier, power) pair and digit.
# The dense step costs n rotations per translate, each about _ROTATION_STEPS
# steps of overhead plus its big-int work on q/64 words, eight words a step,
# and it makes about min(frontier, powers) translates: one per power, or one
# bitset of the powers at level 1.  Over min(frontier, powers) n, a level is
# sparse while max(frontier, powers) is at most _ROTATION_STEPS + q/512.
_ROTATION_STEPS = 12
# Sixteen masks of q bits take 2q bytes, beside the level table of q bytes
# and the bitmap of the ranks not yet seen, q/8 bytes, that live through the
# BFS; the others are built again at each use.
_MASKS_KEPT = 16
# The planes are spread to the table this many ranks at a time, so that the
# text and ints of a chunk stay a few MB whatever q is.
_SPREAD_RANKS = 1 << 20


def _bits(ranks, q: int) -> int:
    """The bitset of the ranks, set through a bitmap of q bits."""
    bitmap = bytearray((q + 7) >> 3)
    for t in ranks:
        bitmap[t >> 3] |= 1 << (t & 7)
    return int.from_bytes(bitmap, "little")


def _ranks(bits: int):
    """The ranks in a bitset, in increasing order, read off its binary text."""
    text = format(bits, "b")
    top = len(text) - 1
    j = text.rfind("1")
    while j >= 0:
        yield top - j
        j = text.rfind("1", 0, j)


def _low_mask(p: int, q: int, v: int, c: int) -> int:
    """The ranks whose digit of place value v is below p - c: (p - c) v ones at
    the foot of every block of p v, one block doubled until it covers q bits."""
    mask, width = (1 << (p - c) * v) - 1, p * v
    while width < q:
        step = min(width, q - width)  # both multiples of the period p v
        mask |= mask >> width - step << width
        width += step
    return mask


def _sparse_step(
    frontier: list, powers: list, bitmap: bytearray, table: array, depth: int, place: list, p: int
) -> list:
    """The ranks of frontier + powers still in the bitmap of the ranks not yet
    seen, taken out of it and entered in the table at depth.

    Each entry a of the shorter list translates the longer one: digit i of
    u + a wraps exactly when digit i of u is at least p - a_i, and then the
    rank loses p^(i+1).
    """
    shifts, base = (frontier, powers) if len(frontier) <= len(powers) else (powers, frontier)
    fresh = []
    for a in shifts:
        steps = [(v, p - c, v * p) for v in place if (c := a // v % p)]
        for u in base:
            t = u + a
            for v, low, wrap in steps:
                if u // v % p >= low:
                    t -= wrap
            byte, bit = t >> 3, 1 << (t & 7)
            if bitmap[byte] & bit:
                bitmap[byte] ^= bit
                table[t] = depth
                fresh.append(t)
    return fresh


def _level_table(table: array, planes: list, unreached: int):
    """The table of the sparse levels with the bit planes of the dense ones,
    and the ranks never reached at the largest entry value, ORed into it in
    place; the planes are emptied on the way.  1-byte entries come back as bytes.

    The planes' bits are spread to the entries at C speed, one chunk of
    _SPREAD_RANKS ranks at a time: a plane's binary text, encoded one '0' or
    '1' per entry width, has its '1' bytes translated to the plane's bit, and
    is read back as an int that ORs into the chunk's little-endian entries.
    """
    q, width = len(table), table.itemsize
    if unreached:
        planes[:] = [plane | unreached for plane in planes + [0] * (8 * width - len(planes))]
    codec = {1: "ascii", 2: "utf-16-be", 4: "utf-32-be"}[width]
    spreads = [
        (plane.to_bytes((q + 7) >> 3, "little"), bytes.maketrans(b"01", bytes((0, 1 << b % 8))), b & ~7)
        for b, plane in enumerate(planes)
        if plane
    ]
    planes.clear()
    if sys.byteorder == "big":
        table.byteswap()
    for lo in range(0, q if spreads else 0, _SPREAD_RANKS):
        hi = min(lo + _SPREAD_RANKS, q)
        chunk = int.from_bytes(table[lo:hi], "little")
        for plane, bit, shift in spreads:
            text = format(int.from_bytes(plane[lo >> 3 : (hi + 7) >> 3], "little"), f"0{hi - lo}b")
            chunk |= int.from_bytes(text.encode(codec).translate(bit), "big") << shift
        table[lo:hi] = array(table.typecode, chunk.to_bytes((hi - lo) * width, "little"))
    if sys.byteorder == "big":
        table.byteswap()
    return table.tobytes() if width == 1 else table


def _sumset_levels(f: FqField, k_red: int):
    """BFS levels of the sumset growth A_0 = {0}, A_{j+1} = A_j + powers.

    Returns (level table, least g with A_g = F) with g None when the powers
    only generate a proper additive subgroup; the table is bytes (or an
    array of wider entries past level 254) indexed by rank, and holds the
    largest entry value at the ranks never reached.  _field_levels keeps
    it on the field.
    """
    q = f.q
    if k_red == 1:  # every element is a first power: no set, no BFS
        return b"\0" + b"\1" * (q - 1), 1
    # the public kth_power_set, looked up at the call, so that a traced run can
    # time the powers apart from the BFS (ffwaring.bfs.s is the rest)
    table, planes, depth, unreached = _bfs(f, kth_power_set(f, k_red)[1:])
    return _level_table(table, planes, unreached), (None if unreached else depth)


def _bfs(f: FqField, powers: list) -> tuple:
    """The BFS from 0 by the powers: (the table of the sparse levels, the bit
    planes of the dense ones, the last level, the unreached ranks).

    Each level takes the cheaper of two steps (a direction-optimizing BFS,
    after Beamer, Asanovic and Patterson, SC 2012), both against one bitmap
    of the ranks not yet seen.  The sparse step sums the frontier and the
    powers pair by pair as rank lists, into the table, widened at levels 255
    and 65 535.  The dense step reads the bitmap as a bitset, an int with bit
    t set for rank t, translates the frontier by each power (adding c to
    digit i rotates that axis of the (p,)*n digit cube, one mask, two shifts
    and an or) and writes the bitmap back.  Level 1, from {0}, is the powers'
    own bitset, and every later level is a union of cosets of the powers.
    It stops once no rank is left to reach.  Plane b holds the ranks whose
    dense level has bit b set.
    """
    p, q, place = f.p, f.q, f._place
    size, seen, depth = 1, 1, 0
    frontier = [0]  # the last level: a rank list after a sparse step, a bitset after a dense one
    bitmap = bytearray(((1 << q) - 2).to_bytes((q + 7) >> 3, "little"))  # the ranks not yet seen
    table, planes, masks = array("B", bytes(q)), [], {}
    sparse_max = _ROTATION_STEPS + (q >> 9)  # frontier or powers, whichever is longer

    def translate(bits: int, a: int) -> int:
        for i, v in enumerate(place):
            if c := a // v % p:
                mask = masks.get((i, c))
                if mask is None:
                    mask = _low_mask(p, q, v, c)
                    if len(masks) < _MASKS_KEPT:
                        masks[i, c] = mask
                low = bits & mask
                bits = low << c * v | (bits ^ low) >> (p - c) * v
        return bits

    while size and seen < q:
        depth += 1
        if depth in (255, 65535):  # the levels outgrow 1-byte entries, then 2-byte ones
            table = array("H" if depth == 255 else "I", table)
        if max(size, len(powers)) <= sparse_max:
            if type(frontier) is int:
                frontier = list(_ranks(frontier))
            frontier = _sparse_step(frontier, powers, bitmap, table, depth, place, p)
            size = len(frontier)
        else:
            rest = unseen = int.from_bytes(bitmap, "little")
            if depth == 1:  # the frontier {0} translates to the powers themselves
                rest ^= _bits(powers, q)
            else:
                base = frontier if type(frontier) is int else _bits(frontier, q)
                for a in powers:
                    rest ^= rest & translate(base, a)
                    if not rest:
                        break
            frontier = unseen ^ rest
            bitmap[:] = rest.to_bytes(len(bitmap), "little")
            size = frontier.bit_count()
            planes += [0] * (depth.bit_length() - len(planes))
            for b in range(depth.bit_length()):
                if depth >> b & 1:
                    planes[b] |= frontier
        seen += size
    return table, planes, depth, int.from_bytes(bitmap, "little")


def _field_levels(f: FqField, k: int, budget: int):
    """The checked table lookup: _sumset_levels(f, gcd(k, q-1)) for k >= 1
    and q within the budget, computed once per field and kept on it.

    A table is kept under k as well as under gcd(k, q-1), so a repeated
    read is the two checks and one dict hit.  It is kept as (levels, g),
    and levels[rank] is one C-level read that returns an int.
    """
    k = positive(k, "power")
    q = charge(f.q, budget, "field size")
    table = f._tables.get(k)
    if table is None:
        k_red = gcd(k, q - 1)
        table = f._tables.get(k_red)
        if table is None:
            table = _sumset_levels(f, k_red)
        f._tables[k] = f._tables[k_red] = table
    return table


def waring_number(f: FqField, k: int, budget: int = DEFAULT_FIELD_BUDGET) -> int | None:
    """Least g such that every element of F is a sum of g k-th powers.

    Returns None when the k-th powers generate a proper additive subgroup
    (e.g. a subfield), so that no such g exists.
    """
    return _field_levels(f, k, budget)[1]


def per_element_length(f: FqField, k: int, a: FqElem, budget: int = DEFAULT_FIELD_BUDGET) -> int:
    """Least number of k-th powers summing to a (0 for a = 0, empty sum).

    A kept table is read in place: its key is an int k >= 1, so a hit needs
    only the budget check, made inline for an exact int budget.  A miss, a
    refusal or any other budget (a float, a numpy integer) goes to
    _field_levels, which makes the checks in the same order.
    """
    if a.field is not f and a.field != f:
        raise ValueError("element belongs to a different field")
    k = index(k)
    table = f._tables.get(k)
    if table is None or type(budget) is not int or f.q > budget:
        table = _field_levels(f, k, budget)
    levels, g = table
    if g is None:
        raise ValueError("k-th powers do not span the field additively")
    return levels[a.rank]


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
    return WaringReport(label, f.p, f.n, f.q, r, index(k), gcd(k, f.q - 1), computed, formula, match)


def _verify_theorem(p: int, r: int, t: int, formula, label: str, budget: int) -> WaringReport:
    """g((q-1)/(t*r), q) for q = p^(r-1) by sumset BFS, beside formula(p, r).

    The hypothesis is checked first and the budget next, except that a p
    over the budget is refused before its primality test, and a q that
    r - 1 alone puts far over the budget before the primality test of r.
    """
    p, r, budget = index(p), index(r), index(budget)
    charge(p, budget, "field size")
    q = budgeted_power(p, max(r - 1, 0), budget, "field size")
    _require_primitive_root(p, r)
    charge(q, budget, "field size")
    f = FqField(p, (1,) * r)
    return waring_report(f, (q - 1) // (t * r), formula(p, r), r, label, budget)


def verify_theorem1(p: int, r: int, budget: int = DEFAULT_FIELD_BUDGET) -> WaringReport:
    """Check g((q-1)/r, q) = g_bound(p, r) for q = p^(r-1) by sumset BFS.

    Needs p, r prime with p a primitive root modulo r.  Then gcd(p, r) = 1
    and the closed form is (p-1)(r-1)/2.
    """
    return _verify_theorem(p, r, 1, g_bound, "g((q-1)/r, q)", budget)


def verify_theorem2(p: int, r: int, budget: int = DEFAULT_FIELD_BUDGET) -> WaringReport:
    """Check g((q-1)/(2r), q) = h_bound(p, r) for q = p^(r-1) by sumset BFS.

    Needs p, r odd primes with p a primitive root modulo r.  For such
    distinct odd p, r the closed form is floor(pr/4 - p/(4r)) when r < p
    (h's ODD_R_LE case) and floor(pr/4 - r/(4p)) otherwise (ODD_RGT).
    """
    if 2 in (index(p), index(r)):
        raise ValueError("p and r must be odd primes")
    return _verify_theorem(p, r, 2, h_bound, "g((q-1)/(2r), q)", budget)


def verify_remarks(p: int, budget: int = DEFAULT_FIELD_BUDGET) -> list[WaringReport]:
    """The r = 1 and r = 2 companions: g(p-1, p), g((p-1)/2, p), g((p^2-1)/4, p^2).

    The first always equals p - 1.  The second (odd p only, since k must be
    positive) equals (p-1)/2; note that for p = 3 the exponent is k = 1.
    The third applies when p = 3 mod 4 and equals p - 1, computed in
    F_{p^2} built from the smallest irreducible quadratic.
    """
    p = index(p)
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
