"""Checkers for every workload's outputs, computed apart from the program.

The references here are written from the paper's statements, not from the
library's code: the closed forms for g and h (floors taken on exact
fractions), the norm of a vector at every shift of the all-ones line
(from its coordinate histogram), a plain enumeration of small coset
spaces, and the Waring closed forms.  A checker returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import floor, gcd


def ref_g(m: int, r: int) -> int:
    """Largest least-residue norm of a minimal-in-coset vector: (mr-m-r+gcd)/2."""
    return (m * r - m - r + gcd(m, r)) // 2


def ref_h(m: int, r: int) -> int:
    """Largest Lee norm of a minimal-in-coset vector, by the five-branch floor form."""
    base = Fraction(m * r, 4)
    if m % 2 == 0 and r % 2 == 0:
        return m * r // 4
    if r % 2 == 1 and r <= m:
        return floor(base - Fraction(m, 4 * r))
    if m % 2 == 1 and r > m:
        return floor(base - Fraction(r, 4 * m))
    return floor(base - Fraction(1, 2))  # m even r odd r > m; m odd r even r < m


def ref_bound(norm: str, m: int, r: int) -> int:
    return ref_g(m, r) if norm == "one" else ref_h(m, r)


def weights(norm: str, m: int) -> list[int]:
    return list(range(m)) if norm == "one" else [min(c, m - c) for c in range(m)]


def shift_norms(coords, m: int, norm: str) -> list[int]:
    """||v + x*e|| for x = 0..m-1, from the histogram of v's coordinates."""
    w = weights(norm, m)
    hist: dict[int, int] = {}
    for c in coords:
        hist[c % m] = hist.get(c % m, 0) + 1
    items = list(hist.items())
    return [sum(n * w[(c + x) % m] for c, n in items) for x in range(m)]


def plain_oracle(norm: str, m: int, r: int) -> tuple[int, tuple[int, ...]]:
    """Max over cosets of the min-over-shift norm, and the lexicographically
    smallest canonically shifted maximiser, by plain enumeration."""
    best, witness = -1, None
    for tail in itertools.product(range(m), repeat=r - 1):
        v = (0,) + tail
        seq = shift_norms(v, m, norm)
        low = min(seq)
        if low < best:
            continue
        x = seq.index(low)
        cand = tuple((c + x) % m for c in v)
        if low > best or cand < witness:
            best, witness = low, cand
    return best, witness


PLAIN_LIMIT = 5000  # cosets; larger cases are checked by bound and shift norms only


def _check_vector(coords, m: int, r: int, norm: str, target: int, what: str) -> list[str]:
    if len(coords) != r or any(not 0 <= c < m for c in coords):
        return [f"{what} {coords} is not a vector of (Z/{m}Z)^{r}"]
    seq = shift_norms(coords, m, norm)
    out = []
    if seq[0] != target:
        out.append(f"{what} has {norm} norm {seq[0]}, expected {target}")
    if min(seq) < seq[0]:
        out.append(f"{what} is not admissible: shift {seq.index(min(seq))} lowers its norm to {min(seq)}")
    return out


def check_oracle(case, output) -> list[str]:
    norm, m, r = case.args
    max_norm, witness, enumerated = output
    target = ref_bound(norm, m, r)
    out = []
    if max_norm != target:
        out.append(f"{case.name}: oracle max {max_norm}, closed form {target}")
    if enumerated != m ** (r - 1):
        out.append(f"{case.name}: enumerated {enumerated} cosets, expected {m ** (r - 1)}")
    out += [f"{case.name}: {p}" for p in _check_vector(witness, m, r, norm, target, "witness")]
    if not out and m ** (r - 1) <= PLAIN_LIMIT:
        plain = plain_oracle(norm, m, r)
        if (max_norm, witness) != plain:
            out.append(f"{case.name}: oracle gave {(max_norm, witness)}, plain enumeration {plain}")
    return out


def check_construct(case, output) -> list[str]:
    norm, m, r = case.args
    modulus, coords, admissible, x, shifted = output
    target = ref_bound(norm, m, r)
    out = [] if modulus == m else [f"modulus {modulus}, expected {m}"]
    out += _check_vector(coords, m, r, norm, target, "vector")
    if admissible is not True:
        out.append(f"is_admissible returned {admissible!r}")
    if x != 0 or shifted != coords:
        out.append(f"canonical_shift returned shift {x}, expected 0 and the vector itself")
    return [f"{case.name}: {p}" for p in out]


def thm1_g(p: int, r: int) -> int:
    return (p - 1) * (r - 1) // 2


def thm2_g(p: int, r: int) -> int:
    pr = Fraction(p * r, 4)
    return floor(pr - Fraction(p, 4 * r)) if r < p else floor(pr - Fraction(r, 4 * p))


def _check_report(name, rep, p, n, k, r, g) -> list[str]:
    _label, rp, rn, rk, rr, computed, formula = rep
    out = []
    if (rp, rn, rk, rr) != (p, n, k, r):
        out.append(f"{name}: report is for (p, n, k, r) = {(rp, rn, rk, rr)}, expected {(p, n, k, r)}")
    if computed != g:
        out.append(f"{name}: computed g = {computed}, closed form {g}")
    if formula != g:
        out.append(f"{name}: reported formula {formula}, closed form {g}")
    return out


def check_waring(case, output) -> list[str]:
    if case.kind in ("thm1", "thm2"):
        p, r = case.args
        q = p ** (r - 1)
        if case.kind == "thm1":
            return _check_report(case.name, output, p, r - 1, (q - 1) // r, r, thm1_g(p, r))
        return _check_report(case.name, output, p, r - 1, (q - 1) // (2 * r), r, thm2_g(p, r))
    if case.kind == "remarks":
        (p,) = case.args
        # (n, k, r, g) of g(p-1, p), g((p-1)/2, p) and g((p^2-1)/4, p^2)
        want = [(1, p - 1 if p > 2 else 1, 1, p - 1)]
        if p > 2:
            want.append((1, (p - 1) // 2, 1, (p - 1) // 2))
        if p % 4 == 3:
            want.append((2, (p * p - 1) // 4, 2, p - 1))
        if len(output) != len(want):
            return [f"{case.name}: {len(output)} reports, expected {len(want)}"]
        out = []
        for rep, (n, k, r, g) in zip(output, want):
            out += _check_report(case.name, rep, p, n, k, r, g)
        return out
    if case.kind == "dense":
        p, n, k = case.args
        q, g = output
        # Every element of a field of odd order is a sum of two squares, and
        # not every element is a square, so g(2, q) = 2.
        if q != p**n or g != 2:
            return [f"{case.name}: got (q, g) = {(q, g)}, expected ({p**n}, 2)"]
        return []
    p, r = case.args
    q, k, g, lengths = output
    out = []
    if (q, k) != (p ** (r - 1), (p ** (r - 1) - 1) // r):
        out.append(f"{case.name}: field and exponent {(q, k)} are wrong")
    if g != thm1_g(p, r):
        out.append(f"{case.name}: g = {g}, closed form {thm1_g(p, r)}")
    if len(lengths) != q:
        return out + [f"{case.name}: {len(lengths)} lengths for {q} elements"]
    n = r - 1
    w = weights("one", p)
    for rank, length in enumerate(lengths):
        coset = [(rank // p**i) % p for i in range(n)] + [0]
        best = min(sum(w[(c + x) % p] for c in coset) for x in range(p))
        if length != best:
            out.append(f"{case.name}: element of rank {rank} has length {length}, min coset norm {best}")
            break
    if max(lengths) != g:
        out.append(f"{case.name}: longest element needs {max(lengths)} powers, g = {g}")
    return out


def check_coset_vectors(lw, p: int, r: int) -> list[str]:
    """to_coset_vector is the power-basis coefficients padded by one zero."""
    f = lw.cyclotomic_field(p, r)
    n = r - 1
    for rank, a in enumerate(f.elements()):
        digits = tuple((rank // p**i) % p for i in range(n)) + (0,)
        vec = lw.to_coset_vector(a)
        if vec.modulus != p or tuple(vec.coords) != digits:
            return [f"to_coset_vector of rank {rank} is {vec}, expected {digits} mod {p}"]
    return []


def _cli_expected(lw, argv) -> object:
    """The library's value for one CLI command, as the CLI's JSON or CSV prints it."""
    cmd = argv[0]
    opt = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}
    if cmd == "bounds":
        lo, hi = map(int, opt["--m"].split(".."))
        rlo, rhi = map(int, opt["--r"].split(".."))
        rows = ["m,r,g,h,case,rho"]
        for m in range(lo, hi + 1):
            for r in range(rlo, rhi + 1):
                rho = ref_g(m, r) if m == 2 else ref_h(m, r)
                rows.append(f"{m},{r},{ref_g(m, r)},{ref_h(m, r)},{lw.bound_case(m, r).value},{rho}")
        return "\n".join(rows) + "\n"
    if cmd == "waring":  # thm1
        g = thm1_g(int(opt["--p"]), int(opt["--r"]))
        return {"computed_g": g, "formula_g": g, "match": True}
    m = int(opt["--m"])
    if cmd == "construct":
        h = ref_h(m, int(opt["--r"]))
        v = lw.construct_max_lee(m, int(opt["--r"]))
        return {"vector": list(v.coords), "value": h, "bound": h, "admissible": True}
    if cmd == "check":
        vec = [int(c) % m for c in opt["--vec"].split(",")]
        seq = shift_norms(vec, m, opt["--norm"])
        x = seq.index(min(seq))
        return {"vector": vec, "value": seq[0], "admissible": seq[0] == min(seq),
                "canonical_shift": x, "shifted": [(c + x) % m for c in vec], "norm_sequence": seq}
    if cmd == "oracle":
        r = int(opt["--r"])
        best, witness = plain_oracle(opt["--norm"], m, r)
        return {"oracle_max": best, "formula": best, "witness": list(witness),
                "enumerated": m ** (r - 1), "match": True}
    raise ValueError(cmd)


def check_cli(lw, case, output) -> list[str]:
    argv, want_code = case.args
    code, stdout, stderr = output
    if code != want_code:
        return [f"{case.name}: exit code {code}, expected {want_code} (stderr: {stderr.strip()[:200]})"]
    if want_code == 2:
        return [] if "budget exceeded" in stderr else [f"{case.name}: no budget message on stderr"]
    want = _cli_expected(lw, argv)
    if isinstance(want, str):
        return [] if stdout == want else [f"{case.name}: printed table differs from the closed forms"]
    got = json.loads(stdout)
    bad = {k: (got.get(k), v) for k, v in want.items() if got.get(k) != v}
    return [f"{case.name}: printed vs expected {bad}"] if bad else []


def check(lw, workload: str, case, output) -> list[str]:
    if workload == "coset_oracle":
        return check_oracle(case, output)
    if workload == "extremal_construct":
        return check_construct(case, output)
    if workload == "waring_fields":
        out = check_waring(case, output)
        if case.kind == "per_element" and not out:
            out = check_coset_vectors(lw, *case.args)
        return out
    return check_cli(lw, case, output)
