"""The boundary checks: integers read by operator.index (a float raises
TypeError) and refused below 1, and every refusal of a count over its budget."""

from __future__ import annotations

from operator import index

# Counts of more bits print as a power-of-two bound: Python refuses to turn
# an int of more than 4300 digits into a string.
EXACT_BITS = 4096


def _describe(n: int) -> str:
    """n in decimal, or the exact bound "at least 2^k" past EXACT_BITS bits."""
    if n.bit_length() <= EXACT_BITS:
        return str(n)
    return f"at least 2^{n.bit_length() - 1}"


class BudgetError(ValueError):
    """An enumeration would exceed its configured budget.

    required is the count needed, or a power of two below it when the
    count itself is too large to build.
    """

    def __init__(self, required: int, budget: int, what: str = "enumeration"):
        super().__init__(
            f"{what} needs {_describe(required)}, which exceeds the budget of {_describe(budget)}"
        )
        self.required = required
        self.budget = budget


def positive(value: int, what: str) -> int:
    """value as a Python int (operator.index), or ValueError when it is below 1."""
    n = index(value)
    if n < 1:
        raise ValueError(f"{what} must be positive, got {n}")
    return n


def dims(m: int, r: int) -> tuple[int, int]:
    """(m, r) as Python ints (operator.index), or ValueError unless both are positive."""
    m, r = index(m), index(r)
    if m < 1 or r < 1:
        raise ValueError(f"m and r must be positive, got m={m}, r={r}")
    return m, r


def charge(units: int, budget: int, what: str) -> int:
    """units, or BudgetError when they exceed budget (read by operator.index)."""
    if units > (budget := index(budget)):
        raise BudgetError(units, budget, what)
    return units


def budgeted_power(base: int, exp: int, budget: int, what: str) -> int:
    """base**exp for a budget check, refused before it is built when far over.

    base**exp is at least 2^bits with bits = exp * (bit length of base - 1).
    Past both EXACT_BITS and the budget's bit length the power is never
    built: the BudgetError carries 2^bits (capped at 2^(2^24), under 2 MB).
    Otherwise the power is returned, for the caller to charge.
    """
    bits = exp * (base.bit_length() - 1)
    if bits > max(EXACT_BITS, budget.bit_length()):
        raise BudgetError(1 << min(bits, 1 << 24), budget, what)
    return base**exp
