"""Shared exception types."""

from __future__ import annotations

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
