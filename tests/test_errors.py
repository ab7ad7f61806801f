import dataclasses
import enum

import numpy as np
import pytest

from leewaring import (
    BudgetError,
    FqElem,
    FqField,
    ModVec,
    NormKind,
    abs_least_residue,
    band_c,
    bound_case,
    brute_max_admissible,
    construct_even_dim,
    construct_max_lee,
    construct_max_norm1,
    construct_odd_modulus,
    cyclotomic_field,
    find_irreducible,
    full_cycle,
    g_bound,
    h_bound,
    is_primitive_root,
    kth_power_set,
    per_element_length,
    plan_even_modulus,
    plan_even_vector,
    verify_remarks,
    verify_theorem1,
    verify_theorem2,
    waring_number,
)
from leewaring.errors import charge, dims, positive
from leewaring.ffwaring import _is_prime, waring_report

F = cyclotomic_field(3, 5)
A = FqElem(F, 3)
F4 = cyclotomic_field(2, 3)  # q = 4, below the float 5.0 the test puts in

# Each public entry point with valid integer arguments; every int among them is an
# integer argument that the entry point reads through operator.index.
ENTRY_POINTS = [
    pytest.param(g_bound, (6, 3), id="g_bound"),
    pytest.param(bound_case, (6, 3), id="bound_case"),
    pytest.param(h_bound, (5, 3), id="h_bound"),
    pytest.param(band_c, (6, 3), id="band_c"),
    pytest.param(abs_least_residue, (3, 5), id="abs_least_residue"),
    pytest.param(ModVec, (5,), id="ModVec"),
    pytest.param(lambda c: ModVec(5, (c, 1)), (7,), id="ModVec-coords"),
    pytest.param(full_cycle, (5,), id="full_cycle"),
    pytest.param(construct_max_norm1, (5, 3), id="construct_max_norm1"),
    pytest.param(construct_max_lee, (5, 3), id="construct_max_lee"),
    pytest.param(construct_even_dim, (5, 4), id="construct_even_dim"),
    pytest.param(construct_odd_modulus, (5, 3), id="construct_odd_modulus"),
    pytest.param(plan_even_modulus, (6, 3), id="plan_even_modulus"),
    pytest.param(plan_even_vector, (10, 3), id="plan_even_vector"),
    pytest.param(
        lambda m, r, budget, threads: brute_max_admissible(m, r, NormKind.LEE, budget, threads),
        (5, 3, 10**7, 1),
        id="brute_max_admissible",
    ),
    pytest.param(_is_prime, (3,), id="_is_prime"),
    pytest.param(is_primitive_root, (3, 5), id="is_primitive_root"),
    pytest.param(find_irreducible, (3, 2, 10**6), id="find_irreducible"),
    pytest.param(FqField, (3, (1, 1, 1, 1, 1)), id="FqField"),
    pytest.param(lambda c: FqField(3, (c, 1, 1, 1, 1)), (1,), id="FqField-modulus"),
    pytest.param(cyclotomic_field, (3, 5), id="cyclotomic_field"),
    pytest.param(lambda t: FqElem(F, t), (3,), id="FqElem"),
    pytest.param(kth_power_set, (F, 16), id="kth_power_set"),
    pytest.param(waring_number, (F, 16, 10**6), id="waring_number"),
    pytest.param(
        lambda k, budget: per_element_length(F, k, A, budget), (16, 10**6), id="per_element_length"
    ),
    # the first call keeps F4's table, so the float budget meets a kept-table hit
    pytest.param(
        lambda budget: per_element_length(F4, 1, FqElem(F4, 3), budget), (10**6,), id="per_element_length-kept"
    ),
    pytest.param(
        lambda k, budget: waring_report(F, k, budget=budget), (16, 10**6), id="waring_report"
    ),
    pytest.param(verify_theorem1, (3, 5, 10**6), id="verify_theorem1"),
    pytest.param(verify_theorem2, (3, 5, 10**6), id="verify_theorem2"),
    pytest.param(verify_remarks, (3, 10**6), id="verify_remarks"),
]


def _only_python_ints(x) -> bool:
    """Whether every integer inside x (fields, items, kept tables) is a Python int."""
    if isinstance(x, (bool, str, enum.Enum)) or x is None:
        return True
    if isinstance(x, (int, np.integer)):
        return type(x) is int
    if dataclasses.is_dataclass(x):
        return all(_only_python_ints(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, dict):
        x = list(x.items())
    return all(map(_only_python_ints, x))


@pytest.mark.parametrize("call, args", ENTRY_POINTS)
def test_every_integer_argument_refuses_a_float_and_accepts_numpy_ints(call, args):
    # 5.0 once returned floats (h_bound, band_c, abs_least_residue), passed as prime
    # (_is_prime) or failed deep inside with AttributeError or a pow() TypeError; a
    # numpy p once stayed on FqField and broke the order test
    want = call(*args)
    for i, value in enumerate(args):
        if type(value) is not int:
            continue
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call(*args[:i], 5.0, *args[i + 1:])
        got = call(*args[:i], np.int64(value), *args[i + 1:])
        assert got == want and _only_python_ints(got), (i, got)


# A rank outside [0, q) once made an element anyway: 83 in q = 81 read the
# digits (2, 0, 0, 0), which per_element_length could not look up, and -1 read
# the digits of 80 yet compared unequal to FqElem(F, 80).
@pytest.mark.parametrize("rank", [-1, 81, 83])
def test_an_element_refuses_a_rank_outside_its_field(rank):
    with pytest.raises(ValueError, match=rf"^rank must lie in \[0, 81\), got {rank}$"):
        FqElem(F, rank)
    assert FqElem(F, 0).rank == 0 and FqElem(F, 80).rank == 80


def test_the_helpers_return_python_ints_and_keep_their_messages():
    assert type(positive(np.int64(3), "power")) is int
    assert [type(n) for n in dims(np.int32(2), np.int64(3))] == [int, int]
    assert charge(7, np.int64(7), "work") == 7
    with pytest.raises(ValueError, match="^degree must be positive, got 0$"):
        positive(0, "degree")
    with pytest.raises(ValueError, match="^m and r must be positive, got m=1, r=-2$"):
        dims(1, -2)
    with pytest.raises(BudgetError, match="^work needs 8, which exceeds the budget of 7$") as info:
        charge(8, np.int64(7), "work")
    assert (info.value.required, type(info.value.budget)) == (8, int)
