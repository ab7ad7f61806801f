import pytest

import leewaring
from leewaring import admissible, bounds, cli, construct, errors, ffwaring, modring, oracle

# norm_steps became the bends of a weight table inside shift_norms,
# _budgeted_cyclotomic_field folded into the one theorem path,
# covering_radius was h_bound under a second name, and the four private
# budget and dimension checks became errors.charge, positive and dims
DELETED = (
    "optimal_pair", "double_embed", "least_residue", "all_ones", "brute_covering_radius",
    "norm_steps", "_budgeted_cyclotomic_field", "covering_radius",
    "_charge", "_require_budget", "_check_budget", "_check_dims",
)
# (class, attribute): a method folded into what it wrapped (FqField.rank(a) is a.rank),
# ModVec.dim, which nothing read (len(v) gives it), and FqElem's arithmetic operators
# and FqField's element constructors, which only tests used (now FqElem(f, rank), _mul, _pow)
DELETED_ATTRIBUTES = (("FqField", "rank"), ("ModVec", "dim")) + tuple(
    ("FqElem", op) for op in ("__add__", "__neg__", "__sub__", "__mul__", "__pow__")
) + tuple(("FqField", name) for name in ("element", "zero", "one", "gen", "from_rank"))


def test_all_is_sorted_and_resolves():
    assert leewaring.__all__ == sorted(leewaring.__all__)
    for name in leewaring.__all__:
        assert hasattr(leewaring, name), name


@pytest.mark.parametrize("name", DELETED)
def test_deleted_names_are_gone(name):
    assert name not in leewaring.__all__
    with pytest.raises(ImportError):
        exec(f"from leewaring import {name}", {})
    for module in (admissible, bounds, cli, construct, errors, ffwaring, modring, oracle):
        assert not hasattr(module, name), (module.__name__, name)


@pytest.mark.parametrize("owner,name", DELETED_ATTRIBUTES)
def test_deleted_attributes_are_gone(owner, name):
    assert not hasattr(getattr(leewaring, owner), name)


def test_modvec_defines_no_iteration_or_str():
    # nothing iterates or prints a ModVec (the CLI formats coords); object keeps a __str__
    assert "__iter__" not in vars(leewaring.ModVec) and "__str__" not in vars(leewaring.ModVec)
