"""Exact Lee-metric covering radii of repetition codes over Z/mZ and exact
Waring numbers of small finite fields: closed-form bounds, constructive
extremal vectors, brute-force oracles and sumset BFS verifiers."""

from .admissible import (
    Extremum,
    ExtremumKind,
    canonical_shift,
    extremal_values,
    is_admissible,
    is_balanced,
    m_sequence,
    norm_sequence,
)
from .bounds import BoundCase, band_c, bound_case, g_bound, h_bound
from .construct import (
    MDiffPlan,
    construct_even_dim,
    construct_max_lee,
    construct_max_norm1,
    construct_odd_modulus,
    full_cycle,
    plan_even_modulus,
    plan_even_vector,
    vector_from_m_diffs,
)
from .errors import BudgetError
from .ffwaring import (
    FqElem,
    FqField,
    WaringReport,
    cyclotomic_field,
    find_irreducible,
    is_primitive_root,
    kth_power_set,
    per_element_length,
    to_coset_vector,
    verify_remarks,
    verify_theorem1,
    verify_theorem2,
    waring_number,
)
from .modring import (
    ModVec,
    NormKind,
    abs_least_residue,
    concat,
    halve,
    norm,
    shift,
)
from .oracle import OracleResult, brute_max_admissible

__version__ = "0.1.0"

__all__ = [
    "BoundCase",
    "BudgetError",
    "Extremum",
    "ExtremumKind",
    "FqElem",
    "FqField",
    "MDiffPlan",
    "ModVec",
    "NormKind",
    "OracleResult",
    "WaringReport",
    "abs_least_residue",
    "band_c",
    "bound_case",
    "brute_max_admissible",
    "canonical_shift",
    "concat",
    "construct_even_dim",
    "construct_max_lee",
    "construct_max_norm1",
    "construct_odd_modulus",
    "cyclotomic_field",
    "extremal_values",
    "find_irreducible",
    "full_cycle",
    "g_bound",
    "h_bound",
    "halve",
    "is_admissible",
    "is_balanced",
    "is_primitive_root",
    "kth_power_set",
    "m_sequence",
    "norm",
    "norm_sequence",
    "per_element_length",
    "plan_even_modulus",
    "plan_even_vector",
    "shift",
    "to_coset_vector",
    "vector_from_m_diffs",
    "verify_remarks",
    "verify_theorem1",
    "verify_theorem2",
    "waring_number",
]
