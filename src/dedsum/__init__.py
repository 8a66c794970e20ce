"""Exact-arithmetic Dedekind sums and congruence verification tools."""

from dedsum.arith import ExactRational, jacobi, mod_inverse, sign_mod3
from dedsum.contfrac import CFExpansion, cf_expand, t_value
from dedsum.dedekind import b_times_s, dedekind_fast, dedekind_naive
from dedsum.congruence import (
    BTResidue,
    DifferenceVerdict,
    FamilyExample,
    bt_congruence_mod8,
    bt_residue,
    difference_verdict,
    family_example,
    mu,
    mu_condition,
    mu_original,
)

__all__ = [
    "BTResidue",
    "CFExpansion",
    "DifferenceVerdict",
    "ExactRational",
    "FamilyExample",
    "b_times_s",
    "bt_congruence_mod8",
    "bt_residue",
    "cf_expand",
    "dedekind_fast",
    "dedekind_naive",
    "difference_verdict",
    "family_example",
    "jacobi",
    "mod_inverse",
    "mu",
    "mu_condition",
    "mu_original",
    "sign_mod3",
    "t_value",
]

__version__ = "0.1.0"
