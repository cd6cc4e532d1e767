"""Represented matroids over finite fields, their minors and duals,
frame matrices and templates, perturbation distances, linear-code
parameters and thresholds, and growth-rate formulas, all with desk-scale
brute-force oracles."""

from .field import FiniteField, MultSubgroup, make_field, mult_subgroups, subfield_lattice
from .linalg import Matrix, Subspace, min_weight, orth_complement, rref
from .matroid import (
    ReprMatroid,
    cogirth,
    confined_to,
    contract,
    delete,
    dual,
    from_generator,
    girth,
    has_minor,
    is_simple,
    isomorphic,
    projectively_equivalent,
    rank_of,
    simplify,
    vertical_connectivity,
)

__version__ = "0.1.0"
