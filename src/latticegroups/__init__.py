"""Exact calculator for groups realized through lattice paths.

Free-group words evaluate to paths on the grid of unit edges over Z^d;
remembering progressively more of the path (endpoint, signed projection
areas, net edge multiplicities) solves the word problem in the free
abelian, free 2-step nilpotent, and free metabelian quotients. Planar
cycles decompose uniquely into plaquettes, which drives the 2-cocycle
calculus and the level-k extension family.
"""

from .words import (
    MAX_LETTERS,
    InputTooLargeError,
    Letter,
    RankMismatchError,
    Word,
    WordSyntaxError,
    commutator,
    free_reduce,
    parse_letters,
    parse_named_word,
    parse_word,
)
from .lattice import (
    Edge,
    EdgeFlow,
    PathEvaluation,
    VertexChain,
    basis_vector,
    evaluate_letters,
    evaluate_path,
    is_loop,
    vec_add,
    vec_neg,
)
from .homology import (
    NotACycleError,
    Plaquette,
    PlaquetteSum,
    algebraic_area,
    cube_relation,
    decompose_cycle,
    decompose_cycle_2d,
    plaquette_boundary,
    plaquette_sum_from_json,
    project_flow,
)
from .cocycles import (
    CanonicalCocycle,
    Cocycle,
    PerturbedCocycle,
    ScaledCocycle,
    canonical_cocycle,
    check_cocycle_identity,
    coboundary,
    cocycle_index,
    commutator_defect,
    monomial_flow,
    monomial_word,
)
from .metabelian import (
    FoxImage,
    MetabelianElement,
    fox_image,
    pair_element,
    plaquette_element,
    word_problem,
)
from .nilpotent import HeisenbergElement, word_is_trivial
from . import satellite

__version__ = "0.1.0"

__all__ = [
    "MAX_LETTERS",
    "InputTooLargeError",
    "Letter",
    "RankMismatchError",
    "Word",
    "WordSyntaxError",
    "commutator",
    "free_reduce",
    "parse_letters",
    "parse_named_word",
    "parse_word",
    "Edge",
    "EdgeFlow",
    "PathEvaluation",
    "VertexChain",
    "basis_vector",
    "evaluate_letters",
    "evaluate_path",
    "is_loop",
    "vec_add",
    "vec_neg",
    "NotACycleError",
    "Plaquette",
    "PlaquetteSum",
    "algebraic_area",
    "cube_relation",
    "decompose_cycle",
    "decompose_cycle_2d",
    "plaquette_boundary",
    "plaquette_sum_from_json",
    "project_flow",
    "CanonicalCocycle",
    "Cocycle",
    "PerturbedCocycle",
    "ScaledCocycle",
    "canonical_cocycle",
    "check_cocycle_identity",
    "coboundary",
    "cocycle_index",
    "commutator_defect",
    "monomial_flow",
    "monomial_word",
    "FoxImage",
    "MetabelianElement",
    "fox_image",
    "pair_element",
    "plaquette_element",
    "word_problem",
    "HeisenbergElement",
    "word_is_trivial",
    "satellite",
    "__version__",
]
