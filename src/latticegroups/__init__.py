"""Exact calculator for groups realized through lattice paths.

Free-group words evaluate to paths on the grid of unit edges over Z^d;
remembering progressively more of the path (endpoint, signed projection
areas, net edge multiplicities) solves the word problem in the free
abelian, free 2-step nilpotent, and free metabelian quotients. Planar
cycles decompose uniquely into plaquettes, which drives the 2-cocycle
calculus and the level-k extension family.
"""

# Each public name once, under the submodule that defines it, in the order of
# __all__. Every submodule is imported here: perfbench's tracer finds them in
# sys.modules before it patches.
_EXPORTS = {
    "words": (
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
    ),
    "lattice": (
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
    ),
    "homology": (
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
    ),
    "cocycles": (
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
    ),
    "metabelian": (
        "FoxImage",
        "MetabelianElement",
        "fox_image",
        "pair_element",
        "plaquette_element",
        "word_problem",
    ),
    "nilpotent": (
        "HeisenbergElement",
        "word_is_trivial",
    ),
}

# As `from .module import name` binds each name: __import__ with level 1
# imports the submodule and returns it.
globals().update(
    (name, getattr(__import__(module, globals(), None, names, 1), name))
    for module, names in _EXPORTS.items()
    for name in names
)

from . import satellite

__version__ = "0.1.0"

__all__ = [*(name for names in _EXPORTS.values() for name in names), "satellite", "__version__"]
