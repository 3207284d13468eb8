"""The package's export list: its names, their order, and where each comes from."""

import importlib
from types import ModuleType

import latticegroups

# Each public name under the submodule that defines it, in the order of __all__.
EXPORTS = [
    ("words", [
        "MAX_LETTERS", "InputTooLargeError", "Letter", "RankMismatchError", "Word",
        "WordSyntaxError", "commutator", "free_reduce", "parse_letters", "parse_named_word",
        "parse_word",
    ]),
    ("lattice", [
        "Edge", "EdgeFlow", "PathEvaluation", "VertexChain", "basis_vector", "evaluate_letters",
        "evaluate_path", "is_loop", "vec_add", "vec_neg",
    ]),
    ("homology", [
        "NotACycleError", "Plaquette", "PlaquetteSum", "algebraic_area", "cube_relation",
        "decompose_cycle", "decompose_cycle_2d", "plaquette_boundary", "plaquette_sum_from_json",
        "project_flow",
    ]),
    ("cocycles", [
        "CanonicalCocycle", "Cocycle", "PerturbedCocycle", "ScaledCocycle", "canonical_cocycle",
        "check_cocycle_identity", "coboundary", "cocycle_index", "commutator_defect",
        "monomial_flow", "monomial_word",
    ]),
    ("metabelian", [
        "FoxImage", "MetabelianElement", "fox_image", "pair_element", "plaquette_element",
        "word_problem",
    ]),
    ("nilpotent", ["HeisenbergElement", "word_is_trivial"]),
]


def test_all_lists_every_public_name_once_in_order():
    names = [name for _, names in EXPORTS for name in names]
    assert len(names) == 50
    assert latticegroups.__all__ == [*names, "satellite", "__version__"]


def test_each_name_is_the_object_its_submodule_defines():
    for module_name, names in EXPORTS:
        module = importlib.import_module(f"latticegroups.{module_name}")
        for name in names:
            assert getattr(latticegroups, name) is getattr(module, name), name
    assert latticegroups.satellite is importlib.import_module("latticegroups.satellite")


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from latticegroups import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(latticegroups.__all__)


def test_dir_adds_only_the_export_table():
    # Besides __all__, the package holds its submodules, its module dunders
    # and the one private table the names are bound from.
    others = {
        name
        for name in dir(latticegroups)
        if name not in latticegroups.__all__
        and not (name.startswith("__") and name.endswith("__"))
        and not isinstance(getattr(latticegroups, name), ModuleType)
    }
    assert others == {"_EXPORTS"}
