"""
The package's public surface: each library module's ``__all__`` declares
its public names, and ``stackwords`` re-exports exactly their union.
"""
import ast
import importlib
import pathlib

import pytest

import stackwords

MODULES = ("counting", "growth", "machine", "perms", "words")

# Public module-level constants that stay unexported.
UNEXPORTED = {"growth": {"MAXIMIZER_METHODS"}, "words": {"MOVE_LETTERS"}}

PUBLIC = [
    "DEFAULT_ENUMERATION_LIMIT",
    "GrowthMaximum",
    "MAX_STACKS",
    "MachineStep",
    "MachineSteps",
    "Perm",
    "SeriesRun",
    "StackWord",
    "all_permutations",
    "bound_nth_root",
    "bound_summand",
    "brute_force_count",
    "brute_force_image_descent_counts",
    "catalan",
    "check_permutation",
    "contains_pattern",
    "count_factor",
    "critical_point",
    "decode",
    "default_alphabet",
    "descent_count",
    "encode",
    "enumerate_a_placements",
    "forbidden_factor_violations",
    "format_permutation",
    "growth_rate",
    "growth_rate_unsimplified",
    "image_fertilities",
    "image_tally",
    "image_word",
    "is_genuine_word",
    "is_identity",
    "is_t_stack_sortable",
    "iterate_stack_sort",
    "maximize_growth_rate",
    "min_sorting_passes",
    "parse_permutation",
    "run_series_machine",
    "stack_sort",
    "stack_sort_preimages",
    "summand_nth_root",
    "three_stack_bound",
    "trivial_bound",
    "two_stack_count",
    "two_stack_count_by_descents",
    "validate_word",
]


def _module(name):
    return importlib.import_module(f"stackwords.{name}")


def test_the_package_exports_the_pinned_list_in_order():
    assert stackwords.__all__ == PUBLIC


@pytest.mark.parametrize("name", MODULES)
def test_each_export_is_the_defining_modules_object(name):
    module = _module(name)
    for public in module.__all__:
        assert getattr(stackwords, public) is getattr(module, public)


def test_the_module_lists_are_disjoint_and_make_up_the_package_list():
    names = [public for name in MODULES for public in _module(name).__all__]
    assert len(names) == len(set(names))
    assert sorted(names) == stackwords.__all__


@pytest.mark.parametrize("name", MODULES)
def test_every_public_def_and_class_is_exported(name):
    module = _module(name)
    tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
    defined = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    assert defined <= set(module.__all__)
    for constant in UNEXPORTED.get(name, ()):
        assert hasattr(module, constant) and constant not in module.__all__


def test_star_import_binds_exactly_the_list():
    namespace = {}
    exec("from stackwords import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(stackwords.__all__)
