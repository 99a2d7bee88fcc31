"""
Stack sorting, stack words, and exact enumeration of t-stack sortable
permutations, with the asymptotic machinery for the 3-stack upper bound.
"""

from .counting import (
    binomial,
    brute_force_count,
    brute_force_image_descent_counts,
    catalan,
    three_stack_bound,
    trivial_bound,
    two_stack_count,
    two_stack_count_by_descents,
)
from .growth import (
    GrowthMaximum,
    bound_nth_root,
    critical_point,
    growth_rate,
    growth_rate_unsimplified,
    maximize_growth_rate,
    summand_nth_root,
)
from .machine import (
    MachineStep,
    SeriesRun,
    encode,
    is_genuine_word,
    is_t_stack_sortable,
    iterate_stack_sort,
    min_sorting_passes,
    run_series_machine,
    stack_sort,
)
from .perms import (
    DEFAULT_ENUMERATION_LIMIT,
    Perm,
    all_permutations,
    check_permutation,
    contains_pattern,
    descent_count,
    format_permutation,
    is_identity,
    parse_permutation,
)
from .words import (
    MAX_STACKS,
    StackWord,
    count_factor,
    decode,
    default_alphabet,
    enumerate_a_placements,
    forbidden_factor_violations,
    image_word,
    validate_word,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ENUMERATION_LIMIT",
    "GrowthMaximum",
    "MAX_STACKS",
    "MachineStep",
    "Perm",
    "SeriesRun",
    "StackWord",
    "all_permutations",
    "binomial",
    "bound_nth_root",
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
    "summand_nth_root",
    "three_stack_bound",
    "trivial_bound",
    "two_stack_count",
    "two_stack_count_by_descents",
    "validate_word",
]
