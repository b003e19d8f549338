"""Subgroup patterns and tables of marks of finite permutation groups.

The package computes, for a finite permutation group G, representatives
of the conjugacy classes of subgroups together with the table of marks
(the subgroup pattern), either by extending the pattern of a normal
subgroup of prime index step by step along a composition series, or by
a brute-force subgroup-lattice oracle used for cross-validation.
"""

from .groups import (
    PermGroup,
    Subgroup,
    composition_series,
    is_solvable,
    normalizer,
)
from .extension import (
    ExtensionContext,
    extend_classes,
    extension_elements,
    outer_classes,
    split_inner_classes,
)
from .marks import (
    SubgroupPattern,
    extend_table_of_marks,
    solvable_pattern_chain,
    validate_pattern,
)
from .lattice import (
    compare_patterns,
    subgroup_classes_search,
    table_of_marks_brute,
)
from .catalog import CATALOG

__all__ = [
    "PermGroup", "Subgroup",
    "composition_series", "is_solvable", "normalizer",
    "ExtensionContext", "extend_classes", "extension_elements",
    "outer_classes", "split_inner_classes",
    "SubgroupPattern", "extend_table_of_marks",
    "solvable_pattern_chain",
    "validate_pattern",
    "compare_patterns", "subgroup_classes_search",
    "table_of_marks_brute",
    "CATALOG",
]

__version__ = "0.1.0"
