"""Finite-level covering theory for graphs with darts.

Serre-style finite graphs, their morphisms and congruences; free-group
subgroups as coset actions; coverings with lifts, monodromy, and deck
groups; and truncated towers of coverings approximating inverse limits.
"""

from .graphs import (
    Congruence,
    CongruenceError,
    FiniteGraph,
    GraphError,
    GraphMorphism,
    InducedMapError,
    Pi1Data,
    VerdictError,
    bouquet_graph,
    components,
    compose,
    cycle_graph,
    induced_quotient_map,
    is_connected,
    kernel_congruence,
    pi1_data,
    quotient,
    spanning_tree,
    validate_graph,
)
from .freegroup import (
    DEFAULT_MAX_WORK,
    FreeWord,
    GeneratorImages,
    PermRep,
    ResourceLimitError,
    is_normal,
    low_index_reps,
    pushforward_leq,
    rep_equivalent,
    subgroup_count,
    subgroup_leq,
    substitute,
    translation_kernel_rep,
)
from .covering import (
    ActionError,
    Covering,
    DeckGroup,
    GroupAction,
    LiftObstruction,
    NotACoveringError,
    RegularityReport,
    action_deck_indices,
    as_covering,
    cover_from_subgroup,
    deck_group,
    image_subgroup,
    is_regular,
    lift,
    quotient_by_deck_subgroup,
    quotient_by_group,
)
from .towers import (
    CompatibilityError,
    GoodPairRecord,
    Tower,
    TowerError,
    UniversalSpec,
    classify_pair,
    deck_tower,
    induced_hom,
    kernel_good_pairs,
    limit_fiber_report,
    pi1_triviality_check,
    universal_tower,
    validate_tower,
    validate_tower_pieces,
)

__version__ = "0.1.0"
