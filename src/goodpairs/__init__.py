"""Arc-disjoint out-/in-branching pairs ("good pairs") in digraph compositions.

The package provides a polynomial constructor for compositions with a strong
outer digraph and all blobs of size at least two, a linear-time decision for
semicomplete compositions through the closed-neighbourhood reduction, and an
exact exponential oracle used as ground truth at small scale.
"""

from .composition import (
    BlobVertex,
    CompositionSpec,
    is_semicomplete,
    materialize,
    validate_for_construction,
)
from .construct import (
    construct_good_pair,
    extend_layers,
    skeleton_good_pair,
)
from .digraph import (
    Branching,
    DiGraph,
    GoodPair,
    cycle_through,
    is_strong,
    verify_branching,
    verify_good_pair,
)
from .generate import gen_composition, gen_semicomplete, gen_strong_digraph
from .oracle import Decision, decide_good_pair_exact, enumerate_out_branchings
from .semicomplete import (
    closed_neighborhood_restriction,
    decide_root_adjacent,
    decide_semicomplete,
    lift_good_pair,
    shrink_good_pair,
)

__all__ = [
    "BlobVertex",
    "Branching",
    "CompositionSpec",
    "Decision",
    "DiGraph",
    "GoodPair",
    "closed_neighborhood_restriction",
    "construct_good_pair",
    "cycle_through",
    "decide_good_pair_exact",
    "decide_root_adjacent",
    "decide_semicomplete",
    "enumerate_out_branchings",
    "extend_layers",
    "gen_composition",
    "gen_semicomplete",
    "gen_strong_digraph",
    "is_semicomplete",
    "is_strong",
    "lift_good_pair",
    "materialize",
    "shrink_good_pair",
    "skeleton_good_pair",
    "validate_for_construction",
    "verify_branching",
    "verify_good_pair",
]

__version__ = "0.1.0"
