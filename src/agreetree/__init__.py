"""Agreement subtrees of binary phylogenetic trees.

Exact MAST oracles, guarantee-certified greedy matchers for balanced and
almost-balanced trees, caterpillar agreement via monotone subsequences, a
balanced-or-path decomposition, extremal constructions, and a reproducible
benchmark harness.  All logarithms are base 2; leaf labels are positive
integers; every operation is deterministic given its seeds.
"""

from ._rng import SplitMix64
from .bounds import (
    GuaranteeReport,
    alpha,
    alpha_k,
    beta,
    beta_k,
    f_closed,
    f_recurrence,
    fhk_upper,
    general_bound,
    match1_bound,
    match2_bound,
    optimal_delta_match1,
    optimal_delta_match2,
    phi,
    psi,
    t2_constant,
)
from .decompose import (
    RamseyOutcome,
    agree_general,
    caterpillar_agree,
    lis,
    max_caterpillar,
    ramsey_split,
)
from .exactmast import MastResult, mast_bruteforce, mast_floor, mast_rooted, mast_unrooted
from .generators import (
    RandomModel,
    enumerate_topologies,
    gen_balanced,
    gen_caterpillar,
    gen_class_b,
    gen_class_c,
    gen_extremal_fhk,
    gen_random,
    gen_swap_pair,
    relabel,
    swap_sequence,
)
from .matchers import (
    match1,
    match1_unrooted,
    match2,
    match2_multi,
    match2_unrooted,
    match_almost_balanced,
)
from .treecore import (
    BalanceClass,
    NewickError,
    RootedTree,
    TreeError,
    UnrootedTree,
    center,
    classify_balanced,
    is_caterpillar,
    parse_newick,
    radius,
    root_at_edge,
    to_newick,
    unroot,
)
from .treeops import (
    AgreementCertificate,
    AgreementError,
    extract_balanced,
    is_isomorphic,
    is_subtree,
    join,
    lca,
    max_balanced_height,
    restrict,
    verify_agreement,
)

__version__ = "0.1.0"
