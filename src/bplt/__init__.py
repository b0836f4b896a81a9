"""Lower-tail and non-existence rates for p-random subsets of k-uniform
hypergraphs via belief propagation, validated against exact oracles."""

from .bp import (
    BPParams,
    Thresholds,
    bethe_free_energy,
    bp_apply,
    bp_fixed_point,
    bp_log_partition,
    bp_lower_tail_rate,
    contraction_margin,
    lambert_w0,
    regular_fixed_point,
    solve_zeta,
    solve_zeta_regular,
    thresholds,
)
from .errors import ConvergenceError, DomainError, SizeGuardError
from .gibbs import (
    GibbsSummary,
    ModelParams,
    glauber_marginals,
    lower_tail_exact,
    mc_lower_tail,
    partition_function,
    summarize,
    verify_identities,
)
from .hypergraph import (
    Multihypergraph,
    TreeLikeReport,
    degree_stats,
    is_linear_hypertree,
    parse_hypergraph,
    relabel_vertices,
    write_hypergraph,
)
from .progressions import (
    ap_degree,
    ap_hypergraph,
    degree_coefficient,
    discrete_profile_gap,
    kap_marginal_check,
    kap_rate,
    kap_rate_bethe,
    phi_apply,
    phi_fixed_point,
    phi_threshold,
)
from .rates import (
    SimpleGraph,
    SubgraphProfile,
    copies_per_edge,
    named_graph,
    rate_gnm,
    rate_gnp,
    subgraph_hypergraph,
    subgraph_profile,
    subgraph_rate,
)
from .weitz import (
    LabeledHypertree,
    build_saw_tree,
    build_weitz_tree,
    tree_ratio,
    tree_root_marginal,
    weitz_equality_residual,
)

__version__ = "0.1.0"
