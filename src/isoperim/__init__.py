"""Isoperimetric constants phi_p of finite Markov chains.

The library computes the interpolating family of isoperimetric constants

    phi_p(S) = sum_{v in S} pi(v) P(v, S-bar)^p / pi(S),   0 <= p <= 1,

(edge conductance at p = 1, vertex expansion at p = 0) together with second
eigenvalues of the reversible normalized Laplacian and of Chung's directed
Laplacian, sweep-cut certificates meeting the Cheeger-type guarantee
phi_p^2 <= 4 lambda_2 / (2p - 1) for p > 1/2, machine checks of the classical
inequalities relating the two worlds, and the inverse-cube circulant family
on which phi_{1/2} / sqrt(lambda_2) grows without bound.
"""

__version__ = "0.1.0"

from . import errors
from .bounds import (
    BoundReport,
    ChainAnalysis,
    bound_suite,
    check_cheeger,
    check_chung,
    check_morris_peres,
    check_phi_p_upper_bound,
    conjecture_ratio,
    geometric_chain_sum,
    make_report,
    power_increment_supremum,
)
from .chains import (
    MarkovChain,
    WeightedGraph,
    chain_from_directed,
    chain_from_matrix,
    chain_from_undirected,
    exact_enumeration_cap,
    is_irreducible,
    is_reversible,
    lazy_transform,
    stationary_distribution,
)
from .cuts import (
    CutResult,
    PhiProfile,
    exact_minima,
    phi_p_exact,
    phi_p_of_set,
    phi_profile,
    sweep_cut,
    sweep_cuts,
)
from .families import (
    HypercubeQuantities,
    PartitionBlocks,
    ScanRow,
    arc_phi_half,
    block_log_sum,
    block_merge_residual,
    check_block_lower_bound,
    circulant_lambda2,
    cycle_graph,
    dumbbell_graph,
    gen_cycle,
    gen_dumbbell,
    gen_ht_counterexample,
    gen_hypercube,
    gen_random_directed,
    gen_random_reversible,
    ht_counterexample_graph,
    hypercube_graph,
    hypercube_quantities,
    kernel_weights,
    normalizer,
    random_directed_graph,
    random_reversible_graph,
    scaling_scan,
    sqrt_crossweight,
)
from .io import AnalysisReport, as_chain, emit_report, load_chain, parse_graph, write_graph_tsv
from .spectral import (
    SpectralCertificate,
    chung_laplacian,
    lambda2_directed,
    lambda2_reversible,
    symmetric_eigensolve,
    truncated_eigenvector,
    truncated_rayleigh,
)
