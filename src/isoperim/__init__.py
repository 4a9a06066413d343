"""Isoperimetric constants phi_p of finite Markov chains.

The library computes the interpolating family of isoperimetric constants

    phi_p(S) = sum_{v in S} pi(v) P(v, S-bar)^p / pi(S),   0 <= p <= 1,

(edge conductance at p = 1, vertex expansion at p = 0) together with second
eigenvalues of the reversible normalized Laplacian and of Chung's directed
Laplacian, sweep-cut certificates meeting the Cheeger-type guarantee
phi_p^2 <= 4 s lambda_2 / (2p - 1) for p > 1/2 (s = 1 for reversible and
s = 2 for directed certificates), machine checks of the classical
inequalities relating the two worlds, and the inverse-cube circulant family
on which phi_{1/2} / sqrt(lambda_2) grows without bound.
"""

__version__ = "0.1.0"

from . import errors
from .bounds import (
    BoundReport,
    ChainAnalysis,
    bound_suite,
    geometric_chain_sum,
    power_increment_supremum,
)
from .chains import (
    MarkovChain,
    WeightedGraph,
    chain_from_graph,
    is_irreducible,
    is_reversible,
    lazy_transform,
)
from .cuts import (
    CutResult,
    PhiProfile,
    exact_minima,
    phi_p_of_set,
    phi_profile,
    sweep_cuts,
)
from .families import (
    PartitionBlocks,
    ScanRow,
    arc_phi_half,
    block_log_sum,
    block_merge_residual,
    check_block_lower_bound,
    circulant_lambda2,
    cycle_graph,
    dumbbell_graph,
    gen_ht_counterexample,
    ht_counterexample_graph,
    hypercube_graph,
    normalizer,
    random_directed_graph,
    random_reversible_graph,
    scaling_scan,
    sqrt_crossweight,
)
from .io import as_chain, emit_report, load_chain, parse_graph, write_graph_tsv
from .spectral import SpectralCertificate, chung_laplacian, truncated_eigenvector
