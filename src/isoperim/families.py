"""Benchmark chain families and the inverse-cube circulant counterexample.

The star of the module is the cyclic chain on [n] with transition weights

    P(i, j) = 1 / ( C * min{|i-j|, n-|i-j|}^3 ),   C = sum_d 1/min(d, n-d)^3,

a 1-regular weighted graph (uniform stationary distribution, reversible).
Along this family lambda_2(I - P) shrinks like log(n)/n^2 while phi_{1/2}
stays of order log(n)/n, so the ratio phi_{1/2}/sqrt(lambda_2) grows without
bound: no universal inequality phi_{1/2} <= O(sqrt(lambda_2)) can hold.

Everything needed to certify that at scale is here: analytic circulant
eigenvalues (DFT of the first row), exact arc values of phi_{1/2} from kernel
prefix sums without materializing the matrix, the block lower-bound function
h for cyclic 2-colorings with its merge identity, and a scan emitting the
scaled table rows. One cached builder, ``_kernel(n)``, computes the kernel,
its prefix sums and C; every function here reads them from it.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import numbers
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .bounds import BoundReport
from .chains import MAX_STATES, MarkovChain, WeightedGraph, _integer, _kept, check_states, vertex_ids
from .errors import InputError, TooLarge

# Largest n of the scan. The arc minimum costs O(n) when its certificate rules
# out every shorter arc, as it does on this family; each arc it cannot rule
# out costs O(n) more, so the cap bounds that fallback at O(n^2).
SCAN_MAX_N = 2**16
# Largest hypercube dimension built: 2^d <= MAX_STATES states.
_HYPERCUBE_MAX_D = MAX_STATES.bit_length() - 1


# --------------------------------------------------------------------------
# inverse-cube circulant family
# --------------------------------------------------------------------------

def _kahan_cumsum(x: np.ndarray) -> np.ndarray:
    """Compensated running sum; keeps kernel prefix tails accurate.

    Kept on purpose: ``np.cumsum`` moves ``arc_phi_half`` by up to about
    5e-11 relative (n = 4096: 3.7528998506785307e-03 becomes
    3.7528998508551477e-03), which changes the bytes ``scan`` writes.
    """
    out = []
    total = 0.0
    comp = 0.0
    for xi in x.tolist():
        y = xi - comp
        t = total + y
        comp = (t - total) - y
        total = t
        out.append(total)
    return np.array(out)


@functools.lru_cache(maxsize=1)
def _kernel(n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The one owner of the family's derived values: the kernel
    w[d] = 1/min(d, n-d)^3 (w[0] = 0), its prefix sums W[m] = sum_{j<=m} w[j]
    (W[0] = 0) and C = sum_d w[d], read-only and kept for the last n."""
    d = np.arange(n)
    m = np.minimum(d, n - d).astype(float)
    w = np.zeros(n)
    w[1:] = 1.0 / m[1:] ** 3
    prefix = np.concatenate([[0.0], _kahan_cumsum(w[1:])])
    w.setflags(write=False)
    prefix.setflags(write=False)
    return w, prefix, math.fsum(w[1:].tolist())


def normalizer(n: int) -> float:
    """C = sum_{d=1}^{n-1} 1/min(d, n-d)^3, the row weight making P stochastic, for n >= 3."""
    n = _integer(n, "vertex count")
    if n < 3:
        raise InputError(f"family needs n >= 3, got {n}")
    return _kernel(n)[2]


def _circulant(n: int) -> np.ndarray:
    """The family's P, read-only: row i is the kernel rolled by i, divided by C."""
    w, _, C = _kernel(n)
    P = w[(np.arange(n) - np.arange(n)[:, None]) % n]
    P /= C
    P.setflags(write=False)
    return P


def gen_ht_counterexample(n: int) -> MarkovChain:
    """The inverse-cube circulant chain on n >= 3 vertices.

    Rows are cyclic shifts of the kernel divided by C, so the chain is
    symmetric, doubly stochastic, reversible, and has uniform pi; C is
    ``normalizer(n)``.
    """
    n = _integer(n, "vertex count")
    if n < 3:
        raise InputError(f"family needs n >= 3, got {n}")
    check_states(n)
    return MarkovChain(_circulant(n), np.full(n, 1.0 / n), "undirected-graph")


def circulant_lambda2(first_row: Sequence[float]) -> float:
    """Smallest nonzero-frequency eigenvalue of a symmetric circulant.

    The rows a must satisfy a[d] == a[n-d] so the spectrum is real; the
    eigenvalues are the DFT of the first row and the value returned is
    min over k != 0 of sum_d a[d] cos(2 pi k d / n). Feed the first row of
    I - P to get lambda_2 of the chain.
    """
    a = _kept(first_row, "first row")
    if a.ndim != 1 or a.size < 2:
        raise InputError("first row must be a vector of length >= 2")
    if not np.all(np.isfinite(a)):
        raise InputError("first row has non-finite entries")
    scale = max(float(np.abs(a).max()), 1e-300)
    if np.max(np.abs(a[1:] - a[1:][::-1])) > 1e-12 * scale:
        raise InputError("first row must satisfy a[d] == a[n-d]")
    eigs = np.fft.fft(a).real
    return float(eigs[1:].min())


def arc_phi_half(n: int, l: int) -> float:
    """phi_{1/2} of the contiguous arc {1..l} in the inverse-cube chain.

    Uses kernel prefix sums, never materializing P: for arc vertex v the
    crossing mass is (W[n-v] - W[l-v]) / C, and with uniform pi

        phi_{1/2} = (1/l) * sum_{v=1}^{l} sqrt(P(v, complement)).
    """
    n, l = _integer(n, "vertex count"), _integer(l, "arc length")
    if n < 3:
        raise InputError(f"family needs n >= 3, got {n}")
    if not (1 <= l <= n // 2):
        raise InputError(f"arc length must satisfy 1 <= l <= n/2, got l={l}, n={n}")
    _, prefix, C = _kernel(n)
    return float(_arc_sqrt_cross(n, l, prefix, C).sum()) / l


def _arc_sqrt_cross(n: int, l: int, prefix: np.ndarray, C: float) -> np.ndarray:
    """sqrt(P(v, complement)) for each vertex v of the arc {1..l}."""
    v = np.arange(1, l + 1)
    cross = (prefix[n - v] - prefix[l - v]) / C
    return np.sqrt(np.maximum(cross, 0.0))


def _arc_min_phi_half(n: int, prefix: np.ndarray, C: float) -> float:
    """min over l = 1..n//2 of phi_{1/2} of the arc {1..l}, certified from
    the longest arc.

    Let x_l be the terms ``_arc_sqrt_cross(n, l, ...)`` and L = n // 2. When
    C > 0 and ``prefix`` is finite and nondecreasing, each term is monotone
    in both prefix entries it reads, so a shorter arc dominates the longest
    one from both ends: x_l[v] >= x_L[v] and x_l[l-1-j] >= x_L[L-1-j].
    Hence sum(x_l) >= lb(l) = head[l // 2] + tail[(l + 1) // 2], with head
    and tail the running sums of x_L from its two ends. An l with
    lb(l) (1 - s) / l > value(L) (1 + s), s = (2L + 4) eps, evaluates above
    value(L) whatever the summation and division rounding, so it is skipped.
    Every other l, or every l when the prefix fails the check, is evaluated
    as before, so the result is the float the loop over all l gives.
    """
    L = n // 2
    best = math.inf
    lengths = range(1, L + 1)
    if C > 0 and np.all(np.isfinite(prefix)) and np.all(np.diff(prefix) >= 0):
        x = _arc_sqrt_cross(n, L, prefix, C)
        best = float(x.sum()) / L
        head = np.concatenate([[0.0], np.cumsum(x)])
        tail = np.concatenate([[0.0], np.cumsum(x[::-1])])
        short = np.arange(1, L)
        s = (2 * L + 4) * np.finfo(float).eps
        lb = head[short // 2] + tail[(short + 1) // 2]
        lengths = short[lb * (1 - s) / short <= best * (1 + s)].tolist()
    for l in lengths:
        best = min(best, float(_arc_sqrt_cross(n, l, prefix, C).sum()) / l)
    return best


class ScanRow(NamedTuple):
    n: int
    lambda2: float
    phi_half_arc: float
    rho: float
    lambda2_scaled: float
    phi_scaled: float


def scaling_scan(n_list: Iterable[int], output: str | None = None) -> list[ScanRow]:
    """Growth table of the counterexample family, in ascending n.

    Columns: analytic lambda_2 of I - P, the minimum of phi_{1/2} over the
    arcs {1..l}, l <= n/2 (certified on each run from the arc of length
    n // 2, see ``_arc_min_phi_half``; an upper bound on the true value, since
    arcs are conjectured but not proven optimal among all sets),
    rho = phi_half_arc / sqrt(lambda2), and the scaled
    quantities lambda2 * n^2 / log n and phi_half_arc * n / log n. Writes CSV
    with full-precision scientific notation when ``output`` is given. An n
    above SCAN_MAX_N raises TooLarge before any row is computed.
    """
    ns = sorted({_integer(n, "vertex count") for n in n_list})
    if not ns:
        raise InputError("n_list must be nonempty")
    if ns[0] < 8:
        raise InputError(f"scan needs every n >= 8, got {ns[0]}")
    if ns[-1] > SCAN_MAX_N:
        raise TooLarge(f"scan supports n <= {SCAN_MAX_N}, got {ns[-1]}")
    rows: list[ScanRow] = []
    for n in ns:
        w, prefix, C = _kernel(n)
        first_row = -w / C
        first_row[0] = 1.0
        lam = circulant_lambda2(first_row)
        phi = _arc_min_phi_half(n, prefix, C)
        rows.append(
            ScanRow(
                n=n,
                lambda2=lam,
                phi_half_arc=phi,
                rho=phi / math.sqrt(lam),
                lambda2_scaled=lam * n * n / math.log(n),
                phi_scaled=phi * n / math.log(n),
            )
        )
    if output is not None:
        lines = ["n,lambda2,phi_half_arc,rho,lambda2_scaled,phi_scaled"]
        for r in rows:
            lines.append(
                f"{r.n},{r.lambda2:.16e},{r.phi_half_arc:.16e},{r.rho:.16e},"
                f"{r.lambda2_scaled:.16e},{r.phi_scaled:.16e}"
            )
        with open(output, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return rows


# --------------------------------------------------------------------------
# standard families
# --------------------------------------------------------------------------

def _graph(n: int, edges: np.ndarray, directed: bool = False) -> WeightedGraph:
    """Graph of a fresh float64 (m, 3) array of (u, v, w) rows, frozen so that
    the graph keeps it without a copy."""
    edges.setflags(write=False)
    return WeightedGraph(n=n, edges=edges, directed=directed)


def cycle_graph(n: int) -> WeightedGraph:
    """Unit-weight ring on n >= 3 vertices."""
    n = _integer(n, "vertex count")
    if n < 3:
        raise InputError(f"cycle needs n >= 3, got {n}")
    check_states(n)
    u = np.append(np.arange(n - 1), 0)
    v = np.append(np.arange(1, n), n - 1)
    return _graph(n, np.column_stack([u, v, np.ones(n)]))


def hypercube_graph(d: int) -> WeightedGraph:
    """Unit-weight boolean hypercube Q_d; 2^d vertices, d-regular."""
    d = _integer(d, "dimension")
    if d < 1:
        raise InputError(f"hypercube needs d >= 1, got {d}")
    if d > _HYPERCUBE_MAX_D:
        raise InputError(f"hypercube supports d <= {_HYPERCUBE_MAX_D}, got {d}")
    x, i = np.divmod(np.arange(d << d), d)  # every (vertex, bit), vertex-major
    low = (x >> i) & 1 == 0
    x, i = x[low], i[low]
    return _graph(1 << d, np.column_stack([x, x ^ (1 << i), np.ones(x.size)]))


def dumbbell_graph(m: int) -> WeightedGraph:
    """Two complete graphs K_m joined by a single unit edge (vertices m-1, m)."""
    m = _integer(m, "bell size")
    if m < 3:
        raise InputError(f"dumbbell needs m >= 3, got {m}")
    check_states(2 * m)
    u, v = np.triu_indices(m, k=1)
    edges = np.vstack([np.column_stack([u, v]), np.column_stack([u + m, v + m]), [[m - 1, m]]])
    return _graph(2 * m, np.column_stack([edges, np.ones(len(edges))]))


def ht_counterexample_graph(n: int) -> WeightedGraph:
    """The inverse-cube kernel as an explicit weighted edge list."""
    n = _integer(n, "vertex count")
    if n < 3:
        raise InputError(f"family needs n >= 3, got {n}")
    check_states(n)
    u, v = np.triu_indices(n, k=1)
    edges = np.column_stack([u, v, _kernel(n)[0][v - u]])
    del u, v  # only the edge array is alive while the graph checks it
    return _graph(n, edges)


def _random_weights(n: int, density: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded uniform(0,1) weights and a mask keeping each entry with
    probability ``density``, both n x n."""
    if not isinstance(density, numbers.Real):
        raise InputError(f"density must be a number, got {density!r}")
    if not 0.0 <= density <= 1.0:
        raise InputError(f"density must be a number in [0, 1], got {density}")
    seed = _integer(seed, "seed")
    if seed < 0:
        raise InputError(f"seed must be a nonnegative integer, got {seed}")
    check_states(n)
    rng = np.random.default_rng(seed)
    return rng.random((n, n)), rng.random((n, n)) < density


def random_reversible_graph(n: int, density: float = 0.5, seed: int = 0) -> WeightedGraph:
    """Seeded random connected weighted graph.

    Symmetric uniform(0,1) weights kept independently with probability
    ``density``, plus a Hamiltonian cycle that is always kept, so the walk is
    irreducible for every draw.
    """
    n = _integer(n, "vertex count")
    if n < 3:
        raise InputError(f"random family needs n >= 3, got {n}")
    weights, keep = _random_weights(n, density, seed)
    keep = np.triu(keep, k=1) | np.eye(n, k=1, dtype=bool)
    keep[0, n - 1] = True
    u, v = np.nonzero(keep)
    return _graph(n, np.column_stack([u, v, weights[u, v]]))


def random_directed_graph(n: int, density: float = 0.5, seed: int = 0) -> WeightedGraph:
    """Seeded random strongly connected directed graph (directed uniform
    weights kept with probability ``density`` plus the directed ring)."""
    n = _integer(n, "vertex count")
    if n < 2:
        raise InputError(f"random directed family needs n >= 2, got {n}")
    weights, keep = _random_weights(n, density, seed)
    i = np.arange(n)
    keep[i, (i + 1) % n] = True
    keep[i, i] = False
    u, v = np.nonzero(keep)
    return _graph(n, np.column_stack([u, v, weights[u, v]]), directed=True)


# --------------------------------------------------------------------------
# the cross weight f(A, B), block partitions of the cycle and the log lower
# bound
# --------------------------------------------------------------------------

def sqrt_crossweight(c: MarkovChain, A: Iterable[int], B: Iterable[int]) -> float:
    """f(A, B) = sum_{u in A} sqrt(P(u, B)) for disjoint vertex sets.

    On the inverse-cube chain with B the complement of A this equals
    |A| * phi_{1/2}(A) because pi is uniform.
    """
    a = np.unique(vertex_ids(A))
    b = np.unique(vertex_ids(B))
    if a.size == 0 or b.size == 0:
        raise InputError("both sets must be nonempty")
    if np.intersect1d(a, b).size:
        raise InputError("sets must be disjoint")
    if a.min() < 0 or a.max() >= c.n or b.min() < 0 or b.max() >= c.n:
        raise InputError("vertex out of range")
    cross = c.P[np.ix_(a, b)].sum(axis=1)
    return math.fsum(np.sqrt(np.maximum(cross, 0.0)).tolist())


@dataclasses.dataclass(frozen=True)
class PartitionBlocks:
    """Alternating contiguous block sizes (a1, b1, ..., ak, bk) on the cycle.

    Walking clockwise from vertex 0: the first a1 vertices belong to side A,
    the next b1 to side B, and so on. Zero sizes are legal only transiently
    (they appear mid merge); a canonical partition has all sizes positive.
    """

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            sizes = tuple(self.sizes)
        except TypeError:  # a scalar, such as 5
            sizes = ()
        sizes = tuple(_integer(s, "block size") for s in sizes)
        if len(sizes) < 2 or len(sizes) % 2 != 0:
            raise InputError("sizes must alternate (a1, b1, ..., ak, bk) with k >= 1")
        if any(s < 0 for s in sizes):
            raise InputError("block sizes must be nonnegative")
        if sum(sizes) <= 0:
            raise InputError("total size must be positive")
        object.__setattr__(self, "sizes", sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def k(self) -> int:
        return len(self.sizes) // 2

    @property
    def is_canonical(self) -> bool:
        return all(s > 0 for s in self.sizes)

    def vertex_sets(self) -> tuple[list[int], list[int]]:
        """(A, B) as 0-based vertex lists, walking the cycle from vertex 0."""
        a: list[int] = []
        b: list[int] = []
        pos = 0
        for j, size in enumerate(self.sizes):
            target = a if j % 2 == 0 else b
            target.extend(range(pos, pos + size))
            pos += size
        return a, b

    @classmethod
    def from_membership(cls, in_a: Sequence[bool]) -> "PartitionBlocks":
        """Build from a cyclic 2-coloring; vertex 0 must be in A and the last
        vertex in B so the block list starts with an A run."""
        flags = [bool(x) for x in in_a]
        if not flags or not flags[0] or flags[-1]:
            raise InputError("coloring must start in A and end in B")
        return cls(sizes=tuple(len(list(run)) for _, run in itertools.groupby(flags)))


def block_log_sum(pb: PartitionBlocks) -> float:
    """The cyclic-block function h lower-bounding sqrt(2C) f(A, B).

    Sums +/- log(|[S, T]| + 1) over every ordered contiguous block [S, T]
    spanning 1..2k-1 consecutive sets (single sets included, the full wrap
    excluded), positive when the block has an odd number of sets and negative
    otherwise, minus k log(n + 1). For k = 1 this is
    log(a1 + 1) + log(b1 + 1) - log(n + 1); merging across a zero-size block
    leaves the value unchanged and the split x -> (x, b1, s - x, ...) is
    concave, so minima sit at contiguous configurations.
    """
    sizes = pb.sizes
    m = len(sizes)
    k = pb.k
    n = pb.n
    ext = np.concatenate([sizes, sizes]).astype(float)
    cum = np.concatenate([[0.0], np.cumsum(ext)])
    terms = []
    for s in range(m):
        for cnt in range(1, m):
            size = cum[s + cnt] - cum[s]
            term = math.log(size + 1.0)
            terms.append(term if cnt % 2 == 1 else -term)
    terms.append(-k * math.log(n + 1.0))
    return math.fsum(terms)


def block_merge_residual(pb: PartitionBlocks) -> float:
    """|h(original) - h(merged)| for a partition with exactly one zero block.

    Removing the zero block merges its two same-side neighbours; the value of
    block_log_sum is invariant under this merge (the residual is fp noise,
    <= 1e-12).
    """
    sizes = list(pb.sizes)
    zeros = [i for i, s in enumerate(sizes) if s == 0]
    if len(zeros) != 1:
        raise InputError(f"expected exactly one zero block, found {len(zeros)}")
    if pb.k == 1:
        raise InputError("k = 1 leaves no valid merge target")
    z = zeros[0]
    rot = sizes[z:] + sizes[:z]  # zero block first; h is rotation-invariant
    rest = rot[1:]
    merged = PartitionBlocks(sizes=tuple([rest[0] + rest[-1]] + rest[1:-1]))
    return abs(block_log_sum(pb) - block_log_sum(merged))


def check_block_lower_bound(c: MarkovChain, pb: PartitionBlocks) -> BoundReport:
    """h(blocks) <= sqrt(2C) f(A, B) on the inverse-cube chain.

    The blocks must describe an actual 2-coloring of the chain's cycle (all
    sizes positive, total n), and every row of the chain's P must be within
    1e-12 of the family's P, built as ``gen_ht_counterexample`` builds it,
    before both sides are evaluated.
    """
    if pb.n != c.n:
        raise InputError(f"blocks cover {pb.n} vertices but the chain has {c.n}")
    if not pb.is_canonical:
        raise InputError("blocks must all be nonempty to describe a coloring")
    if not np.allclose(c.P, _circulant(c.n), rtol=0.0, atol=1e-12):
        raise InputError("chain is not the inverse-cube circulant family")
    A, B = pb.vertex_sets()
    lhs = block_log_sum(pb)
    rhs = math.sqrt(2.0 * normalizer(c.n)) * sqrt_crossweight(c, A, B)
    return BoundReport("block_log_lower_bound", lhs, rhs)
