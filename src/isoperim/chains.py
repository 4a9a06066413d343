"""Finite Markov chains built from weighted graphs or raw transition matrices.

A chain bundles the row-stochastic transition matrix P, the stationary
distribution pi (strictly positive, sums to 1), and an origin tag recording
how it was constructed. States are 0-based everywhere in the library; file
formats use 1-based ids and convert at the I/O boundary.

All values are immutable after construction (arrays are frozen), so chains
can be shared freely across threads.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Iterable

import numpy as np

from .errors import InputError, NumericalFailure, TooLarge

# Transition probabilities below this are structural zeros when building support digraphs.
STRUCTURAL_ZERO = 1e-15
# A set is admissible (at most half the stationary mass) when pi(S) <= 1/2 + MASS_SLACK.
MASS_SLACK = 1e-12
ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10
REVERSIBILITY_TOL = 1e-10
# Largest graph built: its n x n weight matrix takes 2 GiB.
MAX_STATES = 2**14
_REVERSIBLE_ROWS = 64  # rows of the flows F = Pi P that is_reversible compares at once


def check_states(n: int) -> None:
    """Raise TooLarge when n states exceed MAX_STATES."""
    if n > MAX_STATES:
        raise TooLarge(f"{n} states exceed the limit of {MAX_STATES}")


def _integer(v, what: str) -> int:
    """v as an int when it is integral (3, 3.0, np.float64(3.0)); anything
    else (0.7, nan, inf, "3", None) raises InputError rather than being
    truncated or converted."""
    try:
        i = int(v)
        integral = i == v
    except (TypeError, ValueError, OverflowError):  # None, "a", nan, inf
        integral = False
    if not integral:
        raise InputError(f"{what} {v} is not an integer")
    return i


def vertex_ids(vertices: Iterable[int]) -> np.ndarray:
    """Vertex ids as an int64 array, each taken as :func:`_integer` takes it."""
    return np.array([_integer(v, "vertex id") for v in vertices], dtype=np.int64)


def _kept(x) -> np.ndarray:
    """x itself when it is a frozen float64 ndarray, else a frozen float64
    copy: how a value object holds an array it is handed."""
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64 and not x.flags.writeable):
        x = np.array(x, dtype=float)
        x.setflags(write=False)
    return x


def edge_fault(edges: np.ndarray, n: int, directed: bool) -> tuple[int, str] | None:
    """First faulty row of an (m, 3) array of (u, v, w) rows and its reason, or None.

    Rows are checked in the order of the table below; n <= MAX_STATES. The
    reason is a template over the row's ``{u}``, ``{v}``, ``{w}`` and the id range ``{ids}``.
    """
    u, v, w = edges.T
    ids_ok = (u == np.floor(u)) & (v == np.floor(v)) & (np.minimum(u, v) >= 0) & (np.maximum(u, v) < n)
    # key u n + v, built in place; rows with bad ids get distinct negative keys,
    # so only valid pairs repeat, and a stable sort puts each first occurrence first
    key = np.zeros(len(edges))
    np.multiply(u, n, out=key, where=ids_ok)
    np.add(key, v, out=key, where=ids_ok)
    key[~ids_ok] = -1.0 - np.flatnonzero(~ids_ok)
    order = np.argsort(key, kind="stable")
    key = key[order]
    repeated = np.zeros(len(edges), dtype=bool)
    repeated[order[1:]] = key[1:] == key[:-1]
    del key, order  # freed before the fault masks are stacked
    checks = [
        (~ids_ok, "edge ({u}, {v}) has a vertex id outside {ids}"),
        (~np.isfinite(w), "weight {w} is not a finite number"),
        (w < 0, "negative weight {w}"),
        ((u > v) & (not directed), "undirected edge ({u}, {v}) must be stored with u < v"),
        (repeated, "duplicate edge ({u}, {v})" + ("" if directed else " (undirected edges are stored once)")),
    ]
    faults = np.stack([mask for mask, _ in checks])
    bad = faults.any(axis=0)
    if not bad.any():
        return None
    row = int(bad.argmax())
    return row, checks[int(faults[:, row].argmax())][1]


@dataclasses.dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Edge-list graph with nonnegative weights.

    ``n`` is taken as :func:`_integer` takes it. ``edges`` takes (u, v, w)
    triples and holds them as a frozen (m, 3) float64 array (:func:`_kept`).
    Undirected graphs store each edge once with u < v. A self-loop
    contributes its weight once to the degree.
    """

    n: int
    edges: np.ndarray
    directed: bool = False

    def __post_init__(self) -> None:
        n = _integer(self.n, "vertex count")
        if n < 1:
            raise InputError("graph needs at least one vertex")
        check_states(n)
        object.__setattr__(self, "n", n)
        edges = _kept(self.edges)
        if edges.shape[1:] != (3,):
            edges = edges.reshape(len(edges), 3)
        fault = edge_fault(edges, self.n, self.directed)
        if fault is not None:
            row, reason = fault
            u, v, w = edges[row].tolist()
            raise InputError(f"edge {row}: " + reason.format(u=f"{u:g}", v=f"{v:g}", w=w, ids=f"0..{self.n - 1}"))
        object.__setattr__(self, "edges", edges)

    def weight_matrix(self) -> np.ndarray:
        """Dense weight matrix; symmetric for undirected graphs."""
        n = self.n
        w = self.edges[:, 2] + 0.0  # 0.0 + w: a -0.0 weight is stored as 0.0
        W = np.zeros((n, n))
        flat = W.reshape(-1)
        at = np.empty(len(w), dtype=np.intp)
        # (u, v), and (v, u) when undirected: a loop's weight is written twice to one entry, so it counts once
        for row, col in ((0, 1), (1, 0))[: 1 if self.directed else 2]:
            np.multiply(self.edges[:, row], n, out=at, casting="unsafe")
            np.add(at, self.edges[:, col], out=at, casting="unsafe")  # ids below 2^14 add exactly
            flat[at] = w
        return W


@dataclasses.dataclass(frozen=True, eq=False)
class MarkovChain:
    """Irreducible finite Markov chain (V, P, pi).

    The one validator of P. Construction checks, in this order, that len(P)
    is at most MAX_STATES, before P is converted, and that P is square with
    n = len(P) >= 2 rows, finite, entrywise in [-1e-14, 1 + 1e-12], has rows
    summing to 1 within 1e-12 once its entries in [-1e-14, 0), which are
    rounding, and -0.0 are set to 0.0, and has a strongly connected support
    digraph. Only then is pi solved for, when it is None; a given pi must be
    strictly positive with unit sum. Either way every entry is stationary to
    a relative 1e-10: |(pi^T P)_j - pi_j| <= 1e-10 pi_j.

    P and pi are held as :func:`_kept` holds them; P is copied once more
    when an entry has to be set to 0.0, so the caller's array is never
    written.
    """

    P: np.ndarray
    pi: np.ndarray | None = None
    origin: str = "raw-matrix"

    @property
    def n(self) -> int:
        """Number of states."""
        return len(self.P)

    def __post_init__(self) -> None:
        with contextlib.suppress(TypeError):  # a scalar has no len; it is refused below as not square
            check_states(len(self.P))
        P = _kept(self.P)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise InputError(f"P must be a square matrix, got shape {P.shape}")
        if P.shape[0] < 2:
            raise InputError(f"a chain needs at least 2 states, got {P.shape[0]}")
        if not np.all(np.isfinite(P)):
            raise InputError("P has non-finite entries")
        if P.min() < -1e-14 or P.max() > 1 + 1e-12:
            raise InputError("P entries must lie in [0, 1]")
        if np.signbit(P).any():  # entries in [-1e-14, 0) are rounding, and -0.0 is 0.0
            P = np.maximum(P, 0.0)
            P.setflags(write=False)
        rows = P.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > ROW_SUM_TOL:
            raise InputError("rows of P must sum to 1 within 1e-12")
        if not is_irreducible(P):
            raise InputError("P is not irreducible: its support digraph is not strongly connected")

        pi = _solve_stationary(P) if self.pi is None else _kept(self.pi)
        if pi.shape != (len(P),):
            raise InputError("pi has wrong shape")
        if pi.min() <= 0:
            raise InputError("pi must be strictly positive")
        if abs(pi.sum() - 1.0) > 1e-12:
            raise InputError("pi must sum to 1")
        if not _is_stationary(P, pi):
            raise NumericalFailure("pi is not stationary for P within a relative 1e-10 per entry")

        pi.setflags(write=False)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "pi", pi)


def _reaches_all(adj: np.ndarray) -> bool:
    """True iff every vertex is reachable from vertex 0 in the boolean digraph."""
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        nxt = adj[frontier].any(axis=0) & ~seen
        seen |= nxt
        frontier = nxt
    return bool(seen.all())


def is_irreducible(P: np.ndarray) -> bool:
    """Strong connectivity of {(i, j) : P(i, j) > 0}, by forward and reverse traversal."""
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise InputError(f"P must be a square matrix, got shape {P.shape}")
    support = P > STRUCTURAL_ZERO
    return _reaches_all(support) and _reaches_all(support.T)


def _is_stationary(P: np.ndarray, pi: np.ndarray) -> bool:
    """|(pi P)_j - pi_j| <= STATIONARY_TOL * pi_j for every j; false on NaN."""
    return bool(np.all(np.abs(pi @ P - pi) <= STATIONARY_TOL * pi))


def _gth(P: np.ndarray) -> np.ndarray:
    """Stationary vector of an irreducible P by Grassmann-Taksar-Heyman elimination, O(n^3).

    Each step censors one state, with the pivot summed from off-diagonal entries, so
    nothing is subtracted: every entry of pi has small relative error (O'Cinneide 1993)."""
    A = P.copy()
    n = A.shape[0]
    for k in range(n - 1, 0, -1):
        A[:k, k] /= A[k, :k].sum()
        A[:k, :k] += A[:k, k, None] * A[k, :k]
    x = np.ones(n)
    for k in range(1, n):
        x[k] = x[:k] @ A[:k, k]
    return x / x.sum()


def _solve_stationary(P: np.ndarray) -> np.ndarray:
    """Stationary vector of a validated irreducible row-stochastic P.

    A partial-pivoting LU solve of (P^T - I) x = 0, last row replaced by
    sum(x) = 1, is accurate only relative to the largest entry of pi. Its
    result is kept when every entry passes :func:`_is_stationary`; otherwise,
    or when LU finds the matrix singular, :func:`_gth` solves P.
    """
    n = P.shape[0]
    A = P.T.copy()
    A.flat[:: n + 1] -= 1.0
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        x = np.linalg.solve(A, b)
        if np.all(np.isfinite(x)) and x.min() > 0 and _is_stationary(P, pi := x / x.sum()):
            return pi
    except np.linalg.LinAlgError:
        pass
    return _gth(P)


def _walk(W: np.ndarray, directed: bool) -> MarkovChain:
    """Natural random walk on a finite nonnegative weight matrix W, symmetric
    unless ``directed``: W is divided by its row sums in place, frozen and
    handed to the chain.

    A degree (row sum) must be nonzero, however small, and finite; so must
    the degrees' total when undirected, which pi divides by.
    """
    with np.errstate(over="ignore"):
        deg = W.sum(axis=1)
        total = deg.sum()
    if deg.min() == 0:
        zero = "zero out-weight" if directed else "zero weighted degree"
        raise InputError(f"vertex {int(deg.argmin())} has {zero}")
    if not np.isfinite(deg).all():
        raise InputError(f"vertex {int(np.isinf(deg).argmax())} has a weighted degree past the float range")
    if not (directed or np.isfinite(total)):
        raise InputError("the weighted degrees sum past the float range")
    W /= deg[:, None]
    W.setflags(write=False)
    if directed:
        return MarkovChain(W, None, "directed-graph")
    return MarkovChain(W, deg / total, "undirected-graph")


def chain_from_graph(g: WeightedGraph) -> MarkovChain:
    """Natural random walk on a weighted graph: P(u, v) = w(uv) / deg_w(u).

    An undirected graph must be connected; its pi(u) = deg_w(u) / sum_v
    deg_w(v), and the chain satisfies detailed balance by construction. A
    directed graph must be strongly connected; its pi is solved for. Every
    degree must be nonzero and, with their total when undirected, finite.
    """
    return _walk(g.weight_matrix(), g.directed)


def is_reversible(c: MarkovChain) -> bool:
    """Detailed balance, pair by pair: |F_ij - F_ji| <= REVERSIBILITY_TOL * max(F_ij, F_ji)
    for the flows F = Pi P.

    This is S = Pi^{1/2} P Pi^{-1/2} symmetric entry by entry to the same
    relative tolerance, however small pi gets, so a reversible chain's I - S
    and Chung's Laplacian share their eigenpairs (``spectral``).
    """
    pi, P = c.pi, c.P
    for a in range(0, c.n, _REVERSIBLE_ROWS):  # F's rows a:b against F^T's, the same products
        b = a + _REVERSIBLE_ROWS
        F, Ft = pi[a:b, None] * P[a:b], (P[:, a:b] * pi[:, None]).T
        gap = F - Ft
        scale = np.maximum(F, Ft, out=F)
        if not np.all(np.abs(gap, out=gap) <= np.multiply(scale, REVERSIBILITY_TOL, out=scale)):
            return False
    return True


def lazy_transform(c: MarkovChain, delta: float) -> MarkovChain:
    """Interpolate toward the identity: P -> (1 - delta) I + delta P.

    The stationary vector is unchanged (the returned chain shares pi with the
    input); the spectrum of I - P and every phi_p scale by delta and delta^p
    respectively.
    """
    if not (0 < delta <= 1):
        raise InputError(f"delta must lie in (0, 1], got {delta}")
    P2 = delta * c.P
    P2.flat[:: c.n + 1] += 1.0 - delta
    P2.setflags(write=False)
    return MarkovChain(P2, c.pi, c.origin)

