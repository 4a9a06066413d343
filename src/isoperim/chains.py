"""Finite Markov chains built from weighted graphs or raw transition matrices.

A chain bundles the row-stochastic transition matrix P, the stationary
distribution pi (strictly positive, sums to 1), and an origin tag recording
how it was constructed. States are 0-based everywhere in the library; file
formats use 1-based ids and convert at the I/O boundary.

All values are immutable after construction (arrays are frozen), so chains
can be shared freely across threads.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Iterable

import numpy as np

from .errors import InputError, NumericalFailure, TooLarge

# Weights below this are structural zeros when building support digraphs.
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


def vertex_ids(vertices: Iterable[int]) -> np.ndarray:
    """Vertex ids as an int64 array; a value that is not an integer (0.7, not
    1.0) raises InputError rather than being truncated."""
    ids = []
    for v in vertices:
        i = int(v)
        if i != v:
            raise InputError(f"vertex id {v} is not an integer")
        ids.append(i)
    return np.array(ids, dtype=np.int64)


def edge_fault(edges: np.ndarray, n: int, directed: bool, allow_self_loops: bool) -> tuple[int, str] | None:
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
        ((u == v) & (w > 0) & (not allow_self_loops), "self-loop at vertex {u} without allow_self_loops"),
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

    ``edges`` takes (u, v, w) triples and holds them as a frozen (m, 3) float64
    array; an array that is one already is kept, not copied. Undirected graphs
    store each edge once with u < v. Self-loops are rejected unless
    ``allow_self_loops`` is set; when present they contribute their weight
    once to the degree.
    """

    n: int
    edges: np.ndarray
    directed: bool = False
    allow_self_loops: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError("graph needs at least one vertex")
        check_states(self.n)
        # Reuse an already-frozen (m, 3) float64 array, such as a parser's.
        edges = self.edges
        frozen = isinstance(edges, np.ndarray) and edges.dtype == np.float64 and not edges.flags.writeable
        if not (frozen and edges.ndim == 2 and edges.shape[1] == 3):
            edges = np.array(edges, dtype=float).reshape(len(edges), 3)
        fault = edge_fault(edges, self.n, self.directed, self.allow_self_loops)
        if fault is not None:
            row, reason = fault
            u, v, w = edges[row].tolist()
            raise InputError(f"edge {row}: " + reason.format(u=f"{u:g}", v=f"{v:g}", w=w, ids=f"0..{self.n - 1}"))
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)

    def weight_matrix(self) -> np.ndarray:
        """Dense weight matrix; symmetric for undirected graphs."""
        n = self.n
        w = self.edges[:, 2] + 0.0  # 0.0 + w: a -0.0 weight is stored as 0.0
        W = np.zeros((n, n))
        flat = W.reshape(-1)
        # (u, v), and (v, u) when undirected: a loop's weight is written twice to one entry, so it counts once
        for row, col in ((0, 1), (1, 0))[: 1 if self.directed else 2]:
            at = self.edges[:, row].astype(np.intp)
            at *= n
            np.add(at, self.edges[:, col], out=at, casting="unsafe")  # ids below 2^14 add exactly
            flat[at] = w
        return W


@dataclasses.dataclass(frozen=True, eq=False)
class MarkovChain:
    """Irreducible finite Markov chain (V, P, pi).

    The one validator of P. Construction checks, in this order, that n is at
    most MAX_STATES and that P is square with n >= 2 rows, finite, entrywise
    in [-1e-14, 1 + 1e-12], has rows summing to 1 within 1e-12 once its
    entries in [-1e-14, 0), which are rounding, are set to zero in the
    chain's own copy, and has a strongly connected support digraph. Only then is pi solved for, when it is given
    as None; a given pi must be strictly positive with unit sum. Either way
    every entry is stationary to a relative 1e-10: |(pi^T P)_j - pi_j| <= 1e-10 pi_j.
    """

    n: int
    P: np.ndarray
    pi: np.ndarray | None
    origin: str = "raw-matrix"

    def __post_init__(self) -> None:
        check_states(self.n)
        P = np.array(self.P, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise InputError(f"P must be a square matrix, got shape {P.shape}")
        if P.shape[0] < 2:
            raise InputError(f"a chain needs at least 2 states, got {P.shape[0]}")
        if P.shape[0] != self.n:
            raise InputError("n does not match P")
        if not np.all(np.isfinite(P)):
            raise InputError("P has non-finite entries")
        if P.min() < -1e-14 or P.max() > 1 + 1e-12:
            raise InputError("P entries must lie in [0, 1]")
        np.maximum(P, 0.0, out=P)  # entries in [-1e-14, 0) are rounding
        rows = P.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > ROW_SUM_TOL:
            raise InputError("rows of P must sum to 1 within 1e-12")
        if not is_irreducible(P):
            raise InputError("P is not irreducible: its support digraph is not strongly connected")

        if self.pi is None:
            pi = _solve_stationary(P)
        # Reuse an already-frozen pi so derived chains (e.g. the lazy transform)
        # share the exact same stationary vector object.
        elif isinstance(self.pi, np.ndarray) and self.pi.dtype == np.float64 and not self.pi.flags.writeable:
            pi = self.pi
        else:
            pi = np.array(self.pi, dtype=float)
        if pi.shape != (self.n,):
            raise InputError("pi has wrong shape")
        if pi.min() <= 0:
            raise InputError("pi must be strictly positive")
        if abs(pi.sum() - 1.0) > 1e-12:
            raise InputError("pi must sum to 1")
        if not _is_stationary(P, pi):
            raise NumericalFailure("pi is not stationary for P within a relative 1e-10 per entry")

        P.setflags(write=False)
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
    A = P.T - np.eye(n)
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


def chain_from_matrix(P: np.ndarray) -> MarkovChain:
    """Wrap a row-stochastic matrix as a validated chain, computing pi."""
    P = np.asarray(P, dtype=float)
    return MarkovChain(n=P.shape[0] if P.ndim else 0, P=P, pi=None)


def chain_from_undirected(g: WeightedGraph) -> MarkovChain:
    """Natural random walk on a connected weighted undirected graph.

    P(u, v) = w(uv) / deg_w(u) and pi(u) = deg_w(u) / sum_v deg_w(v); the
    result satisfies detailed balance by construction.
    """
    if g.directed:
        raise InputError("graph must be undirected")
    W = g.weight_matrix()
    deg = W.sum(axis=1)
    if deg.min() <= STRUCTURAL_ZERO:
        raise InputError(f"vertex {int(deg.argmin())} has zero weighted degree")
    W /= deg[:, None]  # in place: MarkovChain copies P once more
    return MarkovChain(n=g.n, P=W, pi=deg / deg.sum(), origin="undirected-graph")


def chain_from_directed(g: WeightedGraph) -> MarkovChain:
    """Natural random walk on a strongly connected weighted directed graph."""
    if not g.directed:
        raise InputError("graph must be directed")
    W = g.weight_matrix()
    out = W.sum(axis=1)
    if out.min() <= STRUCTURAL_ZERO:
        raise InputError(f"vertex {int(out.argmin())} has zero out-weight")
    W /= out[:, None]
    return MarkovChain(n=g.n, P=W, pi=None, origin="directed-graph")


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
    P2 = (1.0 - delta) * np.eye(c.n) + delta * c.P
    return MarkovChain(n=c.n, P=P2, pi=c.pi, origin=c.origin)


def exact_enumeration_cap() -> int:
    """Current cap on exact subset enumeration (ISO_MAX_EXACT_N overrides)."""
    text = os.environ.get("ISO_MAX_EXACT_N", "24")
    try:
        return int(text)
    except ValueError as exc:
        raise InputError(f"ISO_MAX_EXACT_N must be an integer, got {text!r}") from exc


def check_exact(n: int) -> None:
    """Raise TooLarge when n states exceed :func:`exact_enumeration_cap`."""
    cap = exact_enumeration_cap()
    if n > cap:
        raise TooLarge(f"n = {n} exceeds the exact enumeration cap {cap}")
