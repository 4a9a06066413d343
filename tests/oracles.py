"""Independent brute-force implementations used as test oracles.

Everything here is deliberately written with plain Python loops, fsum, and
itertools so it shares no code path with the library (which vectorizes with
bitmask tables, prefix sums, and FFTs). The one exception is
:func:`naive_sweep`, which walks the level sets on its own but evaluates each
with the library's per-set evaluation, so that its winner can be compared bit
for bit.
"""

import math
from itertools import combinations

import numpy as np

from isoperim.cuts import _evaluate_set
from isoperim.spectral import truncated_eigenvector

ZERO = 1e-15


def naive_phi_p(P, pi, S, p):
    """phi_p(S) straight from the definition."""
    S = sorted(set(S))
    comp = [v for v in range(len(pi)) if v not in S]
    mass = math.fsum(pi[v] for v in S)
    if p == 0:
        num = math.fsum(pi[v] for v in S if any(P[v, u] > ZERO for u in comp))
    else:
        num = math.fsum(pi[v] * math.fsum(P[v, u] for u in comp) ** p for v in S)
    return num / mass


def naive_phi_exact(P, pi, p):
    """Global minimum over nonempty sets of mass <= 1/2 + 1e-12, via combinations."""
    n = len(pi)
    best, best_set = math.inf, None
    for size in range(1, n):
        for S in combinations(range(n), size):
            if math.fsum(pi[v] for v in S) > 0.5 + 1e-12:
                continue
            val = naive_phi_p(P, pi, S, p)
            if val < best - 1e-15:
                best, best_set = val, S
    return best, best_set


def naive_truncated_rayleigh(P, pi, f):
    """One-sided quotient with the symmetrized flow (pi_u P_uv + pi_v P_vu)/2."""
    num = math.fsum(
        0.5 * (pi[u] * P[u, v] + pi[v] * P[v, u]) * (f[u] - f[v]) ** 2
        for u in range(len(pi))
        for v in range(len(pi))
        if f[u] >= f[v]
    )
    den = math.fsum(pi[v] * f[v] ** 2 for v in range(len(pi)))
    return num / den


def circulant_matrix(first_row):
    n = len(first_row)
    return np.array([[first_row[(j - i) % n] for j in range(n)] for i in range(n)])


def naive_circulant_eigs(first_row):
    """All eigenvalues of the materialized circulant, via the dense solver."""
    return np.sort(np.linalg.eigvalsh(circulant_matrix(first_row)))


def naive_block_h(sizes):
    """Block log function via explicit vertex lists and a cyclic walk."""
    m = len(sizes)
    k = m // 2
    n = sum(sizes)
    blocks = []
    pos = 0
    for s in sizes:
        blocks.append(list(range(pos, pos + s)))
        pos += s
    total = 0.0
    for start in range(m):
        walked = []
        for steps in range(m - 1):  # never the full wrap
            walked = walked + blocks[(start + steps) % m]
            sign = 1.0 if (steps + 1) % 2 == 1 else -1.0
            total += sign * math.log(len(walked) + 1)
    return total - k * math.log(n + 1)


def hypercube_h(d, members):
    """h_S(x) per point by bit flips; members is a set of ints."""
    n = 1 << d
    h = [0] * n
    for x in members:
        h[x] = sum(1 for i in range(d) if (x ^ (1 << i)) not in members)
    return h


def naive_edge_fault(edges, n, directed, allow_self_loops):
    """First faulty (row, kind) of (u, v, w) triples, checked row by row with
    a set of the pairs seen so far; None when every row is valid."""
    seen = set()
    for row, (u, v, w) in enumerate(edges):
        if not all(float(x).is_integer() and 0 <= x < n for x in (u, v)):
            return row, "range"
        if not math.isfinite(w):
            return row, "finite"
        if w < 0:
            return row, "negative"
        if u == v and w > 0 and not allow_self_loops:
            return row, "loop"
        if not directed and u > v:
            return row, "order"
        if (u, v) in seen:
            return row, "duplicate"
        seen.add((u, v))
    return None


def naive_weight_matrix(n, edges, directed):
    """Dense weights accumulated edge by edge, each undirected edge both ways."""
    W = np.zeros((n, n))
    for u, v, w in edges:
        W[int(u), int(v)] += w
        if not directed and u != v:
            W[int(v), int(u)] += w
    return W


def naive_sweep(c, p, cert):
    """Best level set of the truncated eigenvector, each distinct threshold of
    f^2 evaluated directly from P in descending order (O(n^3)); the first
    strictly smallest phi wins. No guarantee check."""
    fsq = truncated_eigenvector(cert, c) ** 2
    best = None
    for t in sorted(set(fsq.tolist()), reverse=True):
        idx = np.nonzero(fsq > t)[0]
        if idx.size == 0:
            continue
        cut = _evaluate_set(c, idx, p, "sweep")
        if best is None or cut.phi < best.phi:
            best = cut
    return best
