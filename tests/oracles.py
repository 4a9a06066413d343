"""Independent brute-force implementations used as test oracles.

Everything here is deliberately written with plain Python loops, fsum, and
itertools so it shares no code path with the library (which vectorizes with
bitmask tables, prefix sums, and FFTs). Six exceptions:

- :func:`naive_sweep` walks the level sets on its own but evaluates each with
  the library's per-set evaluation, so that its winner can be compared bit
  for bit;
- :func:`naive_parse_graph` reads a file line by line, converting each token
  with ``int`` and ``float``, but hands the rows to the library's graph and
  chain validators, so that its errors can be compared message for message;
- :func:`blocked_exact_minima` is the enumerator the library used before its
  subset-sum form: bitmask blocks, a bit-shift membership table, every mask
  scored and the inadmissible ones masked out, and int64 support bitmasks
  for p = 0. Its minima are compared with the library's bit for bit;
- :func:`naive_arc_min_phi_half` is the loop over every arc length the
  library used before its certified minimum, with the library's per-arc
  terms, so that the two minima can be compared bit for bit;
- :func:`naive_write_graph_tsv` is the edge-tsv writer the library used
  before its byte tables: one f-string per line, joined into one text, with
  the library's weight formatting, so that the two files can be compared
  byte for byte;
- :func:`conjecture_ratio` is the Houdre-Tetali ratio read through the
  library's :class:`ChainAnalysis`; no CLI path reads it, so the tests that
  pin its lazy invariance keep it here.

:func:`power_increment_search` is the random search the library used before
it returned the power-increment supremum in closed form; the tests check
that it stays below that value and comes close to it.
"""

import math
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np

from isoperim import cuts
from isoperim.bounds import ChainAnalysis
from isoperim.chains import (
    MASS_SLACK,
    STRUCTURAL_ZERO,
    MarkovChain,
    WeightedGraph,
    edge_fault,
)
from isoperim.cuts import _BLOCK_BITS, CutResult, _evaluate_set, _validate_p
from isoperim.errors import InputError, TooLarge
from isoperim.families import _arc_sqrt_cross
from isoperim.io import _fmt
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


def _support_masks(P: np.ndarray) -> np.ndarray:
    """Per-vertex bitmask of structurally nonzero transitions."""
    n = P.shape[0]
    masks = np.zeros(n, dtype=np.int64)
    sup = P > STRUCTURAL_ZERO
    for u in range(n):
        masks |= sup[:, u] * np.int64(1 << u)
    return masks


def blocked_exact_minima(c: MarkovChain, ps: Sequence[float]) -> dict[float, CutResult]:
    """Global minimizers of phi_p over all admissible subsets, one pass for
    several exponents at once.

    Enumerates every nonempty S with pi(S) <= 1/2 + 1e-12 by bitmask,
    vectorized in blocks over the low bits; ties go to the smallest bitmask.
    """
    ps = [_validate_p(p) for p in ps]
    cap = cuts.EXACT_MAX_N
    if c.n > cap:
        raise TooLarge(f"n = {c.n} exceeds the exact enumeration cap {cap}")
    n, P, pi = c.n, c.P, c.pi
    rowsum = P.sum(axis=1)
    low_bits = min(n, _BLOCK_BITS)
    high_bits = n - low_bits

    # R_low[m, v] = sum_{u in m} P(v, u) over low-bit masks m, built by doubling.
    R_low = np.zeros((1, n))
    mass_low = np.zeros(1)
    for b in range(low_bits):
        R_low = np.concatenate([R_low, R_low + P[:, b][None, :]])
        mass_low = np.concatenate([mass_low, mass_low + pi[b]])
    n_low = 1 << low_bits
    member_low = ((np.arange(n_low, dtype=np.int64)[:, None] >> np.arange(low_bits)[None, :]) & 1).astype(bool)
    low_masks = np.arange(n_low, dtype=np.int64)

    need_p0 = any(p == 0.0 for p in ps)
    supp = _support_masks(P) if need_p0 else None
    full = np.int64((1 << n) - 1)

    best_phi = {p: math.inf for p in ps}
    best_mask = {p: -1 for p in ps}

    for hi in range(1 << high_bits):
        hi_idx = [low_bits + j for j in range(high_bits) if (hi >> j) & 1]
        if hi_idx:
            R = R_low + P[:, hi_idx].sum(axis=1)[None, :]
            mass = mass_low + pi[hi_idx].sum()
        else:
            R = R_low
            mass = mass_low
        admissible = mass <= 0.5 + MASS_SLACK
        if hi == 0:
            admissible = admissible.copy()
            admissible[0] = False  # empty set
        rows = np.flatnonzero(admissible)
        if rows.size == 0:
            continue
        member = np.zeros((rows.size, n), dtype=bool)
        member[:, :low_bits] = member_low[rows]
        if hi_idx:
            member[:, hi_idx] = True
        masks = low_masks[rows] + np.int64(hi << low_bits)
        cross = np.maximum(rowsum[None, :] - R[rows], 0.0)
        for p in ps:
            if p == 0.0:
                outside = (~masks) & full
                on_boundary = (outside[:, None] & supp[None, :]) != 0
                num = ((on_boundary & member) * pi[None, :]).sum(axis=1)
            else:
                num = ((cross**p) * pi[None, :] * member).sum(axis=1)
            phi = num / mass[rows]
            j = int(np.argmin(phi))
            if phi[j] < best_phi[p]:
                best_phi[p] = float(phi[j])
                best_mask[p] = int(masks[j])

    out: dict[float, CutResult] = {}
    for p in ps:
        mask = best_mask[p]
        idx = np.array([v for v in range(n) if (mask >> v) & 1], dtype=np.int64)
        result = _evaluate_set(c, idx, p, "exact")
        out[p] = result
    return out


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


def naive_arc_min_phi_half(n: int, prefix: np.ndarray, C: float) -> float:
    """min over l = 1..n//2 of phi_{1/2} of the arc {1..l}, every l evaluated."""
    best = math.inf
    for l in range(1, n // 2 + 1):
        best = min(best, float(_arc_sqrt_cross(n, l, prefix, C).sum()) / l)
    return best


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


class HypercubeQuantities(NamedTuple):
    poincare_num: float  # E_mu[h_S]
    talagrand_num: float  # E_mu[sqrt(h_S)]
    vertex_boundary: float  # mu(dS)


def hypercube_quantities(d, subset):
    """Boundary functionals of a subset S of {0,1}^d under uniform mu.

    h_S(x) counts the coordinates whose flip leaves S (0 off S). Then
    phi_1(S) = E[h_S] / (d mu(S)), phi_{1/2}(S) = E[sqrt h_S] / (sqrt(d) mu(S))
    and phi_0(S) = mu(dS) / mu(S) on the walk on ``hypercube_graph(d)``.
    """
    h = hypercube_h(d, set(subset))
    n = 1 << d
    return HypercubeQuantities(
        poincare_num=math.fsum(h) / n,
        talagrand_num=math.fsum(math.sqrt(x) for x in h) / n,
        vertex_boundary=sum(1 for x in h if x) / n,
    )


def naive_edge_fault(edges, n, directed):
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


def _header_and_body(path):
    """The header line, one of the four headers up to whitespace, and the
    numbered lines after it; blank lines and ``#`` comments are skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(lineno, line) for lineno, raw in enumerate(fh, start=1) if (line := raw.strip()) and line[0] != "#"]
    headers = ("undirected", "directed", "matrix-kind transition", "matrix-kind weight")
    expected = "'undirected', 'directed', 'matrix-kind transition' or 'matrix-kind weight'"
    if not lines:
        raise InputError(f"{path}: empty file, expected header {expected}")
    lineno, header = lines[0]
    if " ".join(header.split()) not in headers:
        raise InputError(f"{path}:{lineno}: header must be {expected}, got {header!r}")
    if len(lines) == 1:
        raise InputError(f"{path}: nothing after the header")
    return " ".join(header.split()), lines[1:]


def _graph(path, n, edges, directed, source):
    """Graph of parsed edges; a faulty row, or the row with the largest id
    when there are too many states, is reported at ``source(row) = (lineno, u, v, w)``."""
    try:
        return WeightedGraph(n=n, edges=edges, directed=directed)
    except TooLarge as exc:
        lineno, u, v, _ = source(int(edges[:, :2].max(axis=1).argmax()))
        raise TooLarge(f"{path}:{lineno}: vertex id {max(u, v, key=int)}: {exc}") from None
    except InputError:
        row, reason = edge_fault(edges, n, directed)
        lineno, u, v, w = source(row)
        raise InputError(f"{path}:{lineno}: " + reason.format(u=u, v=v, w=repr(w), ids=f"1..{n}")) from None


def _zero_based(edges, directed):
    """Make parsed (u, v, w) rows 0-based in place, with u <= v when
    undirected, and return the number of vertices."""
    edges[:, :2] -= 1
    if not directed:
        edges[:, :2].sort(axis=1)
    return max(int(edges[:, :2].max()) + 1, 1)


def naive_parse_edge_tsv(path, header, body):
    """An edge-tsv file read line by line: the reference for its tokens, its
    accepted graphs and its error messages."""
    directed = header == "directed"
    rows = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 3:
            raise InputError(f"{path}:{lineno}: expected 'u<TAB>v<TAB>w', got {line!r}")
        try:
            rows.append((float(int(parts[0])), float(int(parts[1])), float(parts[2])))
        except (ValueError, OverflowError) as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
    edges = np.array(rows)
    n = _zero_based(edges, directed)
    return _graph(path, n, edges, directed, lambda row: (body[row][0], *body[row][1].split()))


def naive_parse_dense(path, header, body):
    """A dense-matrix file read line by line, the same way."""
    rows = []
    n = len(body[0][1].split())  # the first row's width, which every row must have
    for lineno, line in body:
        # a line that makes a square matrix impossible is named before its tokens are read
        if len(line.split()) != n:
            raise InputError(f"{path}:{lineno}: matrix must be square, got a row of {len(line.split())} entries after one of {n}")
        if len(rows) == n:
            raise InputError(f"{path}:{lineno}: matrix must be square, got more than {n} rows of {n} entries")
        try:
            rows.append([float(tok) for tok in line.split()])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        bad = [tok for tok, x in zip(line.split(), rows[-1]) if not math.isfinite(x)]
        if bad:
            raise InputError(f"{path}:{lineno}: entry {bad[0]!r} is not a finite number")
    if len(rows) != n:
        raise InputError(f"{path}: matrix must be square, got {len(rows)} rows of {n} entries")
    M = np.array(rows, dtype=float)
    if header == "matrix-kind transition":
        return MarkovChain(M)
    directed = not np.array_equal(M, M.T)
    u, v = np.nonzero(M if directed else np.triu(M))
    edges = np.column_stack([u, v, M[u, v]])
    return _graph(path, n, edges, directed, lambda r: (body[u[r]][0], u[r] + 1, v[r] + 1, body[u[r]][1].split()[v[r]]))


def naive_parse_graph(path):
    """The reference reading of an input file, whose header picks the reader."""
    header, body = _header_and_body(path)
    read = naive_parse_dense if header.startswith("matrix-kind") else naive_parse_edge_tsv
    return read(path, header, body)


def naive_write_graph_tsv(g, path):
    """Write edge-tsv with 1-based ids and full-precision weights.

    Each distinct id and each distinct weight (by bit pattern, so -0.0 keeps
    its sign) is formatted once.
    """
    bits, which = np.unique(g.edges[:, 2].view(np.int64), return_inverse=True)
    weights = [_fmt(w) for w in bits.view(float).tolist()]
    ids = [str(i) for i in range(g.n + 1)]
    us, vs = (g.edges[:, :2].astype(np.int64) + 1).T.tolist()
    lines = ["directed" if g.directed else "undirected"]
    lines += [f"{ids[u]}\t{ids[v]}\t{weights[k]}" for u, v, k in zip(us, vs, which.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def birth_death_matrix(n, up, down):
    """Transition matrix of the birth-death chain on 0..n-1 that steps up
    with probability ``up`` and down with ``down``, holding on the diagonal."""
    P = np.zeros((n, n))
    for k in range(n - 1):
        P[k, k + 1] = up
        P[k + 1, k] = down
    for k in range(n):
        P[k, k] = 1.0 - P[k].sum()
    return P


def birth_death_pi(n, up, down):
    """Closed-form pi of :func:`birth_death_matrix`: detailed balance across
    each step gives pi_k proportional to (up / down)^k whatever the holding.
    Exact rationals of the float rates, rounded once per entry."""
    ratio = Fraction(up) / Fraction(down)
    weights = [ratio**k for k in range(n)]
    total = sum(weights)
    return np.array([float(w / total) for w in weights])


def exact_stationary(W):
    """pi of P = W / rowsum(W) for a square nonnegative integer matrix W, as
    Fractions: Gauss-Jordan elimination on sum_i pi_i P(i, j) = pi_j for
    j < n - 1 and sum_j pi_j = 1, in exact arithmetic."""
    n = len(W)
    P = [[Fraction(w, sum(row)) for w in row] for row in W]
    A = [[P[i][j] - (i == j) for i in range(n)] + [Fraction(0)] for j in range(n - 1)]
    A.append([Fraction(1)] * (n + 1))
    for col in range(n):
        pivot = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[pivot] = A[pivot], A[col]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col] / A[col][col]
                A[r] = [a - f * b for a, b in zip(A[r], A[col])]
    return [A[r][n] / A[r][r] for r in range(n)]


def light_cycle_matrix():
    """:func:`birth_death_matrix` on 6 states (up 1e-3, down 1/2) plus 0.01 on
    3 -> 4, 4 -> 5 and 5 -> 3, taken from the diagonal: pi falls to 4e-12, so
    the cycle's flows are below 1e-10 of the largest flow, but 4 -> 3 and the
    other reverse steps have no 0.01 to match them."""
    P = birth_death_matrix(6, 1e-3, 0.5)
    for a, b in ((3, 4), (4, 5), (5, 3)):
        P[a, b] += 0.01
        P[a, a] -= 0.01
    return P


def eigh_certificate(P, pi, directed):
    """Eigenvalues and second eigenvector of Chung's Laplacian (directed) or
    of I - S, with S(i, j) = sqrt(pi_i) P(i, j) / sqrt(pi_j) built entry by
    entry and the matrix handed to ``np.linalg.eigh`` as it is."""
    n = len(pi)
    S = [[math.sqrt(pi[i]) * P[i][j] / math.sqrt(pi[j]) for j in range(n)] for i in range(n)]
    L = np.array([[(i == j) - ((S[i][j] + S[j][i]) / 2 if directed else S[i][j]) for j in range(n)] for i in range(n)])
    w, Q = np.linalg.eigh(L)
    return w, Q[:, 1]


def conjecture_ratio(a: ChainAnalysis) -> float:
    """rho = phi_{1/2} / sqrt(lambda_2), the quantity whose boundedness the
    Houdre-Tetali conjecture asserted.

    rho is invariant under the lazy transform (p = 1/2 is the scale-free
    exponent); unbounded growth of rho along a family refutes the conjectured
    upper bound. phi_{1/2} is computed exactly within the cap, else by sweep.
    """
    return a.phi(0.5).phi / math.sqrt(a.own.lambda2)


def power_increment_search(p: float, trials: int = 100_000, seed: int = 0) -> float:
    """Best sum_j (a_j^p - a_{j-1}^p)^2 / (a_j - a_{j-1}) found over monotone
    sequences 0 = a_0 <= ... <= a_N <= 1, a value from below of the supremum.

    Searches `trials` random monotone sequences of length 1..50 (sorted
    uniforms, seeded) plus the adversarial geometric family a_j = r^{m-j},
    which is extremal in the limit.
    """
    rng = np.random.default_rng(seed)
    best = 0.0
    chunk = 20_000
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        lengths = rng.integers(1, 51, size=m)
        u = rng.random((m, 50))
        u[np.arange(50)[None, :] >= lengths[:, None]] = 0.0  # pad, sorts to the front
        a = np.sort(u, axis=1)
        a = np.concatenate([np.zeros((m, 1)), a], axis=1)
        d = np.diff(a, axis=1)
        dp = np.diff(a**p, axis=1)
        terms = np.divide(dp**2, d, out=np.zeros_like(d), where=d > 0)
        best = max(best, float(terms.sum(axis=1).max()))
        done += m

    # geometric family a_j = r^(m-j), extremal as r -> 1 with long chains
    m_geo = 400
    for r in np.linspace(1e-3, 1 - 1e-3, 999):
        a = np.concatenate([[0.0], r ** np.arange(m_geo, -1.0, -1.0)])
        d = np.diff(a)
        dp = np.diff(a**p)
        terms = np.divide(dp**2, d, out=np.zeros_like(d), where=d > 0)
        best = max(best, float(terms.sum()))
    return best
