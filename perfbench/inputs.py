"""Seeded input files for the benchmark, written with numpy alone.

Nothing here imports the package under test, so the inputs a run measures
never depend on the code being measured. Every writer emits edge-tsv: a
header line ``undirected`` or ``directed``, then ``u<TAB>v<TAB>w`` lines with
1-based ids and 17-significant-digit weights.
"""

from __future__ import annotations

import numpy as np


def _write_edges(path: str, directed: bool, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> None:
    lines = ["directed" if directed else "undirected"]
    lines.extend(f"{a + 1}\t{b + 1}\t{x:.17g}" for a, b, x in zip(u.tolist(), v.tolist(), w.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_random_reversible(path: str, n: int, density: float, rng: np.random.Generator) -> None:
    """Undirected graph: each pair kept with probability ``density``, weights
    in (0, 1], plus the ring i -- i+1 so the walk is always irreducible."""
    weights = 1.0 - rng.random((n, n))
    keep = np.triu(rng.random((n, n)) < density, k=1)
    idx = np.arange(n - 1)
    keep[idx, idx + 1] = True
    keep[0, n - 1] = True
    u, v = np.nonzero(keep)
    _write_edges(path, False, u, v, weights[u, v])


def write_random_directed(path: str, n: int, density: float, rng: np.random.Generator) -> None:
    """Directed graph: each ordered pair kept with probability ``density``,
    weights in (0, 1], plus the directed ring i -> i+1 (strongly connected)."""
    weights = 1.0 - rng.random((n, n))
    keep = rng.random((n, n)) < density
    idx = np.arange(n)
    keep[idx, (idx + 1) % n] = True
    keep[idx, idx] = False
    u, v = np.nonzero(keep)
    _write_edges(path, True, u, v, weights[u, v])


def write_relabelled_circulant(path: str, n: int, rng: np.random.Generator) -> None:
    """The inverse-cube circulant, weight 1/min(d, n-d)^3 between vertices at
    cyclic distance d, with vertex i written as perm[i] for a seeded
    permutation. Relabelling leaves every spectral and phi_p value unchanged."""
    perm = rng.permutation(n)
    i, j = np.triu_indices(n, k=1)
    d = np.minimum(j - i, n - (j - i)).astype(float)
    w = 1.0 / d**3
    a, b = perm[i], perm[j]
    u, v = np.minimum(a, b), np.maximum(a, b)
    order = np.lexsort((v, u))
    _write_edges(path, False, u[order], v[order], w[order])


def write_cycle(path: str, n: int) -> None:
    """Unit-weight ring, the warm-up input."""
    u = np.arange(n - 1)
    _write_edges(path, False, np.append(u, 0), np.append(u + 1, n - 1), np.ones(n))
