"""Isoperimetric constants phi_p of a chain: per-set values, exact minima by
subset enumeration, and the spectral sweep cut.

For p in (0, 1] and a set S with pi(S) <= 1/2,

    phi_p(S) = ( sum_{v in S} pi(v) * P(v, S-bar)^p ) / pi(S),

with 0^p taken as 0. For p = 0 the numerator is instead pi(dS), the mass of
the inner vertex boundary dS = {v in S : P(v, S-bar) > 0}. phi_p of the chain
is the minimum over nonempty S with pi(S) <= 1/2.

The exact enumerator walks all bitmasks, vectorized in blocks of up to 2^16
masks with an add-one-vertex recurrence for the subset row sums; ties are
broken toward the smallest bitmask. The sweep cut evaluates phi_p on every
distinct level set of the truncated second eigenvector and returns the best;
for p > 1/2 the winner provably satisfies phi_p <= 2 sqrt(lambda2 / (2p-1)).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .chains import STRUCTURAL_ZERO, MarkovChain, exact_enumeration_cap
from .errors import InputError, NumericalFailure, TooLarge
from .spectral import SpectralCertificate, truncated_eigenvector

MASS_SLACK = 1e-12
GUARANTEE_TOL = 1e-8
_BLOCK_BITS = 16


@dataclasses.dataclass(frozen=True)
class CutResult:
    """A vertex subset with its phi_p value.

    numerator is sum_v pi(v) P(v, S-bar)^p (or pi(dS) when p = 0), pi_mass is
    pi(S), and phi = numerator / pi_mass. method records how the set was
    found: 'exact', 'sweep', or 'given-set'.
    """

    subset: tuple[int, ...]
    p: float
    numerator: float
    pi_mass: float
    phi: float
    method: str


class PhiProfile(NamedTuple):
    phi0: float
    phi_half: float
    phi1: float


def _validate_p(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise InputError(f"p must lie in [0, 1], got {p}")
    return p


def _subset_indices(c: MarkovChain, subset: Iterable[int]) -> np.ndarray:
    idx = np.unique(np.fromiter((int(v) for v in subset), dtype=np.int64))
    if idx.size == 0:
        raise InputError("subset must be nonempty")
    if idx.size and (idx[0] < 0 or idx[-1] >= c.n):
        raise InputError(f"subset contains out-of-range vertices for n={c.n}")
    return idx


def _evaluate_set(c: MarkovChain, idx: np.ndarray, p: float, method: str) -> CutResult:
    """phi_p of a validated index set, computed directly from P."""
    mass = float(c.pi[idx].sum())
    if mass > 0.5 + MASS_SLACK:
        raise InputError(f"pi(S) = {mass} exceeds 1/2")
    comp = np.setdiff1d(np.arange(c.n), idx, assume_unique=True)
    if comp.size == 0:
        raise InputError("subset is the whole state space")
    block = c.P[np.ix_(idx, comp)]
    if p == 0.0:
        boundary = (block > STRUCTURAL_ZERO).any(axis=1)
        num = float(c.pi[idx][boundary].sum())
    else:
        cross = block.sum(axis=1)
        num = float(np.sum(c.pi[idx] * cross**p))
    return CutResult(
        subset=tuple(int(v) for v in idx),
        p=p,
        numerator=num,
        pi_mass=mass,
        phi=num / mass,
        method=method,
    )


def phi_p_of_set(c: MarkovChain, subset: Iterable[int], p: float) -> CutResult:
    """phi_p(S) for an explicit subset with pi(S) <= 1/2."""
    return _evaluate_set(c, _subset_indices(c, subset), _validate_p(p), "given-set")


def phi_profile(c: MarkovChain, subset: Iterable[int]) -> PhiProfile:
    """The (phi_0, phi_{1/2}, phi_1) triple of one set.

    Always satisfies phi_0 >= phi_{1/2} >= phi_1 and the per-set
    Cauchy-Schwarz inequality phi_{1/2}^2 <= phi_0 * phi_1.
    """
    idx = _subset_indices(c, subset)
    return PhiProfile(
        phi0=_evaluate_set(c, idx, 0.0, "given-set").phi,
        phi_half=_evaluate_set(c, idx, 0.5, "given-set").phi,
        phi1=_evaluate_set(c, idx, 1.0, "given-set").phi,
    )


def _support_masks(P: np.ndarray) -> np.ndarray:
    """Per-vertex bitmask of structurally nonzero transitions."""
    n = P.shape[0]
    masks = np.zeros(n, dtype=np.int64)
    sup = P > STRUCTURAL_ZERO
    for u in range(n):
        masks |= sup[:, u] * np.int64(1 << u)
    return masks


def exact_minima(c: MarkovChain, ps: Sequence[float], max_n: int | None = None) -> dict[float, CutResult]:
    """Global minimizers of phi_p over all admissible subsets, one pass for
    several exponents at once.

    Enumerates every nonempty S with pi(S) <= 1/2 + 1e-12 by bitmask,
    vectorized in blocks over the low bits; ties go to the smallest bitmask.
    """
    ps = [_validate_p(p) for p in ps]
    cap = exact_enumeration_cap() if max_n is None else int(max_n)
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
        if not admissible.any():
            continue
        member = np.zeros((n_low, n), dtype=bool)
        member[:, :low_bits] = member_low
        if hi_idx:
            member[:, hi_idx] = True
        masks = low_masks + np.int64(hi << low_bits)
        cross = np.maximum(rowsum[None, :] - R, 0.0)
        for p in ps:
            if p == 0.0:
                outside = (~masks) & full
                on_boundary = (outside[:, None] & supp[None, :]) != 0
                num = ((on_boundary & member) * pi[None, :]).sum(axis=1)
            else:
                num = ((cross**p) * pi[None, :] * member).sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                phi = np.where(admissible, num / mass, math.inf)
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


def phi_p_exact(c: MarkovChain, p: float, max_n: int | None = None) -> CutResult:
    """Exact phi_p by enumeration of all admissible subsets (n <= cap)."""
    return exact_minima(c, [p], max_n=max_n)[_validate_p(p)]


def sweep_cut(c: MarkovChain, p: float, cert: SpectralCertificate) -> CutResult:
    """Best level set of the truncated second eigenvector.

    Thresholds run over the distinct values of f(i)^2 in descending order, so
    vertices with equal f enter together and every distinct level set is
    tried. Each candidate has pi-mass <= 1/2 by the truncation. For
    p in (1/2, 1] the returned set satisfies :func:`sweep_guarantee`, and a
    winner above it (a certificate that understates lambda2) raises
    NumericalFailure.
    """
    p = _validate_p(p)
    f = truncated_eigenvector(cert, c)
    fsq = f**2
    best: CutResult | None = None
    for t in sorted(set(fsq.tolist()), reverse=True):
        idx = np.nonzero(fsq > t)[0]
        if idx.size == 0:
            continue
        cut = _evaluate_set(c, idx, p, "sweep")
        if best is None or cut.phi < best.phi:
            best = cut
    if best is None:
        raise NumericalFailure("truncated eigenvector has no nonempty level set")
    bound = sweep_guarantee(cert, p)
    if bound is not None and not best.phi <= bound + GUARANTEE_TOL:
        raise NumericalFailure(f"sweep guarantee violated: phi={best.phi} > {bound}")
    return best


def sweep_guarantee(cert: SpectralCertificate, p: float) -> float | None:
    """The bound 2 sqrt(s lambda2 / (2p - 1)) a sweep cut meets for p in
    (1/2, 1], with s = 1 for reversible and s = 2 for directed certificates;
    None for p <= 1/2.

    For directed certificates only the flow-symmetrized Rayleigh quotient is
    controlled by lambda2, which costs the factor sqrt(2).
    """
    if p <= 0.5:
        return None
    scale = 2.0 if cert.kind == "chung-directed" else 1.0
    return 2.0 * (scale * max(cert.lambda2, 0.0) / (2.0 * p - 1.0)) ** 0.5
