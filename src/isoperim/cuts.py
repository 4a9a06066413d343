"""Isoperimetric constants phi_p of a chain: per-set values, exact minima by
subset enumeration, and the spectral sweep cut.

For p in (0, 1] and a set S with pi(S) <= 1/2,

    phi_p(S) = ( sum_{v in S} pi(v) * P(v, S-bar)^p ) / pi(S),

with 0^p taken as 0. For p = 0 the numerator is instead pi(dS), the mass of
the inner vertex boundary dS = {v in S : P(v, S-bar) > 0}. phi_p of the chain
is the minimum over nonempty S with pi(S) <= 1/2.

The exact enumerator walks all bitmasks, vectorized in blocks of up to 2^16
masks with an add-one-vertex recurrence for the subset row sums; ties are
broken toward the smallest bitmask. The sweep cut takes the best of the
distinct level sets of the truncated second eigenvector; for p > 1/2 the
winner provably satisfies phi_p <= 2 sqrt(lambda2 / (2p-1)). The level order
depends only on the certificate, so :func:`sweep_cuts` serves every exponent
from one incremental pass: it keeps each vertex's crossing mass as the level
sets shrink, at O(n^2) per certificate, and evaluates again only the levels
within rounding of the best, so the winner (smallest phi, then the smallest
level set) is the one a direct evaluation of every level picks.
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


def exact_minima(c: MarkovChain, ps: Sequence[float]) -> dict[float, CutResult]:
    """Global minimizers of phi_p over all admissible subsets, one pass for
    several exponents at once.

    Enumerates every nonempty S with pi(S) <= 1/2 + 1e-12 by bitmask,
    vectorized in blocks over the low bits; ties go to the smallest bitmask.
    """
    ps = [_validate_p(p) for p in ps]
    cap = exact_enumeration_cap()
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


def phi_p_exact(c: MarkovChain, p: float) -> CutResult:
    """Exact phi_p by enumeration of all admissible subsets (n <= cap)."""
    return exact_minima(c, [p])[_validate_p(p)]


def sweep_cuts(c: MarkovChain, ps: Sequence[float], cert: SpectralCertificate) -> dict[float, CutResult]:
    """Best level set of the truncated second eigenvector for each exponent,
    from one pass over the level sets.

    Thresholds run over the distinct values of f(i)^2 in descending order, so
    vertices with equal f enter together and every distinct level set is
    tried. Each candidate has pi-mass <= 1/2 by the truncation. The pass
    walks the levels from the largest set down, keeping the crossing mass
    P(v, S-bar) of every vertex as a sum of the complement's columns (a group
    leaving S adds its columns) and, for p = 0, the count of structurally
    nonzero entries there; sums of nonnegative terms carry no cancellation.
    Level masses and the p = 0 values equal :func:`_evaluate_set` exactly;
    for p > 0 every level within a relative ``_sweep_rtol(n)`` of the pass's
    minimum is evaluated again by :func:`_evaluate_set`. The winner is the
    smallest phi, and on a tie the smallest level set. For p in (1/2, 1] it
    satisfies :func:`sweep_guarantee`; a winner above it (a certificate that
    understates lambda2) raises NumericalFailure, checked in the order of
    ``ps``. Costs O(n^2) per certificate plus O(n) per level and exponent.
    """
    ps = list(dict.fromkeys(_validate_p(p) for p in ps))
    fsq = truncated_eigenvector(cert, c) ** 2
    values, inverse = np.unique(fsq, return_inverse=True)
    levels = values.size - 1  # level j = 1..levels is S_j = {fsq > values[-1 - j]}
    if levels == 0:
        raise NumericalFailure("truncated eigenvector has no nonempty level set")
    rank = levels - inverse  # group of each vertex: 0 holds the largest f^2
    order = np.argsort(rank, kind="stable")
    first = np.searchsorted(rank[order], np.arange(levels + 2))
    P, pi = c.P, c.pi
    need_p0 = 0.0 in ps
    member = rank < levels
    cross = np.zeros(c.n)
    support = np.zeros(c.n, dtype=np.int64)
    mass = np.empty(levels)
    num = {p: np.empty(levels) for p in ps}
    for j in range(levels, 0, -1):
        group = order[first[j] : first[j + 1]]
        member[group] = False
        cols = P[:, group]
        cross += cols.sum(axis=1)
        pi_s = pi[member]
        mass[j - 1] = pi_s.sum()
        if need_p0:
            support += (cols > STRUCTURAL_ZERO).sum(axis=1)
            num[0.0][j - 1] = pi[member & (support > 0)].sum()
        cross_s = cross[member]
        for p in ps:
            if p != 0.0:
                num[p][j - 1] = np.dot(pi_s, cross_s**p)
    too_heavy = np.flatnonzero(mass > 0.5 + MASS_SLACK)
    if too_heavy.size:
        raise InputError(f"pi(S) = {float(mass[too_heavy[0]])} exceeds 1/2")

    out: dict[float, CutResult] = {}
    for p in ps:
        phi = num[p] / mass
        if p == 0.0:  # exact values: the first minimum wins
            near = np.argmin(phi, keepdims=True)
        else:
            near = np.flatnonzero(phi <= phi.min() * (1.0 + _sweep_rtol(c.n)))
        best: CutResult | None = None
        for j in near:
            cut = _evaluate_set(c, np.flatnonzero(rank <= j), p, "sweep")
            if best is None or cut.phi < best.phi:
                best = cut
        bound = sweep_guarantee(cert, p)
        if bound is not None and not best.phi <= bound + GUARANTEE_TOL:
            raise NumericalFailure(f"sweep guarantee violated: phi={best.phi} > {bound}")
        out[p] = best
    return out


def _sweep_rtol(n: int) -> float:
    """Relative window around the pass's minimum that holds the exact winner.

    The pass and :func:`_evaluate_set` each sum at most n nonnegative
    crossing terms and at most n positive numerator terms, in different
    orders, so each is within about 2n units in the last place of the true
    value and the exact winner's pass value within about 4n of the pass's
    minimum; the window is twice that.
    """
    return max(1e-12, 4.0 * (n + 2) * float(np.finfo(float).eps))


def sweep_cut(c: MarkovChain, p: float, cert: SpectralCertificate) -> CutResult:
    """Best level set of the truncated second eigenvector for one exponent;
    see :func:`sweep_cuts`."""
    p = _validate_p(p)
    return sweep_cuts(c, [p], cert)[p]


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
