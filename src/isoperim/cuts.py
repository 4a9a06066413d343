"""Isoperimetric constants phi_p of a chain: per-set values, exact minima by
subset enumeration, and the spectral sweep cut.

For p in (0, 1] and a set S with pi(S) <= 1/2,

    phi_p(S) = ( sum_{v in S} pi(v) * P(v, S-bar)^p ) / pi(S),

with 0^p taken as 0. For p = 0 the numerator is instead pi(dS), the mass of
the inner vertex boundary dS = {v in S : P(v, S-bar) > 0}. phi_p of the chain
is the minimum over nonempty S with pi(S) <= 1/2.

The exact enumerator walks all bitmasks in blocks of the 2^16 masks of the
low bits. One subset-sum recurrence, by doubling, gives every low mask's
pi-mass, row sums P(v, S), membership and, for p = 0, each row's count of
support entries inside S (v is on the boundary iff that count is below its
row's); each block of the high bits adds its own vertices, keeps only its
admissible sets and scores those in slices of at most 2^12 sets, taken in
turn by one thread per CPU in the process's affinity mask (no setting; the
results are identical on any number of CPUs). Ties are broken toward the
smallest bitmask. An exponent p in (1/2, 1) is scored only on the sets of a
slice that the power-mean bracket

    max(phi_1, phi_{1/2}^{2p}) <= phi_p <= phi_1^p

(x^p >= x on [0, 1], and M_{1/2} <= M_p <= M_1 for the pi-weighted means of
P(v, S-bar) over S) cannot rule out as the slice's first minimum; phi_{1/2}
and phi_1 take numpy's sqrt and identity fast paths, and a general power
costs several times as much.

The sweep cut takes the best of the distinct level sets of the truncated
second eigenvector; for p > 1/2 the winner provably satisfies
phi_p <= 2 sqrt(s lambda2 / (2p-1)), with s = 1 for a reversible certificate
and s = 2 for Chung's (:func:`sweep_guarantee`). The level order depends
only on the certificate, so :func:`sweep_cuts` serves every exponent from
one incremental pass: it keeps each vertex's crossing mass as the level sets
shrink, at O(n^2) per certificate, and evaluates again only the levels
within rounding of the best, so the winner (smallest phi, then the smallest
level set) is the one a direct evaluation of every level picks.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .chains import MASS_SLACK, STRUCTURAL_ZERO, MarkovChain, check_exact
from .errors import InputError, NumericalFailure
from .spectral import SpectralCertificate, truncated_eigenvector

GUARANTEE_TOL = 1e-8
_BLOCK_BITS = 16
_MIN_CHUNK_ROWS = 1 << 13  # fewest admissible sets per thread; smaller blocks start no thread
_SCORE_ROWS = 1 << 12  # most sets in one slice; bounds each thread's temporaries


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


def _subset_sums(rows: np.ndarray) -> np.ndarray:
    """Row m is the sum of ``rows[b]`` over the set bits b of m, for every
    mask m of ``len(rows)`` bits, built in place by doubling (bit b is added
    last)."""
    sums = np.empty((1 << len(rows), *rows.shape[1:]), dtype=rows.dtype)
    sums[0] = 0
    for b, row in enumerate(rows):
        np.add(sums[: 1 << b], row, out=sums[1 << b : 2 << b])
    return sums


def exact_minima(c: MarkovChain, ps: Sequence[float]) -> dict[float, CutResult]:
    """Global minimizers of phi_p over all admissible subsets, one pass for
    several exponents at once.

    Enumerates every nonempty S with pi(S) <= 1/2 + 1e-12 by bitmask. Over
    the masks of the low bits, pi(S), the row sums P(v, S), membership and
    (for p = 0) the count of support entries of each row inside S are subset
    sums of per-vertex rows; each block of the high bits adds its own
    vertices and scores only its admissible sets. A vertex of S is on the
    boundary iff its row has support outside S. Ties go to the smallest
    bitmask.

    When ``ps`` holds an exponent p in (1/2, 1), each slice computes phi_{1/2}
    and phi_1 of all its sets (once, also when ``ps`` asks for them) and
    scores p only on the sets whose lower bound max(phi_1, phi_{1/2}^{2p})
    is within a relative ``_bracket_rtol(n)`` of the slice's smallest upper
    bound min phi_1^p; the window is rounding, a few n eps. Those sets are
    scored with the same arithmetic as every other exponent, so the values
    and the first minimum are bit-identical to scoring them all. Exponents
    0, those in (0, 1/2] and 1 are scored on every set, and a call that asks
    for no exponent in (1/2, 1) computes nothing more. Where some pi(v) is
    below 2^-400 a product could underflow and the window would not hold, so
    every set is scored.

    A block's admissible sets are scored by the calling thread and, when
    the block holds at least ``_MIN_CHUNK_ROWS`` sets per extra thread, by
    up to one more thread per CPU in the process's affinity mask, from a
    pool made at most once per call. The sets are cut into contiguous
    slices of at most ``_SCORE_ROWS``, which the threads take one at a time
    in mask order, so a call's peak memory is small and does not depend on
    how the threads interleave, and a thread that is slow to run leaves
    its share to the others. There is no setting. Each set's arithmetic
    does not depend on the slicing and the slices are folded in mask
    order, so the minima are identical on any number of CPUs.
    """
    ps = list(dict.fromkeys(_validate_p(p) for p in ps))
    check_exact(c.n)
    n, P, pi = c.n, c.P, c.pi
    low = min(n, _BLOCK_BITS)
    mass_low = _subset_sums(pi[:low])
    R_low = _subset_sums(P[:, :low].T)  # R_low[m, v] = P(v, m)
    member_low = _subset_sums(np.eye(low, n, dtype=bool))
    rowsum = P.sum(axis=1)
    need_p0 = 0.0 in ps
    if need_p0:
        support = P > STRUCTURAL_ZERO
        degree = support.sum(axis=1)
        count = np.min_scalar_type(n)  # holds every count of entries inside S, 0..n
        inside_low = _subset_sums(support[:, :low].T.astype(count))
    # with pi >= 2^-400 every nonzero pi(v) x_v^q and phi_{1/2}^{2p} is a normal
    # float: a nonzero x_v, a difference of two sums near 1, is at least 2^-54
    bracket = any(0.5 < p < 1.0 for p in ps) and pi.min() >= 2.0**-400
    rtol = _bracket_rtol(n)

    def score(
        rows: np.ndarray, mass: np.ndarray, bits: np.ndarray, hi_cross: np.ndarray, hi_inside: np.ndarray | None
    ) -> list[tuple[float, int]]:
        """(phi, low mask) of each exponent's first minimum over ``rows``, one
        contiguous slice of a block's admissible rows; numpy calls only, so
        a worker thread runs it without the GIL for most of its time."""
        member = member_low[rows]
        member[:, bits] = True
        weight = pi * member
        cross = R_low[rows]
        cross += hi_cross
        np.subtract(rowsum, cross, out=cross)
        np.maximum(cross, 0.0, out=cross)

        def phi_of(p: float, near=...) -> np.ndarray:
            terms = cross[near] ** p
            terms *= weight[near]
            return terms.sum(axis=1) / mass[near]

        if bracket:
            known = {q: phi_of(q) for q in (0.5, 1.0)}
            top = max(1.0, float(cross.max()))  # x**p >= x / top on [0, top]
        found = []
        for p in ps:
            near = ...  # the sets scored: all, or those the bracket keeps
            if p == 0.0:
                inside = inside_low[rows]
                inside += hi_inside
                phi = ((inside < degree) * weight).sum(axis=1) / mass
            elif bracket and p in known:
                phi = known[p]
            elif bracket and 0.5 < p < 1.0:
                ub = float(known[1.0].min()) ** p * (1.0 + rtol)
                near = np.flatnonzero(known[1.0] <= ub * top)
                near = near[known[0.5][near] ** (2.0 * p) <= ub]
                phi = phi_of(p, near)
            else:
                phi = phi_of(p)
            j = int(np.argmin(phi))
            found.append((phi[j], int(rows[near][j])))
        return found

    def drain(tickets: Iterator[int], slices: list, block: tuple, found: list) -> None:
        """Score the next unscored slice of the block until none is left."""
        for i in tickets:
            if i >= len(slices):
                return
            found[i] = score(*slices[i], *block)

    best = {p: (math.inf, -1) for p in ps}
    workers = _usable_cpus()
    pool = None
    try:
        for hi in range(1 << (n - low)):
            bits = low + np.flatnonzero(hi >> np.arange(n - low) & 1)
            mass = mass_low + pi[bits].sum()
            keep = mass <= 0.5 + MASS_SLACK
            keep[0] &= hi > 0  # the empty set
            rows = np.flatnonzero(keep)
            if rows.size == 0:
                continue
            mass = mass[rows]
            block = (bits, P[:, bits].sum(axis=1), support[:, bits].sum(axis=1, dtype=count) if need_p0 else None)
            k = max(1, min(workers, rows.size // _MIN_CHUNK_ROWS))
            step = min(_SCORE_ROWS, -(-rows.size // k))
            slices = [(rows[i : i + step], mass[i : i + step]) for i in range(0, rows.size, step)]
            found = [None] * len(slices)
            tickets = itertools.count()  # next() on it is atomic under the GIL
            if k > 1 and pool is None:
                from concurrent.futures import ThreadPoolExecutor  # ~10 ms to import

                pool = ThreadPoolExecutor(workers - 1)
            pending = [pool.submit(drain, tickets, slices, block, found) for _ in range(k - 1)]
            drain(tickets, slices, block, found)
            for f in pending:
                f.result()
            for part in found:  # ascending masks: the first minimum wins ties
                for p, (phi, mask) in zip(ps, part):
                    if phi < best[p][0]:
                        best[p] = float(phi), hi << low | mask
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return {p: _evaluate_set(c, np.flatnonzero(mask >> np.arange(n) & 1), p, "exact") for p, (_, mask) in best.items()}


def _bracket_rtol(n: int) -> float:
    """Relative window around a slice's smallest upper bound phi_1^p that
    holds the lower bounds max(phi_1 / top, phi_{1/2}^{2p}) of its first
    minimum of phi_p, top being the largest crossing mass or 1.

    Each phi_q a slice computes takes a power of every crossing mass (numpy's
    powers are within 4 units in the last place), multiplies it by pi(v),
    sums at most n nonnegative terms and divides once, so it is within
    (n + 9) eps / 2 of its value for the computed crossing masses; the
    computed pi(S) is within n eps / 2 of its members' sum. Following the
    first minimum through the bracket, the bound's scalar power and the
    power phi_{1/2}^{2p} costs at most about (3.25 n + 32) eps; the window is
    16 (n + 2) eps.
    """
    return 16.0 * (n + 2) * float(np.finfo(float).eps)


def _usable_cpus() -> int:
    """CPUs in this process's affinity mask, or all of them where the
    platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


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
