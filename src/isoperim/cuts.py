"""Isoperimetric constants phi_p of a chain: per-set values, exact minima by
subset enumeration, and the spectral sweep cut.

For p in (0, 1] and a set S with pi(S) <= 1/2,

    phi_p(S) = ( sum_{v in S} pi(v) * P(v, S-bar)^p ) / pi(S),

with 0^p taken as 0. For p = 0 the numerator is instead pi(dS), the mass of
the inner vertex boundary dS = {v in S : P(v, S-bar) > 0}. phi_p of the chain
is the minimum over nonempty S with pi(S) <= 1/2.

The exact enumerator, :func:`exact_minima`, walks every bitmask in one pass
for all the exponents asked, on every CPU in the process's affinity mask. It
scores sets with one kernel and keeps each exponent's first minimum with one
chooser, so its values and winners (the smallest bitmask on a tie) are those
of scoring every set term by term, on any number of CPUs.

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

from .chains import MASS_SLACK, STRUCTURAL_ZERO, MarkovChain, vertex_ids
from .errors import InputError, NumericalFailure, TooLarge
from .spectral import SpectralCertificate, truncated_eigenvector

GUARANTEE_TOL = 1e-8
# Most states exact_minima enumerates: 2^24 sets. Readers look it up at call
# time, so a test that lowers it lowers it for every reader.
EXACT_MAX_N = 24
_BLOCK_BITS = 16
_SCORE_ROWS = 1 << 12  # sets in one slice; bounds each thread's temporaries
_TILE_ROWS = 1 << 8  # sets whose crossing masses are built as one row; divides _SCORE_ROWS


@dataclasses.dataclass(frozen=True)
class CutResult:
    """A vertex subset with its phi_p value.

    numerator is sum_v pi(v) P(v, S-bar)^p (or pi(dS) when p = 0), pi_mass is
    pi(S), and phi = numerator / pi_mass is derived from them. method records
    how the set was found: 'exact', 'sweep', or 'given-set'.
    """

    subset: tuple[int, ...]
    p: float
    numerator: float
    pi_mass: float
    method: str

    @property
    def phi(self) -> float:
        return self.numerator / self.pi_mass


class PhiProfile(NamedTuple):
    phi0: float
    phi_half: float
    phi1: float


def _validate_p(p: float) -> float:
    try:
        p = float(p) + 0.0  # -0.0 reads as 0.0
    except (TypeError, ValueError, OverflowError) as exc:  # "x", None, 10**400: float's own message
        raise InputError(str(exc)) from None
    if not 0.0 <= p <= 1.0:
        raise InputError(f"p must lie in [0, 1], got {p}")
    return p


def _subset_indices(c: MarkovChain, subset: Iterable[int]) -> np.ndarray:
    idx = np.unique(vertex_ids(subset))
    if idx.size == 0:
        raise InputError("subset must be nonempty")
    if idx[0] < 0 or idx[-1] >= c.n:
        raise InputError(f"subset contains out-of-range vertices for n={c.n}")
    return idx


def _evaluate_set(c: MarkovChain, idx: np.ndarray, p: float, method: str) -> CutResult:
    """phi_p of a validated index set, computed directly from P."""
    mass = float(c.pi[idx].sum())
    if mass > 0.5 + MASS_SLACK:
        raise InputError(f"pi(S) = {mass} exceeds 1/2")
    comp = np.setdiff1d(np.arange(c.n), idx, assume_unique=True)
    block = c.P[np.ix_(idx, comp)]
    if p == 0.0:
        boundary = (block > STRUCTURAL_ZERO).any(axis=1)
        num = float(c.pi[idx][boundary].sum())
    else:
        cross = block.sum(axis=1)
        num = float(np.sum(c.pi[idx] * cross**p))
    return CutResult(subset=tuple(int(v) for v in idx), p=p, numerator=num, pi_mass=mass, method=method)


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


def _subset_sums(rows: np.ndarray, inf_outside: bool = False) -> np.ndarray:
    """Row m is the sum of ``rows[b]`` over the set bits b of m, for every
    mask m of ``len(rows)`` bits, built in place by doubling (bit b is added
    last). With ``inf_outside``, entry b of each row whose mask lacks bit b
    is +inf instead: it is written into the first 2^b rows once the upper
    half has been formed from them, and each later doubling carries it, as
    inf + x = inf for finite x."""
    sums = np.empty((1 << len(rows), *rows.shape[1:]), dtype=rows.dtype)
    sums[0] = 0
    for b, row in enumerate(rows):
        np.add(sums[: 1 << b], row, out=sums[1 << b : 2 << b])
        if inf_outside:
            sums[: 1 << b, b] = np.inf
    return sums


def check_exact(n: int) -> None:
    """Raise TooLarge when n states exceed EXACT_MAX_N."""
    if n > EXACT_MAX_N:
        raise TooLarge(f"n = {n} exceeds the exact enumeration cap {EXACT_MAX_N}")


def exact_minima(c: MarkovChain, ps: Sequence[float]) -> dict[float, CutResult]:
    """Global minimizers of phi_p over all admissible subsets, one pass for
    several exponents at once.

    Enumerates every nonempty S with pi(S) <= 1/2 + 1e-12 by bitmask, in
    blocks of the 2^16 masks of the low bits. Over the masks of the low bits,
    pi(S) and the row sums P(v, S) are subset sums of per-vertex rows, built
    once by doubling, with +inf in place of P(v, S) for a low vertex outside
    the mask; each block of the high bits adds its own vertices' row sums,
    +inf for the high vertices it leaves out, and keeps only its admissible
    sets. The crossing mass x_v = max(P(v, V) - P(v, S), 0) is then 0 for
    every v outside S, so the term of v is x_v^p for p > 0 with no membership
    table. For p = 0 the term is 1 when v is on the boundary, that is in S
    (its P(v, S) finite) with a bit of its bitmask of entries above
    STRUCTURAL_ZERO outside S's mask, and 0 otherwise.

    One kernel, ``bulk``, scores sets: from the crossing masses of some of a
    block's admissible sets it returns, per exponent, the phi of each set,
    term by term (:func:`_term_phi`) or fast (:func:`_fast_phi`, one
    matrix-vector product). One chooser, ``choose``, keeps each exponent's
    first minimum of each block, the masks in ascending order, and compares
    term-by-term values alone. So ties go to the smallest bitmask, and the
    values and the winner are bit-identical to scoring every set term by
    term, however the BLAS orders its sums:

    - p = 0 is scored term by term on every set: on a dense chain most sets
      tie at phi_0 = 1, and a window would keep them all. So is every p
      where some pi(v) is below 2^-400, since a product could underflow and
      neither window below would hold.
    - Any other p > 0 outside (1/2, 1) is scored fast on every set.
      ``choose`` has ``bulk`` score again, term by term, the sets whose fast
      value is within a relative ``_score_rtol(n)`` of the block's smallest,
      a window that holds the block's first minimum.
    - Any other p, in (1/2, 1), is not scored fast. The block's fast
      phi_{1/2} and phi_1 (taken once, also when ``ps`` asks for them) read
      the power-mean bracket

          max(phi_1, phi_{1/2}^{2p}) <= phi_p <= phi_1^p

      (x^p >= x on [0, 1], and M_{1/2} <= M_p <= M_1 for the pi-weighted
      means of P(v, S-bar) over S), and ``bulk`` scores p term by term on the
      sets whose lower bound max(phi_1 / top, phi_{1/2}^{2p}) is within a
      relative ``_bracket_rtol(n)`` of the block's smallest upper bound
      min phi_1^p. top is the largest row sum P(v, V), or 1 if that is
      smaller: a computed crossing mass fl(P(v, V) - t), t >= 0, never
      exceeds its row sum, and x^p >= x / top on [0, top]. phi_{1/2} and
      phi_1 take numpy's sqrt and identity fast paths, and a general power
      costs several times as much.

    A block's admissible sets are cut into contiguous slices of
    ``_SCORE_ROWS``, which the calling thread and, when the block has more
    than one slice, up to one more thread per CPU in the process's affinity
    mask (at most one per slice, from a pool made at most once per call)
    take one at a time in mask order. A slice runs ``bulk`` alone, long numpy
    calls that release the GIL. Crossing masses are built ``_TILE_ROWS`` sets
    at a time, as rows of ``_TILE_ROWS`` n entries against the high vertices'
    row sums and P(v, V) tiled as often: the same elementwise operations as
    one set at a time, in a longer inner loop; the rows past the last whole
    tile are built the same way, as one shorter row against the first
    entries of the same tiled rows. Once every slice has run, the calling
    thread runs ``choose`` on the block's arrays, joined in mask order, and
    frees them before the next block. So a call's peak memory is small and
    does not depend on how the threads interleave, and a thread that is slow
    to run leaves its share to the others. There is no setting. Each set's
    arithmetic does not depend on the slicing, so the minima are identical on
    any number of CPUs.
    """
    ps = list(dict.fromkeys(_validate_p(p) for p in ps))
    check_exact(c.n)
    n, P, pi = c.n, c.P, c.pi
    low = min(n, _BLOCK_BITS)
    mass_low = _subset_sums(pi[:low])
    R_low = _subset_sums(P[:, :low].T, inf_outside=True)  # R_low[m, v] = P(v, m), or inf for v < low outside m
    rowsum = P.sum(axis=1)
    tile = _TILE_ROWS
    rowsum_tiled = np.tile(rowsum, tile)
    nbr = (P > STRUCTURAL_ZERO) @ (1 << np.arange(n))  # bitmask of each row's support
    # with pi >= 2^-400 every nonzero pi(v) x_v^q and phi_{1/2}^{2p} is a normal
    # float, so both windows hold: a nonzero x_v, a difference of two sums
    # near 1, is at least 2^-54
    normal = pi.min() >= 2.0**-400
    bracket = normal and any(0.5 < p < 1.0 for p in ps)
    windowed = [p for p in ps if normal and p > 0.0]
    every = [p for p in ps if p not in windowed]  # scored term by term on every set
    # exponents with a fast value, 1/2 last: its sqrt overwrites the crossing masses
    fast_ps = {p for p in windowed if not 0.5 < p < 1.0} | ({0.5, 1.0} if bracket else set())
    fast_ps = sorted(fast_ps, key=lambda p: (p == 0.5, p))
    rtol = _bracket_rtol(n)
    score_rtol = _score_rtol(n)
    top = max(1.0, float(rowsum.max()))  # no crossing mass exceeds it; x**p >= x / top on [0, top]

    def crossing(rows: np.ndarray, hi_tiled: np.ndarray) -> np.ndarray:
        """P(v, V) - P(v, S) of each row's set S, -inf for v outside S; each
        whole tile of rows is built as one row of tile * n entries, and the
        rows past the last whole tile as one shorter row, each against as
        many entries of ``hi_tiled`` (the high vertices' row sums tiled
        ``tile`` times) and of P(v, V) tiled as often."""
        cross = np.take(R_low, rows, axis=0)
        flat = cross.reshape(-1)
        whole = (rows.size - rows.size % tile) * n
        for part in (flat[:whole].reshape(-1, tile * n), flat[whole:]):
            part += hi_tiled[: part.shape[-1]]
            np.subtract(rowsum_tiled[: part.shape[-1]], part, out=part)
        return cross

    def bulk(rows: np.ndarray, mass: np.ndarray, hi_tiled: np.ndarray, hi_mask: int,
             term_ps: Sequence[float] = every, fast: Sequence[float] = fast_ps) -> list[np.ndarray]:
        """The phi of each set of ``rows``, a slice of a block's admissible
        rows or a window of them, one array per exponent: term by term for
        ``term_ps``, then fast for ``fast``. Long numpy calls only, so a
        worker thread runs it without the GIL for most of its time."""
        cross = crossing(rows, hi_tiled)
        if 0.0 in term_ps:  # whether v is on the boundary
            boundary = (cross > -np.inf) & ((nbr & ~(rows | hi_mask)[:, None]) != 0)
        np.maximum(cross, 0.0, out=cross)
        phis = [_term_phi(_powers(cross, p) if p else boundary, pi, mass) for p in term_ps]
        return phis + [_fast_phi(np.sqrt(cross, out=cross) if p == 0.5 else _powers(cross, p), pi, mass) for p in fast]

    def drain(tickets: Iterator[int], slices: list, block: tuple, parts: list) -> None:
        """Run ``bulk`` on the next slice of the block until none is left."""
        for i in tickets:
            if i >= len(slices):
                return
            parts[i] = bulk(*slices[i], *block)

    best = {p: (math.inf, -1) for p in ps}

    def choose(rows: np.ndarray, mass: np.ndarray, parts: list, block: tuple) -> None:
        """Keep each exponent's first minimum over one block, from the arrays
        of its slices joined in mask order: every set's for ``every``, and
        for each windowed exponent those of the sets of its window or
        bracket, scored again by ``bulk``."""
        hi_mask = block[-1]
        phis = dict(zip(every + fast_ps, map(np.concatenate, zip(*parts))))
        scored = [(p, rows, phis[p]) for p in every]
        for p in windowed:
            if 0.5 < p < 1.0:  # the bracket
                ub = float(phis[1.0].min()) ** p * (1.0 + rtol)
                near = np.flatnonzero(phis[1.0] <= ub * top)
                near = near[phis[0.5][near] ** (2.0 * p) <= ub]
            else:
                near = np.flatnonzero(phis[p] <= phis[p].min() * (1.0 + score_rtol))
            scored.append((p, rows[near], *bulk(rows[near], mass[near], *block, (p,), ())))
        for p, at, phi in scored:
            j = int(np.argmin(phi))
            if phi[j] < best[p][0]:
                best[p] = float(phi[j]), hi_mask | int(at[j])

    workers = _usable_cpus()
    pool = None
    try:
        for hi in range(1 << (n - low)):
            held = hi >> np.arange(n - low) & 1  # which high vertices the block holds
            bits = low + np.flatnonzero(held)
            mass = mass_low + pi[bits].sum()
            keep = mass <= 0.5 + MASS_SLACK
            keep[0] &= hi > 0  # the empty set
            rows = np.flatnonzero(keep)
            if rows.size == 0:
                continue
            mass = mass[rows]
            hi_cross = P[:, bits].sum(axis=1)
            hi_cross[low:][held == 0] = np.inf
            block = (np.tile(hi_cross, tile), hi << low)
            slices = [(rows[i : i + _SCORE_ROWS], mass[i : i + _SCORE_ROWS]) for i in range(0, rows.size, _SCORE_ROWS)]
            parts = [None] * len(slices)
            tickets = itertools.count()  # next() on it is atomic under the GIL
            threads = min(workers, len(slices))
            if threads > 1 and pool is None:
                from concurrent.futures import ThreadPoolExecutor  # ~10 ms to import

                pool = ThreadPoolExecutor(workers - 1)
            pending = [pool.submit(drain, tickets, slices, block, parts) for _ in range(threads - 1)]
            drain(tickets, slices, block, parts)
            for f in pending:
                f.result()
            choose(rows, mass, parts, block)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return {p: _evaluate_set(c, np.flatnonzero(mask >> np.arange(n) & 1), p, "exact") for p, (_, mask) in best.items()}


def _bracket_rtol(n: int) -> float:
    """Relative window around a block's smallest upper bound phi_1^p that
    holds the lower bounds max(phi_1 / top, phi_{1/2}^{2p}) of its first
    minimum of phi_p, top being the largest row sum P(v, V) or 1, whichever
    is larger, which no computed crossing mass exceeds.

    The bracket reads the fast phi_{1/2} and phi_1 of every set (see
    :func:`_score_rtol`) and the term-by-term phi_p of the sets it keeps.
    Each takes a power of every crossing mass (numpy's powers are within 4
    units in the last place), multiplies it by pi(v), sums at most n
    nonnegative terms and divides once. In any order of the sum, with or
    without fused multiply-adds, the products and the sum are within
    gamma_n = n eps / 2 / (1 - n eps / 2) of their exact value, so each phi_q
    is within (n + 9) eps / 2 of its value for the computed crossing masses;
    the computed pi(S) is within n eps / 2 of its members' sum. Following the
    first minimum through the bracket, the bound's scalar power and the
    power phi_{1/2}^{2p} costs at most about (3.25 n + 32) eps; the window is
    16 (n + 2) eps.
    """
    return 16.0 * (n + 2) * float(np.finfo(float).eps)


def _powers(x: np.ndarray, p: float) -> np.ndarray:
    """x**p of a nonnegative array, p > 0. numpy's general power is several
    times slower at 0 than elsewhere, so zeros are raised as ones and then
    cleared; the other entries are numpy's x**p."""
    if p in (0.5, 1.0):  # sqrt and the identity, as fast at 0
        return x if p == 1.0 else x**p
    zero = x == 0.0
    out = x + zero
    out **= p
    out *= ~zero
    return out


def _term_phi(terms: np.ndarray, pi: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """The term-by-term phi of each row's set: each term, 0 outside the set,
    times pi(v), summed along the row by numpy, over pi(S)."""
    return (terms * pi).sum(axis=1) / mass


def _fast_phi(terms: np.ndarray, pi: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """The fast phi of each row's set: its terms, 0 outside the set, times pi
    by one matrix-vector product, over pi(S); see :func:`_score_rtol`."""
    return terms @ pi / mass


def _score_rtol(n: int) -> float:
    """Relative window around a block's smallest fast phi that holds the
    fast phi of the first minimum of the term-by-term values.

    Both values of a set start from the same computed terms t_v >= 0 and the
    same computed pi(S). Let N = sum_v t_v pi(v) exactly and u = eps / 2.
    The term-by-term value rounds each product t_v pi(v) and sums the n of
    them in numpy's order; the fast value is one BLAS dot product, whose
    order and fused multiply-adds are the library's. For nonnegative terms
    either is within gamma_n = n u / (1 - n u) of N in any order (Higham,
    Accuracy and Stability of Numerical Algorithms, sections 3.1 and 4.2),
    and the division by pi(S) adds one rounding. No product underflows when
    pi >= 2^-400, so a value is 0 iff N is. The two values of one set are
    then within a relative 2 gamma_n + 2u + O(u^2) = (n + 1) eps + O(eps^2)
    of each other, below kappa = (n + 2) eps.

    Let F be the fast minimum, at a set T, and S the first minimum of the
    term-by-term values. Then ref(S) <= ref(T) <= F (1 + kappa) and
    fast(S) <= ref(S) (1 + kappa) <= F (1 + kappa)^2, about F (1 + 2 kappa).
    The window is 4 kappa, so it holds S while each fast value is within
    about 2 kappa of its term-by-term value, twice the bound. S is the first
    minimum of the sets in the window too: a set before it with the same
    value would be the first minimum of the block. Nothing here depends on
    which sets are compared, so the window holds over a block as over any
    collection of sets.
    """
    return 4.0 * (n + 2) * float(np.finfo(float).eps)


def _usable_cpus() -> int:
    """CPUs in this process's affinity mask, or all of them where the
    platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def sweep_cuts(c: MarkovChain, ps: Sequence[float], cert: SpectralCertificate) -> dict[float, CutResult]:
    """Best level set of the truncated second eigenvector for each exponent,
    from one pass over the level sets.

    Thresholds run over the distinct values of f(i)^2 in descending order, so
    vertices with equal f enter together and every distinct level set is
    tried. Each candidate has pi-mass <= 1/2 by the truncation. The pass
    walks the levels from the largest set down, keeping the crossing mass
    P(v, S-bar) of every vertex as a sum of the complement's columns (a group
    leaving S adds its columns) and, for p = 0, whether it has an entry above
    STRUCTURAL_ZERO there; sums of nonnegative terms carry no cancellation.
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
    member = rank < levels
    cross = np.zeros(c.n)
    leaving = np.zeros(c.n, dtype=bool)  # has an entry above STRUCTURAL_ZERO outside S
    mass = np.empty(levels)
    num = {p: np.empty(levels) for p in ps}
    for j in range(levels, 0, -1):
        group = order[first[j] : first[j + 1]]
        member[group] = False
        cols = P[:, group]
        cross += cols.sum(axis=1)
        pi_s = pi[member]
        mass[j - 1] = pi_s.sum()
        cross_s = cross[member]
        if 0.0 in num:
            leaving |= (cols > STRUCTURAL_ZERO).any(axis=1)
            num[0.0][j - 1] = pi[member & leaving].sum()
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
        # the first of equal phi is the smallest level set
        best = min((_evaluate_set(c, np.flatnonzero(rank <= j), p, "sweep") for j in near), key=lambda cut: cut.phi)
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
