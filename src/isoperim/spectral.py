"""Second-eigenvalue certificates for reversible and directed chains.

With S = Pi^{1/2} P Pi^{-1/2}, I - P is similar to I - S. Every chain is
solved once, through Chung's symmetric directed Laplacian
L = I - (S + S^T)/2, whose second eigenvalue plays the role of lambda_2. A
reversible chain (``chains.is_reversible``) has S symmetric entry by entry,
so I - S is L (Chung, Ann. Comb. 9, 2005): its certificate takes L's
eigenpair and checks its own residual against I - S. Both kinds are a
:class:`SpectralCertificate` carrying lambda_2, the unit eigenvector v2 of
the symmetric matrix, and the reweighted eigenvector f2 = Pi^{-1/2} v2 used
by the sweep-cut machinery. A chain's certificates are read through
``bounds.ChainAnalysis.cert``, which builds each kind at most once. L is
solved for its eigenvalues alone and one linear system (``_certificate``).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .chains import MASS_SLACK, MarkovChain
from .errors import InputError, NumericalFailure

_RESIDUAL_TOL = 1e-8
_ORTHO_TOL = 1e-8


@dataclasses.dataclass(frozen=True, eq=False)
class SpectralCertificate:
    """lambda_2 with its eigenvector pair and the solve residual.

    kind is 'reversible-normalized' or 'chung-directed'. residual is
    ||L v2 - lambda2 v2||_2 for the kind's own L: I - S or Chung's.
    """

    lambda2: float
    f2: np.ndarray
    v2: np.ndarray
    kind: str
    residual: float

    def __post_init__(self) -> None:
        for name in ("f2", "v2"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def symmetric_eigensolve(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix, eigenvalues ascending,
    as (eigenvalues, orthonormal columns Q). An input that is not symmetric
    bit for bit is symmetrized as (M + M^T)/2 before solving, which leaves a
    symmetric one unchanged; gross asymmetry is rejected as a caller bug."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InputError("matrix has non-finite entries")
    if not np.array_equal(M.view(np.int64), M.T.view(np.int64)):
        norm = np.linalg.norm(M)
        if norm > 0 and np.linalg.norm(M - M.T) > 1e-6 * norm:
            raise InputError("matrix is not symmetric within tolerance")
        M = 0.5 * (M + M.T)
    try:
        w, Q = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(str(exc)) from exc
    return w, Q


def _similarity(c: MarkovChain) -> np.ndarray:
    """S = Pi^{1/2} P Pi^{-1/2}, symmetric when c is reversible."""
    sqrt_pi = np.sqrt(c.pi)
    S = sqrt_pi[:, None] * c.P
    S /= sqrt_pi
    return S


def _certificate(c: MarkovChain, chung: SpectralCertificate | None = None) -> SpectralCertificate:
    """Chung's certificate of c from one solve of L, or, given it for a
    reversible c, the reversible one: there I - S symmetrizes to L, so it
    takes L's eigenpair and checks its own residual against I - S.

    The solve takes lambda2 = w[1] from L's eigenvalues alone, then v2 by
    one step of inverse iteration: one LU solve of A x = b, with
    A = L - lambda2 I + u u^T and u = Pi^{1/2} 1 / |Pi^{1/2} 1|, L's unit
    eigenvector for 0. A is nearly singular only along lambda2's
    eigenspace, so x lies in it to rounding; u is projected out of x and the
    result normalized. The deflation u u^T moves u's eigenvalue from
    -lambda2 to 1 - lambda2, so that a small lambda2 does not leave A nearly
    singular along u too: on the inverse-cube circulant at n = 1024
    (lambda2 = 1e-4) it makes x's u part three to four orders of magnitude
    smaller before the projection. When lambda2 and A are exact in floating
    point, A can be exactly singular; the solve is then made once more with
    lambda2 lowered by the spacing of doubles at 2, the top of L's
    spectrum, a step that no rounding of A's diagonal absorbs. On a
    multiple lambda2, v2 is some unit vector of its eigenspace.
    """
    sqrt_pi = np.sqrt(c.pi)
    if chung is None:
        L = chung_laplacian(c)
        try:
            lambda2 = float(np.linalg.eigvalsh(L)[1])
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(str(exc)) from exc
        v2 = _deflated_solve(L, sqrt_pi / np.linalg.norm(sqrt_pi), lambda2)
        nz = np.nonzero(np.abs(v2) > 1e-12)[0]
        if nz.size and v2[nz[0]] < 0:  # deterministic sign: first non-negligible coordinate positive
            v2 = -v2
    else:
        L = _identity_minus(_similarity(c))
        lambda2, v2 = chung.lambda2, chung.v2
    residual = float(np.linalg.norm(L @ v2 - lambda2 * v2))
    if not residual <= _RESIDUAL_TOL * max(float(np.linalg.norm(L)), 1e-300):  # a NaN residual fails too
        raise NumericalFailure(f"eigenpair residual {residual:.3e} above tolerance")
    if abs(float(v2 @ sqrt_pi)) > _ORTHO_TOL:
        raise NumericalFailure("second eigenvector not orthogonal to the Perron direction")
    kind = "chung-directed" if chung is None else "reversible-normalized"
    return SpectralCertificate(lambda2=lambda2, f2=v2 / sqrt_pi, v2=v2, kind=kind, residual=residual)


def _deflated_solve(L: np.ndarray, u: np.ndarray, sigma: float) -> np.ndarray:
    """v2 of ``_certificate``'s solve, for the right-hand side
    b_k = sin(k), k = 1..n: fixed, with no period or sign pattern of its
    own, and free of the numpy.random import (about 9 ms a process) that a
    seeded draw would cost."""
    b = np.sin(np.arange(1.0, len(u) + 1.0))
    for shift in (sigma, sigma - np.spacing(2.0)):
        A = u[:, None] * u
        A += L
        A.flat[:: len(u) + 1] -= shift
        try:
            x = np.linalg.solve(A, b)
            break
        except np.linalg.LinAlgError as exc:
            failure = exc
    else:
        raise NumericalFailure(str(failure)) from failure
    x -= (u @ x) * u
    return x / np.linalg.norm(x)


def chung_laplacian(c: MarkovChain) -> np.ndarray:
    """Chung's symmetric Laplacian of an irreducible chain.

    L = I - (Pi^{1/2} P Pi^{-1/2} + Pi^{-1/2} P^T Pi^{1/2}) / 2; the smallest
    eigenvalue is 0 with eigenvector Pi^{1/2} 1.
    """
    L = _similarity(c)
    L += L.T.copy()
    L *= 0.5
    return _identity_minus(L)


def _identity_minus(M: np.ndarray) -> np.ndarray:
    """I - M in place, with the bits of ``np.eye(n) - M``."""
    np.subtract(0.0, M, out=M)  # 0 - m off the diagonal keeps each zero's sign
    M.flat[:: len(M) + 1] += 1.0  # -m + 1 is 1 - m
    return M


def truncated_eigenvector(cert: SpectralCertificate, c: MarkovChain) -> np.ndarray:
    """Positive part of f2, sign-fixed and rescaled to max 1.

    The sign of f2 is flipped if needed so that the pi-mass of {f2 > 0} is at
    most 1/2 (+1e-12); when both signs sit exactly at mass 1/2 the sign whose
    positive support contains the lowest-index vertex wins. The result
    f = max(f2, 0) / max f has support of pi-mass <= 1/2, which is what makes
    every sweep level set admissible.
    """
    f2 = np.asarray(cert.f2, dtype=float)
    if f2.shape != (c.n,):
        raise InputError("certificate does not match the chain")
    pos_mass = float(c.pi[f2 > 0].sum())
    neg_mass = float(c.pi[f2 < 0].sum())
    pos_ok = pos_mass <= 0.5 + MASS_SLACK and bool((f2 > 0).any())
    neg_ok = neg_mass <= 0.5 + MASS_SLACK and bool((f2 < 0).any())
    if not pos_ok and not neg_ok:
        raise NumericalFailure("no sign choice yields nonempty positive support of mass <= 1/2")
    if pos_ok and neg_ok and abs(pos_mass - 0.5) <= MASS_SLACK and abs(neg_mass - 0.5) <= MASS_SLACK:
        nz = np.nonzero(f2 != 0)[0]
        sign = 1.0 if f2[nz[0]] > 0 else -1.0
    elif pos_ok:
        sign = 1.0
    else:
        sign = -1.0
    f = np.maximum(sign * f2, 0.0)
    return f / f.max()


def truncated_rayleigh(c: MarkovChain, f: np.ndarray) -> float:
    """Rayleigh-type quotient of a nonnegative vector over ordered pairs,

        ( sum_{u,v : f(u) >= f(v)} q(u,v) (f(u) - f(v))^2 ) / sum_v pi(v) f(v)^2

    with the symmetrized flow q(u,v) = (pi(u)P(u,v) + pi(v)P(v,u)) / 2. For
    reversible chains detailed balance gives q(u,v) = pi(u)P(u,v), the plain
    one-sided quotient. The symmetrization matters for directed chains: the
    raw one-sided sum can exceed lambda2 of the Chung Laplacian, while this
    quotient never does (up to solver residual) when f is a truncated
    certificate eigenvector.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (c.n,):
        raise InputError("vector length does not match the chain")
    if (f < -1e-12).any():
        raise InputError("vector must be nonnegative")
    if not (f > 0).any():
        raise InputError("vector is identically zero")
    flow = c.pi[:, None] * c.P
    q = 0.5 * (flow + flow.T)
    diff = f[:, None] - f[None, :]
    num = float(np.sum(np.where(diff >= 0, q * diff**2, 0.0)))
    den = float(np.sum(c.pi * f**2))
    return num / den
