"""Machine-checkable inequality reports and the two proof gadgets.

:func:`bound_suite` evaluates every inequality instance on a chain (the
Cheeger pair, Chung's directed pair, Morris-Peres at p = 1/2 and
phi_p^2 <= 4 lambda_2 / (2p - 1)) and returns each as a :class:`BoundReport`
holding both sides, from which its slack and verdict are derived. It reads
a :class:`ChainAnalysis`, the per-chain store that derives each quantity
once and the one public way to a chain's certificates: one eigensolve of
Chung's Laplacian for the certificates of both kinds (the residual taken
per kind), every exact minimum from one enumeration pass over the exponents
the run reads, and every sweep cut from one pass over the level sets of the
chain's own certificate (:attr:`ChainAnalysis.own`). The store also holds the
one rule for the phi_p value a bound uses (exact within the enumeration cap,
else the sweep cut), and :meth:`ChainAnalysis.expect` routes an exponent to
the pass that rule reads. The CLI's ``analyze`` and ``verify`` select sides
and exponents over one store.
The gadgets are the two suprema used in the sweep-cut analysis, each in
closed form: the power-increment sum
sup_a sum_j (a_j^p - a_{j-1}^p)^2 / (a_j - a_{j-1}) = p^2 / (2p-1) <= 1/(2p-1)
for p > 1/2, and the telescoping ratio-chain maximum
(m+1)(1 - b0^{1/(m+1)}) / (1 + b0^{1/(m+1)}) -> (1/2) log(1/b0).
"""

from __future__ import annotations

import dataclasses
import math
from typing import ClassVar, Iterable, Sequence

from . import cuts
from .chains import MarkovChain, _integer, is_reversible
from .cuts import CutResult, check_exact, exact_minima, sweep_cuts
from .errors import InputError
from .spectral import SpectralCertificate, _certificate

_IRREVERSIBLE = "chain fails detailed balance; use ChainAnalysis.cert(True) instead"


@dataclasses.dataclass(frozen=True)
class BoundReport:
    """One inequality instance lhs <= rhs.

    slack = rhs - lhs and the verdict holds = slack >= -tol are derived from
    the two sides, so a report made by ``dataclasses.replace`` carries its
    own verdict. cut and cert are the phi_p cut and the lambda_2 certificate
    the two sides were computed from (None for a bound that reads neither),
    enough to re-derive them: the cut's method says whether phi_p is exact.
    """

    tol: ClassVar[float] = 1e-9
    name: str
    lhs: float
    rhs: float
    cut: CutResult | None = None
    cert: SpectralCertificate | None = None

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.slack >= -self.tol


def verdict(holds: bool) -> str:
    """The word a report prints for a bound's verdict."""
    return "holds" if holds else "VIOLATED"


class ChainAnalysis:
    """Every certificate and cut a run reads, each derived at most once.

    Holds the certificates, both kinds from one solve of Chung's Laplacian
    (each with its residual against its own matrix), the sweep cuts and the
    exact minima. The first exact read enumerates subsets once for every
    expected exponent, and the first sweep read sweeps the level sets of
    :attr:`own` once for every expected exponent; a read of an exponent not
    expected costs one more pass. :meth:`phi` applies the one rule for the
    value a bound uses: exact within ``cuts.EXACT_MAX_N`` states, otherwise
    the sweep cut, and :meth:`expect` adds exponents to the pass it reads.
    The constructor expects ``ps`` of the exact pass and ``sweep_ps`` of the
    sweep pass whatever the cap; ``ps`` above the cap raises TooLarge at once.
    """

    def __init__(self, c: MarkovChain, ps: Iterable[float] = (), sweep_ps: Iterable[float] = ()) -> None:
        self.c = c
        self.reversible = is_reversible(c)
        self.exact_ok = c.n <= cuts.EXACT_MAX_N
        self._ps = dict.fromkeys(map(float, ps))  # the next exact pass's exponents, in order
        if self._ps:
            check_exact(c.n)
        self._exact: dict[float, CutResult] = {}
        self._certs: dict[bool, SpectralCertificate] = {}
        self._sweep_ps = dict.fromkeys(map(float, sweep_ps))  # the next sweep pass's exponents, in order
        self._sweeps: dict[float, CutResult] = {}

    def expect(self, ps: Iterable[float]) -> None:
        """Add these exponents to the next pass :meth:`phi` reads: the exact
        pass within the cap, else the sweep pass."""
        (self._ps if self.exact_ok else self._sweep_ps).update(dict.fromkeys(map(float, ps)))

    @property
    def own(self) -> SpectralCertificate:
        """The chain's own certificate, whose level sets :meth:`sweep` cuts:
        the reversible one when the chain is reversible, else Chung's. Both
        kinds share f2."""
        return self.cert(not self.reversible)

    def cert(self, directed: bool) -> SpectralCertificate:
        """The Chung certificate if directed, else the reversible one, which
        takes Chung's eigenpair and the analysis's detailed-balance verdict."""
        if directed not in self._certs:
            if not (directed or self.reversible):
                raise InputError(_IRREVERSIBLE)
            self._certs[directed] = _certificate(self.c, None if directed else self.cert(True))
        return self._certs[directed]

    def exact(self, p: float) -> CutResult:
        """Exact phi_p minimizer; raises TooLarge above the cap."""
        p = float(p)
        if p not in self._exact:
            ps = [q for q in self._ps if q not in self._exact]
            self._exact.update(exact_minima(self.c, ps if p in ps else ps + [p]))
        return self._exact[p]

    def sweep(self, p: float) -> CutResult:
        """Sweep cut of :attr:`own`.

        A pass puts the read exponent first, so guarantee failures are
        raised in the order the run reads the cuts.
        """
        p = float(p)
        if p not in self._sweeps:
            ps = [p] + [q for q in self._sweep_ps if q != p and q not in self._sweeps]
            self._sweeps.update(sweep_cuts(self.c, ps, self.own))
        return self._sweeps[p]

    def phi(self, p: float) -> CutResult:
        """The phi_p value a bound uses: exact within the cap, else the sweep."""
        return self.exact(p) if self.exact_ok else self.sweep(p)


def _p_label(p: float) -> str:
    """p as names print it: the shortest decimal that reads back as p; 1.0 is "1"."""
    return repr(float(p)).removesuffix(".0")


def bound_suite(
    a: ChainAnalysis, reversible_ps: Sequence[float] | None = None, directed_ps: Sequence[float] | None = None
) -> list[BoundReport]:
    """The inequality reports of each requested side, reversible side first.

    A side (None skips it) is its Cheeger pair (Chung's for the directed
    side), Morris-Peres when n is within the exact cap, and the phi_p bound
    for each listed p in (1/2, 1]; other exponents are dropped. Every
    exponent the suite reads through :meth:`ChainAnalysis.phi` (1 and the
    listed p, both sides) is expected first, so it joins one exact pass within
    the cap and one sweep pass above it; Morris-Peres's exact 1/2 joins the
    exact pass. A side reads its cuts in the order of its lines.
    """
    sides = [(False, reversible_ps), (True, directed_ps)]
    sides = [(directed, [p for p in ps if 0.5 < p <= 1.0]) for directed, ps in sides if ps is not None]
    half = [0.5] if a.exact_ok else []
    for _, ps in sides:
        a.expect([1.0, *half, *ps])
    reports: list[BoundReport] = []
    for directed, ps in sides:
        cert = a.cert(directed)
        lam = cert.lambda2
        tag = ":directed" if directed else ""
        cut = a.phi(1.0)
        phi = cut.phi
        if directed:  # a sweep phi_1 is an upper bound on phi_1, so chung:lower is then conservative
            pair = [("chung:lower", phi**2 / 2.0, lam), ("chung:upper", lam, 2.0 * phi)]
        else:
            pair = [("cheeger:lower", lam / 2.0, phi), ("cheeger:upper", phi, math.sqrt(2.0 * lam))]
        reports.extend(BoundReport(name, lhs, rhs, cut, cert) for name, lhs, rhs in pair)
        if a.exact_ok:
            # the 8 comes from rearranging the sweep-cut estimate phi <= phi/2 +
            # sqrt(2 log(2/phi) lambda_2), with no lazy hypothesis. log(2/phi) > 0:
            # phi(S) is a pi-weighted mean of sqrt(P(v, S-bar)), and each crossing
            # mass is at most its row sum, within 1e-12 of 1, so phi < 2
            cut = a.exact(0.5)
            lhs = cut.phi**2 / (8.0 * math.log(2.0 / cut.phi))
            reports.append(BoundReport("morris_peres" + tag, lhs, lam, cut, cert))
        for p in ps:
            # a reversible certificate's sweep cut meets this too; a directed
            # one's is guaranteed only 8 lambda_2 / (2p - 1) (cuts.sweep_guarantee)
            cut = a.phi(p)
            name = f"phi_p_squared[p={_p_label(p)}]" + tag
            reports.append(BoundReport(name, cut.phi**2, 4.0 * lam / (2.0 * p - 1.0), cut, cert))
    return reports


def power_increment_supremum(p: float) -> float:
    """sup sum_j (a_j^p - a_{j-1}^p)^2 / (a_j - a_{j-1}) over monotone
    sequences 0 = a_0 <= ... <= a_N <= 1 (zero steps add nothing), which is
    p^2 / (2p - 1) for p in (1/2, 1].

    Write a^p - b^p = int_b^a p x^{p-1} dx. Cauchy-Schwarz gives
    (a^p - b^p)^2 / (a - b) <= int_b^a p^2 x^{2p-2} dx. The intervals of a
    monotone sequence in [0, 1] are disjoint, so the sum is at most
    int_0^1 p^2 x^{2p-2} dx = p^2 / (2p - 1). Geometric meshes
    a_j = r^{N-j}, with r -> 1 and r^N -> 0, approach that value, so it is
    the supremum. It is at most 1/(2p - 1), the constant of the sweep
    guarantee.
    """
    if not (0.5 < p <= 1.0):
        raise InputError(f"gadget requires p in (1/2, 1], got {p}")
    return p * p / (2.0 * p - 1.0)


def geometric_chain_sum(b0: float, m: int) -> float:
    """Maximum of sum_i (b_i - b_{i-1}) / (b_i + b_{i-1}) over monotone chains
    b0 <= b_1 <= ... <= b_m <= 1, attained at the geometric interpolation
    b_i = b0^{(m+1-i)/(m+1)}.

    Closed form (m+1)(1 - b0^{1/(m+1)}) / (1 + b0^{1/(m+1)}); nondecreasing
    in m with limit (1/2) log(1/b0).
    """
    if not (0.0 < b0 <= 1.0):
        raise InputError(f"b0 must lie in (0, 1], got {b0}")
    m = _integer(m, "m")
    if m < 0:
        raise InputError("m must be nonnegative")
    y = math.log(b0) / (m + 1)
    return (m + 1) * (-math.expm1(y)) / (1.0 + math.exp(y))
