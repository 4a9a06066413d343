"""Independent checks of the CLI's outputs.

This module shares no code with the package under test: it parses the input
files itself, builds the chain with numpy, and recomputes every value it
checks from first principles. Each check raises :class:`CheckFailed` with a
reason; none depends on the seed.

Tolerances:
  * a cut's phi, numerator and pi_mass against a recomputation from the
    subset: 1e-12 relative;
  * lambda2 against ``numpy.linalg.eigvalsh`` or the analytic circulant
    value: 1e-9 relative;
  * exact phi_p against this module's own brute-force minimum (n <= 20):
    1e-12 relative;
  * scan lambda2 against the analytic value: 1e-14 absolute, because the
    CLI takes it from an FFT of the first row of I - P, whose entries are of
    order 1 while lambda2 falls like log(n)/n^2;
  * scan phi_half_arc against tail sums added smallest term first: 1e-10
    relative;
  * generated weights: exactly the double nearest 1/min(d, n-d)^3, since
    17 significant digits round-trip.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

REL = 1e-12
LAMBDA_REL = 1e-9
MASS_SLACK = 1e-12
SWEEP_SLACK = 1e-8
BOUND_TOL = 1e-9
SCAN_LAMBDA_ABS = 1e-14
SCAN_PHI_REL = 1e-10
BRUTE_FORCE_MAX_N = 20
# The CLI's exact-enumeration cap with ISO_MAX_EXACT_N unset, as in the worker.
CLI_EXACT_CAP = 24
_CHUNK = 1 << 16


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(got: float, want: float, rel: float, what: str) -> None:
    _require(
        math.isfinite(got) and abs(got - want) <= rel * max(abs(want), abs(got)),
        f"{what}: got {got!r}, expected {want!r} (relative tolerance {rel:g})",
    )


# --------------------------------------------------------------------------
# reference chains
# --------------------------------------------------------------------------

def read_edges(path: str) -> tuple[bool, int, np.ndarray, np.ndarray, np.ndarray]:
    """(directed, n, u, v, w) from an edge-tsv file with 0-based ids.

    Accepts exactly the layout the benchmark and the CLI write: a header
    line, then three fields per line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        body = fh.read()
    _require(header in ("directed", "undirected"), f"{path}: bad header {header!r}")
    data = np.array(body.split(), dtype=float).reshape(-1, 3)
    ids = data[:, :2]
    _require(bool(np.all(ids == np.round(ids)) and ids.min() >= 1), f"{path}: vertex ids must be integers >= 1")
    u = ids[:, 0].astype(np.int64) - 1
    v = ids[:, 1].astype(np.int64) - 1
    return header == "directed", int(ids.max()), u, v, data[:, 2]


class Reference:
    """A chain rebuilt from an input file: P, pi, reversibility, lambda2 and,
    for n <= 20, exact phi_p by brute force."""

    def __init__(self, path: str, analytic_lambda2: float | None = None) -> None:
        directed, n, u, v, w = read_edges(path)
        W = np.zeros((n, n))
        np.add.at(W, (u, v), w)
        if not directed:
            off = u != v
            np.add.at(W, (v[off], u[off]), w[off])
        out = W.sum(axis=1)
        _require(bool(out.min() > 0), f"{path}: a vertex has no outgoing weight")
        self.n = n
        self.P = W / out[:, None]
        if directed:
            A = np.vstack([self.P.T - np.eye(n), np.ones((1, n))])
            b = np.zeros(n + 1)
            b[-1] = 1.0
            self.pi = np.linalg.lstsq(A, b, rcond=None)[0]
        else:
            self.pi = out / out.sum()
        _require(bool(self.pi.min() > 0), f"{path}: stationary vector is not positive")
        F = self.pi[:, None] * self.P
        self.reversible = bool(np.max(np.abs(F - F.T)) <= 1e-10 * F.max())
        if analytic_lambda2 is not None:
            self.lambda2 = analytic_lambda2
        else:
            # Chung's Laplacian; it equals the normalized one for reversible chains.
            s = np.sqrt(self.pi)
            Asym = (s[:, None] * self.P) / s[None, :]
            self.lambda2 = float(np.linalg.eigvalsh(np.eye(n) - 0.5 * (Asym + Asym.T))[1])
        self._exact: dict[float, float] = {}

    def phi_of_set(self, subset_1based: list[int], p: float) -> tuple[float, float, float]:
        """(numerator, pi_mass, phi) of a set given with 1-based ids."""
        idx = np.array(subset_1based, dtype=np.int64) - 1
        _require(idx.size > 0 and idx.size < self.n, f"subset size {idx.size} not in [1, n-1]")
        _require(bool(idx.min() >= 0 and idx.max() < self.n), "subset id out of range")
        _require(np.unique(idx).size == idx.size, "subset has repeated ids")
        inside = np.zeros(self.n, dtype=bool)
        inside[idx] = True
        cross = self.P[np.ix_(inside, ~inside)].sum(axis=1)
        mass = float(self.pi[inside].sum())
        num = float(np.sum(self.pi[inside] * cross**p))
        return num, mass, num / mass

    def exact_phi(self, p: float) -> float | None:
        """min phi_p over nonempty S with pi(S) <= 1/2, by enumerating all
        subsets; None above the brute-force size limit."""
        if self.n > BRUTE_FORCE_MAX_N:
            return None
        if p not in self._exact:
            self._exact[p] = self._brute_force(p)
        return self._exact[p]

    def _brute_force(self, p: float) -> float:
        n, P, pi = self.n, self.P, self.pi
        bits = np.arange(n)
        best = math.inf
        for start in range(1, 1 << n, _CHUNK):
            masks = np.arange(start, min(start + _CHUNK, 1 << n), dtype=np.int64)
            member = ((masks[:, None] >> bits[None, :]) & 1).astype(bool)
            mass = member.astype(float) @ pi
            ok = mass <= 0.5 + MASS_SLACK
            if not ok.any():
                continue
            member, mass = member[ok], mass[ok]
            cross = (~member).astype(float) @ P.T  # cross[s, v] = P(v, complement of s)
            num = np.where(member, pi[None, :] * cross**p, 0.0).sum(axis=1)
            best = min(best, float((num / mass).min()))
        return best


def circulant_lambda2(n: int) -> float:
    """Lowest nonzero-frequency eigenvalue of I - P for the inverse-cube
    circulant, from sum_d w_d (1 - cos(2 pi k d / n)) / C written with
    sin^2 so that no digits cancel."""
    d = np.arange(1, n)
    w = 1.0 / np.minimum(d, n - d).astype(float) ** 3
    C = math.fsum(w.tolist())
    return min(
        math.fsum((2.0 * w * np.sin(np.pi * k * d / n) ** 2).tolist()) / C for k in range(1, min(4, n // 2) + 1)
    )


def circulant_arc_min_phi_half(n: int) -> float:
    """min over arcs {1..l}, l <= n/2, of phi_{1/2} for the inverse-cube
    circulant, with every crossing mass taken as a sum of two kernel tails.

    Vertex v of the arc reaches the complement at cyclic distances d in
    [l+1-v, n-v]; folding d > n/2 to n-d splits that range into
    m in [l+1-v, H] and m in [v, n-H-1] with H = floor(n/2), and each tail
    sum_{m>=k} m^-3 is accumulated smallest term first.
    """
    H = n // 2
    m = np.arange(1, H + 1, dtype=float)
    terms = 1.0 / m**3
    tail_a = np.zeros(H + 2)  # tail_a[k] = sum_{m=k}^{H} m^-3
    tail_a[1 : H + 1] = np.cumsum(terms[::-1])[::-1]
    hb = n - H - 1
    tail_b = np.zeros(H + 2)  # tail_b[k] = sum_{m=k}^{n-H-1} m^-3
    tail_b[1 : hb + 1] = np.cumsum(terms[:hb][::-1])[::-1]
    C = tail_a[1] + tail_b[1]
    best = math.inf
    for l in range(1, H + 1):
        v = np.arange(1, l + 1)
        cross = (tail_a[l + 1 - v] + tail_b[v]) / C
        best = min(best, float(np.sqrt(cross).sum()) / l)
    return best


# --------------------------------------------------------------------------
# bound reports
# --------------------------------------------------------------------------

_NAME = re.compile(r"^(cheeger|chung|morris_peres|phi_p_squared)(?:\[p=([0-9.eE+-]+)\])?(?::(lower|upper|directed))?$")


def _bound_sides(name: str):
    """(p, lam_index, lam_side, phi_side) for a bound name: the exponent of
    its phi, which of (lhs, rhs) carries lambda2, and each side as a function
    of lambda2 or phi_p. None for a name this module does not know."""
    m = _NAME.match(name)
    if m is None:
        return None
    base, p_text, tag = m.groups()
    if base == "cheeger" and tag == "lower":
        return 1.0, 0, lambda lam: lam / 2.0, lambda phi: phi
    if base == "cheeger" and tag == "upper":
        return 1.0, 1, lambda lam: math.sqrt(2.0 * lam), lambda phi: phi
    if base == "chung" and tag == "lower":
        return 1.0, 1, lambda lam: lam, lambda phi: phi**2 / 2.0
    if base == "chung" and tag == "upper":
        return 1.0, 0, lambda lam: lam, lambda phi: 2.0 * phi
    if base == "morris_peres":
        return 0.5, 1, lambda lam: lam, lambda phi: phi**2 / (8.0 * math.log(2.0 / phi))
    if base == "phi_p_squared" and p_text is not None:
        p = float(p_text)
        return p, 1, lambda lam: 4.0 * lam / (2.0 * p - 1.0), lambda phi: phi**2
    return None


def check_bound(name: str, lhs: float, rhs: float, holds: bool, ref: Reference, phi_candidates) -> None:
    """One inequality line: the verdict matches the sides, the inequality
    holds, the lambda2 side matches the reference, and, when candidate
    phi values are known, the phi side matches one of them."""
    _require(holds == (rhs - lhs >= -BOUND_TOL), f"{name}: verdict does not match its sides")
    _require(holds, f"{name}: reported VIOLATED (lhs={lhs!r}, rhs={rhs!r})")
    spec = _bound_sides(name)
    if spec is None:
        return
    p, lam_index, lam_side, phi_side = spec
    sides = (lhs, rhs)
    _close(sides[lam_index], lam_side(ref.lambda2), LAMBDA_REL, f"{name} lambda2 side")
    got = sides[1 - lam_index]
    candidates = phi_candidates(p)
    if candidates:
        _require(
            any(abs(phi_side(phi) - got) <= REL * abs(got) for phi in candidates),
            f"{name}: phi side {got!r} follows from none of the phi_{p:g} values {candidates}",
        )


def _guarantee(ref: Reference, p: float) -> float:
    scale = 1.0 if ref.reversible else 2.0
    return 2.0 * math.sqrt(scale * ref.lambda2 / (2.0 * p - 1.0))


def _check_cut(cut: dict, ref: Reference) -> None:
    p = float(cut["p"])
    what = f"cut p={p:g} method={cut['method']}"
    num, mass, phi = ref.phi_of_set(cut["subset"], p)
    _close(cut["pi_mass"], mass, REL, f"{what} pi_mass")
    _close(cut["numerator"], num, REL, f"{what} numerator")
    _close(cut["phi"], phi, REL, f"{what} phi")
    _require(cut["pi_mass"] <= 0.5 + MASS_SLACK, f"{what}: pi_mass {cut['pi_mass']!r} above 1/2")
    if cut["method"] == "exact":
        exact = ref.exact_phi(p)
        if exact is not None:
            _close(cut["phi"], exact, REL, f"{what} against brute force")
    if cut["method"] == "sweep" and p > 0.5:
        _require(cut["phi"] <= _guarantee(ref, p) + SWEEP_SLACK, f"{what}: sweep guarantee fails")


# --------------------------------------------------------------------------
# one check per command
# --------------------------------------------------------------------------

def check_analyze(text: str, ref: Reference, ps: list[float], methods: list[str]) -> None:
    report = json.loads(text)
    _require(report["chain"]["n"] == ref.n, "chain.n differs from the input")
    _require(report["chain"]["reversible"] == ref.reversible, "chain.reversible differs from the input")
    lambdas = {k: v for k, v in report["spectral"].items() if k.startswith("lambda2_")}
    want = "lambda2_reversible" if ref.reversible else "lambda2_directed"
    _require(want in lambdas, f"spectral section lacks {want}")
    for key, value in lambdas.items():
        _close(value, ref.lambda2, LAMBDA_REL, f"spectral.{key}")
    cuts = report["cuts"]
    for cut in cuts:
        _check_cut(cut, ref)
    for p in ps:
        found = {c["method"]: c["phi"] for c in cuts if c["p"] == p}
        for method in methods:
            _require(method in found, f"no {method} cut for p={p:g}")
        if "exact" in found and "sweep" in found:
            _require(found["exact"] <= found["sweep"] * (1 + REL), f"p={p:g}: exact phi above sweep phi")

    def phis(p):
        return [c["phi"] for c in cuts if c["p"] == p]

    _require(len(report["bounds"]) > 0, "bounds section is empty")
    for b in report["bounds"]:
        _require(b["slack"] == b["rhs"] - b["lhs"], f"{b['name']}: slack is not rhs - lhs")
        check_bound(b["name"], b["lhs"], b["rhs"], b["holds"], ref, phis)


_VERIFY_LINE = re.compile(r"^(\S+)\s+lhs=(\S+)\s+rhs=(\S+)\s+(holds|VIOLATED)$")


def check_verify(stdout: str, ref: Reference) -> None:
    """Every applicable inequality is printed, holds, and matches the reference."""

    def exact(p):
        phi = ref.exact_phi(p)
        return [] if phi is None else [phi]

    names = set()
    for line in stdout.splitlines():
        m = _VERIFY_LINE.match(line)
        _require(m is not None, f"unparsable verify line {line!r}")
        name, lhs, rhs, verdict = m.group(1), float(m.group(2)), float(m.group(3)), m.group(4)
        names.add(name)
        check_bound(name, lhs, rhs, verdict == "holds", ref, exact)
    expected = {"chung:lower", "chung:upper", "phi_p_squared[p=0.6]:directed", "phi_p_squared[p=1]:directed"}
    if ref.reversible:
        expected |= {"cheeger:lower", "cheeger:upper"} | {f"phi_p_squared[p={p:g}]" for p in (0.6, 0.75, 0.9, 1.0)}
    if ref.n <= CLI_EXACT_CAP:
        expected |= {"morris_peres:directed"} | ({"morris_peres"} if ref.reversible else set())
    _require(expected <= names, f"verify output lacks {sorted(expected - names)}")


def check_sweep(text: str, ref: Reference, p: float) -> None:
    report = json.loads(text)
    _require(report["chain"]["n"] == ref.n, "chain.n differs from the input")
    _require(report["chain"]["reversible"] == ref.reversible, "chain.reversible differs from the input")
    spectral = report["spectral"]
    _close(spectral["lambda2"], ref.lambda2, LAMBDA_REL, "spectral.lambda2")
    _require(spectral["kind"] == ("reversible-normalized" if ref.reversible else "chung-directed"), "wrong certificate kind")
    _close(spectral["guarantee_rhs"], _guarantee(ref, p), LAMBDA_REL, "guarantee_rhs")
    _require(spectral["guarantee_holds"] is True, "guarantee_holds is not true")
    (cut,) = report["cuts"]
    _require(cut["method"] == "sweep" and cut["p"] == p, "sweep report holds the wrong cut")
    _check_cut(cut, ref)
    _require(report["bounds"] == [], "sweep report has bounds")


def check_generated_circulant(path: str, n: int) -> None:
    directed, n_read, u, v, w = read_edges(path)
    _require(not directed and n_read == n, f"generated file is not an undirected graph on {n} vertices")
    _require(u.size == n * (n - 1) // 2, f"expected {n * (n - 1) // 2} edges, got {u.size}")
    _require(bool(np.all(u < v)), "edges must be written with u < v")
    _require(np.unique(u * n + v).size == u.size, "repeated edges")
    d = np.minimum(v - u, n - (v - u)).astype(float)
    _require(bool(np.array_equal(w, 1.0 / d**3)), "a weight is not the double nearest 1/min(d, n-d)^3")


def check_scan(csv_text: str, stdout: str, n_list: list[int]) -> None:
    lines = csv_text.splitlines()
    _require(lines[0] == "n,lambda2,phi_half_arc,rho,lambda2_scaled,phi_scaled", "bad scan header")
    rows = [line.split(",") for line in lines[1:]]
    _require([int(r[0]) for r in rows] == sorted(n_list), "scan rows do not cover the n list in order")
    printed = stdout.splitlines()
    _require(len(printed) == len(rows), "scan printed a different number of rows")
    for r, line in zip(rows, printed):
        n = int(r[0])
        lam, phi, rho, lam_scaled, phi_scaled = (float(x) for x in r[1:])
        want_lam = circulant_lambda2(n)
        _require(abs(lam - want_lam) <= SCAN_LAMBDA_ABS, f"n={n}: lambda2 {lam!r} vs analytic {want_lam!r}")
        _close(phi, circulant_arc_min_phi_half(n), SCAN_PHI_REL, f"n={n} phi_half_arc")
        _close(rho, phi / math.sqrt(lam), REL, f"n={n} rho")
        _close(lam_scaled, lam * n * n / math.log(n), REL, f"n={n} lambda2_scaled")
        _close(phi_scaled, phi * n / math.log(n), REL, f"n={n} phi_scaled")
        fields = dict(tok.split("=", 1) for tok in line.split())
        _require(int(fields["n"]) == n, f"printed row {line!r} is not n={n}")
        for key, value in (("lambda2", lam), ("phi_half_arc", phi), ("rho", rho)):
            _close(float(fields[key]), value, 1e-5, f"printed n={n} {key}")
