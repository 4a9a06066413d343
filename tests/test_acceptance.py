"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import math
import sys
import time

import numpy as np

from isoperim import (
    ChainAnalysis,
    PartitionBlocks,
    arc_phi_half,
    block_log_sum,
    block_merge_residual,
    bound_suite,
    chain_from_graph,
    check_block_lower_bound,
    circulant_lambda2,
    cycle_graph,
    exact_minima,
    gen_ht_counterexample,
    geometric_chain_sum,
    hypercube_graph,
    lazy_transform,
    phi_p_of_set,
    power_increment_supremum,
    scaling_scan,
)
from conftest import directed_suite, reversible_suite
from oracles import eigh_certificate, power_increment_search

# frozen calibration for criterion 3: scaled columns computed by this
# implementation at n = 64 and n = 1024, widened by +-20%
LAM_SCALED_BAND = (11.66691851470192, 18.37825192645491)
PHI_SCALED_BAND = (1.482286804528405, 2.2467952139063003)

_CACHE: dict = {}


def _line(k: int, ok: bool, detail: str) -> None:
    text = f"ACCEPTANCE {k} {'PASS' if ok else 'FAIL'} - {detail}"
    print(text)
    # also bypass pytest's capture so every line shows up in plain `pytest -v`
    print(text, file=sys.__stdout__)


def _suite_data():
    """Shared computation for criteria 1, 2, 5: certificates, exact minima
    for the p grid, and sweep cuts, over the 200-chain reversible suite."""
    if "reversible" in _CACHE:
        return _CACHE["reversible"]
    t0 = time.perf_counter()
    rows = []
    exact_ps, sweep_ps = (0.5, 0.6, 0.75, 0.9, 1.0), (0.6, 0.75, 1.0)
    for chain in reversible_suite():
        a = ChainAnalysis(chain, exact_ps, sweep_ps)
        exact = {p: a.exact(p) for p in exact_ps}
        sweeps = {p: a.sweep(p) for p in sweep_ps}
        rows.append((chain, a.cert(False), exact, sweeps))
    elapsed = time.perf_counter() - t0
    _CACHE["reversible"] = (rows, elapsed)
    return _CACHE["reversible"]


def test_criterion_1_phi_p_squared_bound():
    rows, elapsed = _suite_data()
    worst = -math.inf
    for _, cert, exact, _ in rows:
        for p in (0.6, 0.75, 0.9, 1.0):
            gap = exact[p].phi ** 2 - 4.0 * cert.lambda2 / (2 * p - 1)
            worst = max(worst, gap)
    ok = worst <= 1e-9 and elapsed < 60.0
    _line(1, ok, f"200 chains x 4 exponents, worst gap {worst:.3e}, suite time {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_criterion_2_morris_peres_form():
    rows, _ = _suite_data()
    worst = -math.inf
    for _, cert, exact, _ in rows:
        phi = exact[0.5].phi
        lhs = phi**2 / (8.0 * math.log(2.0 / phi))
        worst = max(worst, lhs - cert.lambda2)
    ok = worst <= 1e-9
    _line(2, ok, f"lambda2 >= phi_half^2/(8 log(2/phi_half)) on the suite, worst gap {worst:.3e}")
    assert worst <= 1e-9


def test_criterion_3_counterexample_separation():
    t0 = time.perf_counter()
    rows = scaling_scan([64, 128, 256, 512, 1024])
    elapsed = time.perf_counter() - t0
    rhos = [r.rho for r in rows]
    increasing = all(b > a for a, b in zip(rhos, rhos[1:]))
    ratio = rhos[-1] / rhos[0]
    lam_ok = all(LAM_SCALED_BAND[0] <= r.lambda2_scaled <= LAM_SCALED_BAND[1] for r in rows)
    phi_ok = all(PHI_SCALED_BAND[0] <= r.phi_scaled <= PHI_SCALED_BAND[1] for r in rows)
    ok = increasing and ratio >= 1.5 and lam_ok and phi_ok and elapsed < 120.0
    _line(
        3,
        ok,
        f"rho increasing={increasing}, rho(1024)/rho(64)={ratio:.4f} (need >= 1.5), "
        f"scaled bands lam={lam_ok} phi={phi_ok}, time {elapsed:.1f}s",
    )
    assert increasing
    assert lam_ok and phi_ok
    assert elapsed < 120.0
    assert ratio >= 1.5  # rho grows like sqrt(log n); 1.2467 on this n range


def test_criterion_4_exactness_cross_checks():
    ok = True
    details = []
    for n in (8, 12, 16):
        chain = gen_ht_counterexample(n)
        exact = exact_minima(chain, [0.5])[0.5].phi
        arc_min = min(arc_phi_half(n, l) for l in range(1, n // 2 + 1))
        floor = 0.5 * math.log(n) / n
        ok &= exact <= arc_min + 1e-12
        ok &= exact >= floor and arc_min >= floor
        details.append(f"n={n}: exact={exact:.6f} arc={arc_min:.6f} floor={floor:.6f}")
    worst_eig = 0.0
    for n in (4, 8, 16, 32, 64, 128, 256):
        for chain in (gen_ht_counterexample(n), chain_from_graph(cycle_graph(n))):
            first_row = np.concatenate([[1.0], -chain.P[0, 1:]])
            analytic = circulant_lambda2(first_row)
            w = np.linalg.eigh(np.eye(n) - chain.P)[0]
            worst_eig = max(worst_eig, abs(analytic - float(w[1])))
    ok &= worst_eig <= 1e-8
    _line(4, ok, "; ".join(details) + f"; max |analytic-dense| = {worst_eig:.2e}")
    assert ok


def test_criterion_5_sweep_guarantee():
    rows, _ = _suite_data()
    ok = True
    worst_bound_gap = -math.inf
    worst_exact_gap = -math.inf
    for _, cert, exact, sweeps in rows:
        for p in (0.6, 0.75, 1.0):
            sw = sweeps[p]
            ok &= sw.pi_mass <= 0.5 + 1e-12
            bound_gap = sw.phi - 2.0 * math.sqrt(cert.lambda2 / (2 * p - 1))
            exact_gap = exact[p].phi - sw.phi
            worst_bound_gap = max(worst_bound_gap, bound_gap)
            worst_exact_gap = max(worst_exact_gap, exact_gap)
    ok = ok and worst_bound_gap <= 1e-8 and worst_exact_gap <= 1e-12
    _line(
        5,
        ok,
        f"sweep bound worst gap {worst_bound_gap:.3e}, exact-dominance worst gap {worst_exact_gap:.3e}",
    )
    assert ok


def test_criterion_6_directed_suite():
    worst = -math.inf
    for chain in directed_suite():
        a = ChainAnalysis(chain, [0.6, 1.0])
        lines = {r.name: r for r in bound_suite(a, None, [])}
        lower, upper = lines["chung:lower"], lines["chung:upper"]
        worst = max(worst, lower.lhs - lower.rhs, upper.lhs - upper.rhs)
        for p in (0.6, 1.0):
            worst = max(worst, a.exact(p).phi ** 2 - 4.0 * a.cert(True).lambda2 / (2 * p - 1))
    # both certificates of a reversible chain against eigh of their own matrix
    agree = 0.0
    for chain in reversible_suite(count=20):
        a = ChainAnalysis(chain)
        for directed in (False, True):
            w, _ = eigh_certificate(chain.P, chain.pi, directed)
            agree = max(agree, abs(a.cert(directed).lambda2 - w[1]))
    ok = worst <= 1e-9 and agree <= 1e-8
    _line(6, ok, f"100 directed chains, worst inequality gap {worst:.3e}; reversible agreement with eigh {agree:.2e}")
    assert worst <= 1e-9
    assert agree <= 1e-8


def test_criterion_7_lazy_scaling_identities():
    rng = np.random.default_rng(77)
    worst_set = 0.0
    worst_lam = 0.0
    worst_rho = 0.0
    for chain in reversible_suite(count=20):
        a = ChainAnalysis(chain)
        cert = a.cert(False)
        rho = a.exact(0.5).phi / math.sqrt(cert.lambda2)
        n = chain.n
        masks = range(1, 1 << n) if n <= 9 else rng.integers(1, 1 << n, size=500)
        subsets = []
        for mask in masks:
            subset = [v for v in range(n) if (int(mask) >> v) & 1]
            if chain.pi[subset].sum() <= 0.5 + 1e-12:
                subsets.append(subset)
        base = {(tuple(s), p): phi_p_of_set(chain, s, p).phi for s in subsets for p in (0.0, 0.5, 1.0)}
        for delta in (0.1, 0.5, 0.9):
            lazy = lazy_transform(chain, delta)
            b = ChainAnalysis(lazy)
            lam_gap = abs(b.cert(False).lambda2 - delta * cert.lambda2)
            worst_lam = max(worst_lam, lam_gap)
            rho_lazy = b.exact(0.5).phi / math.sqrt(b.cert(False).lambda2)
            worst_rho = max(worst_rho, abs(rho_lazy - rho))
            for s in subsets:
                for p in (0.0, 0.5, 1.0):
                    gap = abs(phi_p_of_set(lazy, s, p).phi - delta**p * base[(tuple(s), p)])
                    worst_set = max(worst_set, gap)
    ok = worst_set <= 1e-12 and worst_lam <= 1e-9 and worst_rho <= 1e-9
    _line(
        7,
        ok,
        f"per-set worst {worst_set:.2e} (tol 1e-12), lambda2 worst {worst_lam:.2e} (1e-9), "
        f"rho worst {worst_rho:.2e} (1e-9)",
    )
    assert ok


def test_criterion_8_proof_gadgets():
    ok = True
    details = []
    for p in (0.51, 0.6, 0.75, 1.0):
        sup = power_increment_supremum(p)
        bound = 1.0 / (2 * p - 1)
        ok &= sup <= bound + 1e-9
        # no sequence the search finds passes the closed form, beyond rounding
        est = power_increment_search(p, trials=100_000, seed=2024)
        ok &= est <= sup * (1.0 + 1e-12)
        details.append(f"p={p}: search {est:.4f} <= {sup:.4f} <= {bound:.2f}")
    for b0 in (0.01, 0.25, 0.9):
        ladder = [geometric_chain_sum(b0, m) for m in (0, 1, 10, 100, 10**4, 10**6)]
        ok &= all(b >= a - 1e-15 for a, b in zip(ladder, ladder[1:]))
        ok &= abs(ladder[-1] - 0.5 * math.log(1 / b0)) <= 1e-4
    _line(8, ok, "; ".join(details) + "; ratio chains monotone and at the log limit")
    assert ok


def test_criterion_9_block_machinery():
    rng = np.random.default_rng(99)
    worst_concavity = -math.inf
    worst_merge = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 5))
        sizes = [int(rng.integers(1, 9)) for _ in range(2 * k)]
        s = sizes[0] + sizes[2]
        g = []
        for x in range(s + 1):
            cfg = list(sizes)
            cfg[0], cfg[2] = x, s - x
            g.append(block_log_sum(PartitionBlocks(tuple(cfg))))
        for x in range(1, s):
            worst_concavity = max(worst_concavity, g[x - 1] - 2 * g[x] + g[x + 1])
        cfg = list(sizes)
        cfg[int(rng.integers(0, 2 * k))] = 0
        worst_merge = max(worst_merge, block_merge_residual(PartitionBlocks(tuple(cfg))))
    worst_logsum = -math.inf
    for n in (8, 16, 32):
        chain = gen_ht_counterexample(n)
        for _ in range(500):
            flags = rng.random(n) < 0.5
            flags[0], flags[-1] = True, False
            pb = PartitionBlocks.from_membership(flags.tolist())
            rep = check_block_lower_bound(chain, pb)
            worst_logsum = max(worst_logsum, rep.lhs - rep.rhs)
    ok = worst_concavity <= 1e-9 and worst_merge <= 1e-12 and worst_logsum <= 1e-9
    _line(
        9,
        ok,
        f"concavity worst 2nd diff {worst_concavity:.2e} (tol 1e-9), merge worst {worst_merge:.2e} "
        f"(1e-12), log-sum worst violation {worst_logsum:.2e} (1e-9)",
    )
    assert ok


def test_criterion_10_hypercube():
    ok = True
    details = []
    for d in (2, 3, 4):
        chain = chain_from_graph(hypercube_graph(d))
        n = 1 << d
        exact = exact_minima(chain, [1.0, 0.5])
        phi1, phi_half = exact[1.0].phi, exact[0.5].phi
        dictator = [x for x in range(n) if not (x >> (d - 1)) & 1]
        witness = phi_p_of_set(chain, dictator, 0.5).phi
        ok &= abs(phi1 - 1.0 / d) <= 1e-12
        ok &= phi_half <= 1.0 / math.sqrt(d) + 1e-12
        ok &= abs(witness - 1.0 / math.sqrt(d)) <= 1e-12
        details.append(f"d={d}: phi1={phi1:.6f} phi_half={phi_half:.6f}")

        # monotonicity phi_0 >= phi_{1/2} >= phi_1 across every admissible set,
        # recomputed via a matmul (independent of the library's bit-table DP)
        masks = np.arange(1, 1 << n, dtype=np.int64)
        member = ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
        mass = member.sum(axis=1) / n
        keep = mass <= 0.5 + 1e-12
        member = member[keep]
        mass = mass[keep]
        cross = (1.0 - member) @ chain.P.T  # cross[m, v] = P(v, outside of m)
        pi_col = chain.pi[None, :]
        phi = {}
        for p in (0.0, 0.5, 1.0):
            if p == 0.0:
                num = ((cross > 1e-15) * pi_col * member).sum(axis=1)
            else:
                num = (cross**p * pi_col * member).sum(axis=1)
            phi[p] = num / mass
        ok &= bool(np.all(phi[0.0] >= phi[0.5] - 1e-12))
        ok &= bool(np.all(phi[0.5] >= phi[1.0] - 1e-12))
    _line(10, ok, "; ".join(details) + "; profile monotone on all enumerated sets")
    assert ok
