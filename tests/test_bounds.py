import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isoperim.bounds
import isoperim.cuts
import isoperim.spectral
from isoperim import (
    ChainAnalysis,
    MarkovChain,
    bound_suite,
    chain_from_graph,
    cycle_graph,
    dumbbell_graph,
    gen_ht_counterexample,
    geometric_chain_sum,
    hypercube_graph,
    is_reversible,
    lazy_transform,
    power_increment_supremum,
    random_directed_graph,
    random_reversible_graph,
)
from isoperim.errors import InputError, TooLarge

# the refusal names the certificate that does not need detailed balance
_IRREVERSIBLE = "chain fails detailed balance; use ChainAnalysis.cert(True) instead"
from oracles import (
    birth_death_matrix,
    birth_death_pi,
    conjecture_ratio,
    eigh_certificate,
    light_cycle_matrix,
    power_increment_search,
)


def _lines(a, reversible_ps=None, directed_ps=None):
    """bound_suite's reports by name."""
    return {r.name: r for r in bound_suite(a, reversible_ps, directed_ps)}


def test_main_bound_two_state(two_state):
    rep = _lines(ChainAnalysis(two_state), [1.0])["phi_p_squared[p=1]"]
    assert rep.holds
    assert abs(rep.lhs - 1.0) < 1e-12
    assert abs(rep.rhs - 8.0) < 1e-12


def test_main_bound_cycle4(cycle4):
    rep = _lines(ChainAnalysis(cycle4), [0.75])["phi_p_squared[p=0.75]"]
    assert rep.holds
    assert abs(rep.rhs - 8.0) < 1e-9  # 8 * lambda2 with lambda2 = 1


def test_bound_suite_drops_exponents_outside_the_main_bound(cycle4):
    # phi_p^2 <= 4 lambda_2 / (2p - 1) needs p in (1/2, 1]; other exponents get no line
    a = ChainAnalysis(cycle4)
    names = [r.name for r in bound_suite(a, [0.0, 0.3, 0.5, 0.75, 1.2], [0.5, 0.6, 1.5, -0.2])]
    assert [n for n in names if n.startswith("phi_p_squared")] == ["phi_p_squared[p=0.75]", "phi_p_squared[p=0.6]:directed"]
    assert names == [r.name for r in bound_suite(ChainAnalysis(cycle4), [0.75], [0.6])]


def test_phi_p_names_read_back_as_their_exponents(cycle4):
    # the name keeps the shortest decimal that reads back as p, so close
    # exponents get distinct names; where :g reads back it is that form
    ps = [0.6, 0.75, 0.9, 1.0, 0.7000001, 0.7000002, 2 / 3, 0.1 + 0.7]
    suite = bound_suite(ChainAnalysis(cycle4), ps, ps)
    for tag in ("", ":directed"):
        names = [r.name for r in suite if r.name.startswith("phi_p_squared[") and r.name.endswith("]" + tag)]
        labels = [name.removeprefix("phi_p_squared[p=").removesuffix("]" + tag) for name in names]
        assert [float(label) for label in labels] == ps
        assert labels[:4] == ["0.6", "0.75", "0.9", "1"]
        assert len(set(names)) == len(ps)


def test_morris_peres_two_state(two_state):
    rep = _lines(ChainAnalysis(two_state), [])["morris_peres"]
    assert rep.holds
    assert abs(rep.lhs - 1.0 / (8.0 * math.log(2.0))) < 1e-12
    assert abs(rep.rhs - 2.0) < 1e-12


def test_morris_peres_lazy_scaling(two_state):
    for delta in (0.1, 0.5):
        lazy = lazy_transform(two_state, delta)
        rep = _lines(ChainAnalysis(lazy), [])["morris_peres"]
        assert rep.holds
        phi = math.sqrt(delta)
        assert abs(rep.lhs - phi**2 / (8 * math.log(2 / phi))) < 1e-12
        assert abs(rep.rhs - 2 * delta) < 1e-9


def test_cheeger_two_state_and_cycle(two_state, cycle4):
    lines = _lines(ChainAnalysis(two_state), [])
    easy, hard = lines["cheeger:lower"], lines["cheeger:upper"]
    assert easy.holds and hard.holds
    assert abs(easy.lhs - 1.0) < 1e-12 and abs(easy.rhs - 1.0) < 1e-12
    assert abs(hard.rhs - 2.0) < 1e-12
    lines = _lines(ChainAnalysis(cycle4), [])
    easy, hard = lines["cheeger:lower"], lines["cheeger:upper"]
    assert abs(easy.lhs - 0.5) < 1e-10 and abs(easy.rhs - 0.5) < 1e-15
    assert abs(hard.rhs - math.sqrt(2)) < 1e-10


def test_chung_directed_cycles(directed_3cycle, directed_4cycle):
    lines = _lines(ChainAnalysis(directed_3cycle), None, [])
    lower, upper = lines["chung:lower"], lines["chung:upper"]
    assert lower.holds and upper.holds
    assert abs(lower.lhs - 0.5) < 1e-12  # phi_1 = 1 via singletons
    assert abs(lower.rhs - 1.5) < 1e-10
    assert abs(upper.rhs - 2.0) < 1e-12
    lines = _lines(ChainAnalysis(directed_4cycle), None, [])
    lower, upper = lines["chung:lower"], lines["chung:upper"]
    assert lower.holds and upper.holds
    assert abs(upper.lhs - 1.0) < 1e-10


def test_chung_reduces_to_classical_for_reversible(cycle4):
    lines = _lines(ChainAnalysis(cycle4), None, [])
    lower, upper = lines["chung:lower"], lines["chung:upper"]
    w, _ = eigh_certificate(cycle4.P, cycle4.pi, False)  # I - S, solved on its own
    assert abs(lower.rhs - w[1]) < 1e-8
    assert lower.holds and upper.holds


def test_conjecture_ratio_two_state(two_state):
    rho = conjecture_ratio(ChainAnalysis(two_state))
    assert abs(rho - 1 / math.sqrt(2)) < 1e-12


def test_conjecture_ratio_lazy_invariant():
    for seed in range(5):
        c = chain_from_graph(random_reversible_graph(6, density=0.6, seed=400 + seed))
        rho = conjecture_ratio(ChainAnalysis(c))
        for delta in (0.1, 0.5, 0.9):
            assert abs(conjecture_ratio(ChainAnalysis(lazy_transform(c, delta))) - rho) < 1e-9


def test_reversible_suite_bounds_hold():
    names = ["cheeger:lower", "cheeger:upper", "morris_peres"] + [f"phi_p_squared[p={p}]" for p in ("0.6", "0.75", "0.9", "1")]
    for seed in range(40):
        n = 3 + seed % 10
        a = ChainAnalysis(chain_from_graph(random_reversible_graph(n, density=0.45, seed=7000 + seed)))
        suite = bound_suite(a, (0.6, 0.75, 0.9, 1.0))
        assert [r.name for r in suite] == names
        assert all(r.holds for r in suite)


def test_directed_suite_bounds_hold():
    names = ["chung:lower", "chung:upper", "morris_peres:directed", "phi_p_squared[p=0.6]:directed", "phi_p_squared[p=1]:directed"]
    for seed in range(25):
        n = 3 + seed % 8
        a = ChainAnalysis(chain_from_graph(random_directed_graph(n, density=0.45, seed=8000 + seed)))
        suite = bound_suite(a, None, (0.6, 1.0))
        assert [r.name for r in suite] == names
        assert all(r.holds for r in suite)


def test_replaced_report_derives_its_verdict(two_state):
    # slack and holds follow the sides, so a copy with a new lhs is judged anew
    rep = _lines(ChainAnalysis(two_state), [0.75])["phi_p_squared[p=0.75]"]
    assert rep.holds
    bad = dataclasses.replace(rep, lhs=rep.rhs + 1)
    assert bad.holds is False
    assert bad.slack == bad.rhs - (rep.rhs + 1) and bad.slack < -bad.tol


def test_report_fields(two_state):
    rep = _lines(ChainAnalysis(two_state), [0.75])["phi_p_squared[p=0.75]"]
    assert rep.slack == rep.rhs - rep.lhs
    assert rep.holds == (rep.slack >= -rep.tol)
    assert rep.cut.method == "exact"
    # the cited cut and certificate re-evaluate to the reported sides
    assert abs(rep.lhs - rep.cut.phi**2) < 1e-10
    assert abs(rep.rhs - 4 * rep.cert.lambda2 / (2 * 0.75 - 1)) < 1e-10


@pytest.mark.parametrize(
    "b0, m, message",
    [(0.0, 1, "b0 must lie in (0, 1], got 0.0"), (1.5, 1, "b0 must lie in (0, 1], got 1.5"), (0.5, -1, "m must be nonnegative")],
)
def test_geometric_chain_sum_refusals(b0, m, message):
    with pytest.raises(InputError) as exc:
        geometric_chain_sum(b0, m)
    assert type(exc.value) is InputError and str(exc.value) == message


# The oracle search sums in floating point, so it may pass the closed form by
# rounding: it reads 1.0000000000000002 at p = 1. Its sums have at most 401
# terms, so their rounding stays far below this relative slack.
_ROUNDING = 1e-12
# How close the search must come to the closed form, relative. The search's
# value at every tested p comes from its 400-step geometric family: random
# sequences of at most 50 points never beat it, and 0, 1000, 10,000 and
# 100,000 trials (seeds 0 and 2024) read the same. The mesh ends at r^400,
# which cannot both reach 0 and keep r near 1, so the gap peaks at p = 0.51
# (12.835 against 13.005, 1.3%); at p >= 0.6 it is at most 2.2e-4. 2% still
# tells p^2 / (2p - 1) from p / (2p - 1), which is 11% above it at p = 0.9.
_DISTANCE = 0.02


def test_gadget_p_one_telescopes():
    # at p = 1 each term is a_j - a_{j-1}, so every sum telescopes to a_N <= 1
    assert power_increment_supremum(1.0) == 1.0
    est = power_increment_search(1.0, trials=2000, seed=3)
    assert 1.0 - 1e-12 <= est <= 1.0 + _ROUNDING


def test_gadget_single_step():
    # one step (0, 1) gives exactly 1 <= p^2 / (2p - 1) = 1.125 at p = 0.75
    assert power_increment_supremum(0.75) == 1.125
    assert 1.0 <= power_increment_search(0.75, trials=500, seed=1) <= 1.125 * (1.0 + _ROUNDING)


def test_gadget_bounds_across_p():
    for p in (0.51, 0.6, 0.75, 0.9, 1.0):
        sup = power_increment_supremum(p)
        assert sup == p * p / (2.0 * p - 1.0)
        assert sup <= 1.0 / (2 * p - 1) + 1e-9
        est = power_increment_search(p, trials=10_000, seed=0)
        assert est <= sup * (1.0 + _ROUNDING)
        assert est >= sup * (1.0 - _DISTANCE)


def test_gadget_rejects_small_p():
    # and p above 1, with the same message
    for p in (0.5, 1.01):
        with pytest.raises(InputError) as exc:
            power_increment_supremum(p)
        assert type(exc.value) is InputError and str(exc.value) == f"gadget requires p in (1/2, 1], got {p}"


@pytest.mark.parametrize(
    "call, size, what",
    [
        pytest.param(lambda v: geometric_chain_sum(0.5, v), 2, "m", id="m"),
    ],
)
def test_gadget_counts_are_taken_as_integers(call, size, what):
    # an integral float gives what the int gives; anything else is refused,
    # never left to a TypeError from numpy or read as a fractional chain length
    assert call(float(size)) == call(size)
    for bad in (size + 0.5, str(size), None):
        with pytest.raises(InputError) as exc:
            call(bad)
        assert type(exc.value) is InputError and str(exc.value) == f"{what} {bad} is not an integer"


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    p=st.sampled_from([0.51, 0.6, 0.75, 0.9, 1.0]),
    seq=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
)
def test_gadget_bound_on_arbitrary_monotone_sequences(p, seq):
    a = [0.0] + sorted(seq)
    total = 0.0
    for prev, cur in zip(a, a[1:]):
        if cur > prev:
            total += (cur**p - prev**p) ** 2 / (cur - prev)
    assert total <= power_increment_supremum(p) + 1e-9


def test_ratio_chain_values():
    assert geometric_chain_sum(1.0, 5) == 0.0
    b0 = 0.37
    assert abs(geometric_chain_sum(b0, 0) - (1 - b0) / (1 + b0)) < 1e-15
    assert abs(geometric_chain_sum(0.25, 10**6) - 0.5 * math.log(4)) < 1e-4


def test_ratio_chain_monotone_in_m():
    for b0 in (0.01, 0.25, 0.9):
        prev = -1.0
        for m in (0, 1, 2, 5, 10, 100, 10**4, 10**6):
            val = geometric_chain_sum(b0, m)
            assert val >= prev - 1e-15
            assert val <= 0.5 * math.log(1 / b0) + 1e-12
            prev = val


def _standalone_suite(c, reversible_ps, directed_ps):
    # each side reads a store of its own
    return bound_suite(ChainAnalysis(c), reversible_ps) + bound_suite(ChainAnalysis(c), None, directed_ps)


@pytest.mark.parametrize("cap", [24, 6])
def test_bound_suite_matches_standalone_checks(monkeypatch, cap):
    # cap 24 puts the n=8 chains within the exact cap, cap 6 above it
    monkeypatch.setattr(isoperim.cuts, "EXACT_MAX_N", cap)
    ps = [0.3, 0.5, 0.75, 1.0]
    for c in (chain_from_graph(random_reversible_graph(8, density=0.5, seed=11)), chain_from_graph(random_directed_graph(8, density=0.5, seed=12))):
        reversible = is_reversible(c)
        a = ChainAnalysis(c)
        suite = bound_suite(a, ps if reversible else None, ps)
        expected = _standalone_suite(c, ps if reversible else None, ps)
        assert [r.name for r in suite] == [r.name for r in expected]
        for got, want in zip(suite, expected):
            for field in ("name", "lhs", "rhs", "slack", "holds", "tol", "cut"):
                assert getattr(got, field) == getattr(want, field), (got.name, field)
            # certificates compare by identity, so compare what they hold
            assert (got.cert.lambda2, got.cert.kind) == (want.cert.lambda2, want.cert.kind), got.name
        methods = {r.cut.method for r in suite}
        assert methods == ({"exact"} if cap == 24 else {"sweep"})


# each line's two sides as a function of the phi and lambda_2 it cites
_SIDES = {
    "cheeger:lower": lambda phi, lam, p: (lam / 2.0, phi),
    "cheeger:upper": lambda phi, lam, p: (phi, math.sqrt(2.0 * lam)),
    "chung:lower": lambda phi, lam, p: (phi**2 / 2.0, lam),
    "chung:upper": lambda phi, lam, p: (lam, 2.0 * phi),
    "morris_peres": lambda phi, lam, p: (phi**2 / (8.0 * math.log(2.0 / phi)), lam),
    "phi_p_squared": lambda phi, lam, p: (phi**2, 4.0 * lam / (2.0 * p - 1.0)),
}


@pytest.mark.parametrize("cap", [24, 6])
def test_every_report_rederives_from_its_cut_and_certificate(monkeypatch, cap):
    # cap 24 puts the n=8 chains within the exact cap, cap 6 above it
    monkeypatch.setattr(isoperim.cuts, "EXACT_MAX_N", cap)
    ps = [0.6, 0.75, 1.0]
    for c in (chain_from_graph(random_reversible_graph(8, density=0.5, seed=11)), chain_from_graph(random_directed_graph(8, density=0.5, seed=12))):
        a = ChainAnalysis(c)
        suite = bound_suite(a, ps if a.reversible else None, ps)
        assert suite
        for r in suite:
            directed = r.name.startswith("chung") or r.name.endswith(":directed")
            assert r.cert is a.cert(directed), r.name
            assert r.cut.method == ("exact" if cap == 24 else "sweep"), r.name
            assert r.cut == a.phi(r.cut.p), r.name
            lhs, rhs = _SIDES[r.name.split("[")[0].removesuffix(":directed")](r.cut.phi, r.cert.lambda2, r.cut.p)
            assert (r.lhs, r.rhs) == (lhs, rhs), r.name


@pytest.mark.parametrize("cap", [24, 4])
def test_expect_joins_the_pass_phi_reads(monkeypatch, cap):
    # within the cap expected exponents join one exact pass, above it one
    # sweep pass, which puts the read exponent first
    monkeypatch.setattr(isoperim.cuts, "EXACT_MAX_N", cap)
    passes = []
    for name in ("exact_minima", "sweep_cuts"):
        real = getattr(isoperim.bounds, name)

        def counted(c, ps, *rest, _real=real, _name=name):
            passes.append((_name, list(ps)))
            return _real(c, ps, *rest)

        monkeypatch.setattr(isoperim.bounds, name, counted)
    a = ChainAnalysis(chain_from_graph(random_reversible_graph(7, density=0.5, seed=3)))
    a.expect([0.75, 1.0])
    a.expect([0.5, 0.75])
    for p in (1.0, 0.5, 0.75):
        assert a.phi(p).method == ("exact" if cap == 24 else "sweep")
    want = ("exact_minima", [0.75, 1.0, 0.5]) if cap == 24 else ("sweep_cuts", [1.0, 0.75, 0.5])
    assert passes == [want]


def test_own_is_the_certificate_of_the_chains_kind():
    chains = [
        chain_from_graph(random_reversible_graph(6, density=0.5, seed=1)),
        chain_from_graph(random_directed_graph(6, density=0.5, seed=2)),
        MarkovChain(light_cycle_matrix()),
    ]
    for c, reversible in zip(chains, (True, False, False)):
        a = ChainAnalysis(c)
        assert a.reversible is reversible
        assert a.own is a.cert(not reversible)
        assert a.own.kind == ("reversible-normalized" if reversible else "chung-directed")


def test_chain_analysis_derives_each_quantity_once(monkeypatch):
    for directed in (False, True):
        with monkeypatch.context() as m:
            _check_derives_each_quantity_once(m, directed)


def _check_derives_each_quantity_once(monkeypatch, directed):
    calls = {"exact_minima": [], "eigvalsh": 0, "eigh": 0, "is_reversible": 0}
    linalg = isoperim.spectral.np.linalg
    for module, name in ((isoperim.bounds, "is_reversible"), (linalg, "eigvalsh"), (linalg, "eigh")):
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    real_exact = isoperim.bounds.exact_minima

    def counted_exact(c, ps):
        calls["exact_minima"].append(list(ps))
        return real_exact(c, ps)

    monkeypatch.setattr(isoperim.bounds, "exact_minima", counted_exact)
    c = chain_from_graph((random_directed_graph if directed else random_reversible_graph)(7, density=0.5, seed=3))
    a = ChainAnalysis(c, [0.3])
    assert a.reversible is not directed
    bound_suite(a, None if directed else [0.6, 0.75], [0.6])
    # one eigenvalue solve serves both certificates of a reversible chain,
    # and no full eigendecomposition is made
    assert calls["eigvalsh"] == 1 and calls["eigh"] == 0
    # the reversible certificate reuses the analysis's detailed-balance verdict
    assert calls["is_reversible"] == 1
    assert calls["exact_minima"] == [[0.3, 1.0, 0.5, 0.6] + ([] if directed else [0.75])]
    # reads of expected exponents and repeated sweeps are served from the store
    assert a.exact(0.3) is a.exact(0.3)
    assert a.sweep(0.6) is a.sweep(0.6)
    assert a.cert(True) is a.cert(True)
    assert calls["eigvalsh"] == 1 and len(calls["exact_minima"]) == 1
    # an exponent nobody expected costs exactly one more pass
    a.exact(0.0)
    assert calls["exact_minima"][1:] == [[0.0]]


@pytest.mark.parametrize("directed_first", [False, True])
def test_chain_analysis_keeps_the_reversible_refusal(directed_first):
    # the 0.01 cycle's flows are below 1e-10 of the largest flow, but each is
    # paired with a zero, so the pairwise detailed-balance test refuses the
    # chain in either read order, and Chung's certificate still succeeds
    c = MarkovChain(light_cycle_matrix())
    assert not is_reversible(c) and c.pi.min() < 1e-11
    a = ChainAnalysis(c)
    if directed_first:
        a.cert(True)
    for _ in range(2):
        with pytest.raises(InputError) as got:
            a.cert(False)
        assert str(got.value) == _IRREVERSIBLE
    _assert_matches_the_oracle(a.cert(True), *eigh_certificate(c.P, c.pi, True))


@pytest.mark.parametrize("n, up", [(8, 1e-6), (16, 5e-5), (24, 5e-9)])
def test_birth_death_certificates_agree_with_the_closed_form_pi(n, up):
    # pi right to every entry makes I - S symmetric, so both certificates
    # succeed; each matches eigh of Chung's L built on the closed-form pi
    P = birth_death_matrix(n, up, 0.5)
    a = ChainAnalysis(MarkovChain(P))
    want = eigh_certificate(P, birth_death_pi(n, up, 0.5), True)[0][1]
    for directed in (False, True):
        assert abs(a.cert(directed).lambda2 / want - 1) <= 1e-12
    if n == 8:
        assert abs(want - 0.498694) < 1e-6


def _oracle_chains():
    chains = [chain_from_graph(random_reversible_graph(n, density=0.5, seed=n)) for n in (5, 9, 17, 28, 40)]
    chains += [chain_from_graph(g) for g in (cycle_graph(12), hypercube_graph(4), dumbbell_graph(6))]
    chains.append(gen_ht_counterexample(64))
    chains.append(lazy_transform(chain_from_graph(random_reversible_graph(10, density=0.4, seed=2)), 0.3))
    chains += [chain_from_graph(random_directed_graph(n, density=0.5, seed=n)) for n in (5, 12, 30)]
    return chains


def test_chain_analysis_certificates_match_the_eigh_oracle():
    # I - S and Chung's L built entry by entry from P and pi, each solved by
    # its own eigh; v2 is compared up to sign where lambda2 is simple. A
    # reversible chain's certificates are read in both orders
    for c in _oracle_chains() + [MarkovChain(light_cycle_matrix())]:
        kinds = (False, True) if is_reversible(c) else (True,)
        oracle = {directed: eigh_certificate(c.P, c.pi, directed) for directed in kinds}
        for order in (kinds, kinds[::-1]):
            a = ChainAnalysis(c)
            for directed in order:
                _assert_matches_the_oracle(a.cert(directed), *oracle[directed])


def _assert_matches_the_oracle(got, w, v2):
    assert abs(got.lambda2 / w[1] - 1) <= 1e-12
    gap = min(w[1] - w[0], w[2] - w[1])
    if gap > 1e-6:
        assert min(np.linalg.norm(got.v2 - v2), np.linalg.norm(got.v2 + v2)) <= 1e-10 / gap


def test_chain_analysis_reversible_cert_refuses_a_directed_chain():
    c = chain_from_graph(random_directed_graph(6, density=0.5, seed=2))
    a = ChainAnalysis(c)
    assert not a.reversible
    with pytest.raises(InputError) as got:
        a.cert(False)
    assert str(got.value) == _IRREVERSIBLE


def test_chain_analysis_rejects_expected_exact_above_cap(monkeypatch):
    monkeypatch.setattr(isoperim.cuts, "EXACT_MAX_N", 4)
    c = chain_from_graph(random_reversible_graph(6, density=0.5, seed=1))
    with pytest.raises(TooLarge):
        ChainAnalysis(c, [0.5])
    a = ChainAnalysis(c)
    assert not a.exact_ok
    assert a.phi(1.0).method == "sweep"
