import concurrent.futures
import contextlib
import dataclasses
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoperim import (
    ChainAnalysis,
    MarkovChain,
    chain_from_graph,
    cycle_graph,
    dumbbell_graph,
    exact_minima,
    gen_ht_counterexample,
    hypercube_graph,
    lazy_transform,
    phi_p_of_set,
    phi_profile,
    random_directed_graph,
    random_reversible_graph,
    sqrt_crossweight,
    sweep_cuts,
)
from isoperim import cuts
from isoperim.errors import InputError, NumericalFailure, TooLarge
from isoperim.spectral import truncated_eigenvector
from oracles import birth_death_matrix, birth_death_pi, blocked_exact_minima, exact_stationary, naive_phi_exact, naive_phi_p, naive_sweep


def test_two_state_singleton(two_state):
    for p in (0.0, 0.3, 0.5, 1.0):
        cut = phi_p_of_set(two_state, [0], p)
        assert cut.phi == 1.0
        assert cut.pi_mass == 0.5


def test_cycle4_adjacent_pair(cycle4):
    assert abs(phi_p_of_set(cycle4, [0, 1], 1.0).phi - 0.5) < 1e-15
    assert abs(phi_p_of_set(cycle4, [0, 1], 0.5).phi - 1 / math.sqrt(2)) < 1e-15
    assert phi_p_of_set(cycle4, [0, 1], 0.0).phi == 1.0


def test_an_exponent_of_minus_zero_is_zero(cycle4):
    # -0.0 == 0.0, but a cut that kept the sign would be reported as p = -0
    a = ChainAnalysis(cycle4, [-0.0], [-0.0])
    cuts = [phi_p_of_set(cycle4, [0, 1], -0.0), exact_minima(cycle4, [-0.0])[0.0], a.exact(-0.0), a.sweep(-0.0)]
    assert not any(np.signbit(cut.p) for cut in cuts)


def test_phi_p_of_set_errors(cycle4):
    with pytest.raises(InputError, match="nonempty"):
        phi_p_of_set(cycle4, [], 1.0)
    with pytest.raises(InputError, match="exceeds 1/2"):
        phi_p_of_set(cycle4, [0, 1, 2], 1.0)
    with pytest.raises(ValueError):
        phi_p_of_set(cycle4, [0], 1.5)
    # an exponent float() refuses is refused with float's own message
    refusals = [
        ("x", "could not convert string to float: 'x'"),
        (None, "float() argument must be a string or a real number, not 'NoneType'"),
    ]
    for bad, message in refusals:
        with pytest.raises(InputError) as exc:
            phi_p_of_set(cycle4, [0], bad)
        assert type(exc.value) is InputError and str(exc.value) == message
    # ids that int() refuses are refused as ids, by every caller of vertex_ids
    callers = [
        lambda ids: phi_p_of_set(cycle4, ids, 0.5),
        lambda ids: phi_profile(cycle4, ids),
        lambda ids: sqrt_crossweight(cycle4, [0], ids),
    ]
    for bad in (float("inf"), float("nan"), "a", None):
        for call in callers:
            with pytest.raises(InputError) as exc:
                call([bad])
            assert type(exc.value) is InputError and str(exc.value) == f"vertex id {bad} is not an integer"


@pytest.mark.parametrize("subset", [[4], [0, -1]], ids=["above", "negative"])
def test_phi_p_of_set_refuses_an_out_of_range_vertex(cycle4, subset):
    with pytest.raises(InputError) as exc:
        phi_p_of_set(cycle4, subset, 1.0)
    assert type(exc.value) is InputError and str(exc.value) == "subset contains out-of-range vertices for n=4"


def test_phi_p_of_set_rejects_non_integral_vertices():
    # {0.7, 1.9} is not truncated to {0, 1}; an integral float is a vertex
    c = chain_from_graph(cycle_graph(6))
    with pytest.raises(InputError, match="vertex id 0.7 is not an integer"):
        phi_p_of_set(c, [0.7, 1.9], 1.0)
    with pytest.raises(InputError, match="vertex id 1.9 is not an integer"):
        phi_profile(c, [0, 1.9])
    assert phi_p_of_set(c, [0.0, 1.0], 1.0) == phi_p_of_set(c, [0, 1], 1.0)


def test_exact_two_state(two_state):
    for p in (0.0, 0.5, 1.0):
        cut = exact_minima(two_state, [p])[p]
        assert cut.phi == 1.0
        assert cut.subset == (0,)


def test_exact_cycle4(cycle4):
    cut = exact_minima(cycle4, [1.0])[1.0]
    assert abs(cut.phi - 0.5) < 1e-15
    assert cut.subset == (0, 1)  # smallest bitmask among the adjacent pairs
    assert cut.method == "exact"


def test_exact_hypercube_half(cycle4):
    q3 = chain_from_graph(hypercube_graph(3))
    cut = exact_minima(q3, [0.5])[0.5]
    assert cut.phi <= 1 / math.sqrt(3) + 1e-12


def test_exact_matches_bruteforce_oracle():
    for seed in range(8):
        n = 4 + seed % 4
        c = chain_from_graph(random_reversible_graph(n, density=0.5, seed=40 + seed))
        for p in (0.0, 0.4, 0.5, 0.75, 1.0):
            mine = exact_minima(c, [p])[p]
            expected, _ = naive_phi_exact(c.P, c.pi, p)
            assert abs(mine.phi - expected) < 1e-12
            assert abs(naive_phi_p(c.P, c.pi, mine.subset, p) - mine.phi) < 1e-12
    for seed in range(4):
        c = chain_from_graph(random_directed_graph(5 + seed, density=0.5, seed=70 + seed))
        for p in (0.0, 0.5, 1.0):
            mine = exact_minima(c, [p])[p]
            expected, _ = naive_phi_exact(c.P, c.pi, p)
            assert abs(mine.phi - expected) < 1e-12


def _sweep_levels(c, cert):
    """Every level set of the truncated eigenvector, as a sorted vertex list."""
    fsq = truncated_eigenvector(cert, c) ** 2
    return [np.flatnonzero(fsq > t).tolist() for t in sorted(set(fsq.tolist()), reverse=True)[1:]]


def _p0_chains():
    # two pairs {0, 1} and {2, 3} joined by 1 - 2, with 0 <-> 3 at 5e-16: below
    # STRUCTURAL_ZERO, so {0, 1} has boundary {1} alone and phi_0 = 1/2 (the
    # entry counted would make every admissible set's phi_0 equal 1)
    tiny = 5e-16
    P = np.array([[0.5 - tiny, 0.5, 0.0, tiny], [0.5, 0.4, 0.1, 0.0], [0.0, 0.1, 0.4, 0.5], [tiny, 0.0, 0.5, 0.5 - tiny]])
    yield MarkovChain(P), False
    for seed in range(4):
        yield chain_from_graph(random_directed_graph(6 + seed, density=0.4, seed=90 + seed)), True


def test_phi_0_of_exact_and_sweep_match_the_combinations_oracle():
    # the oracle tests each entry against 1e-15 over combinations, not bitmasks
    for c, directed in _p0_chains():
        exact = exact_minima(c, [0.0])[0.0]
        expected, _ = naive_phi_exact(c.P, c.pi, 0.0)
        assert exact.phi == pytest.approx(expected, abs=1e-12)
        assert naive_phi_p(c.P, c.pi, exact.subset, 0.0) == pytest.approx(exact.phi, abs=1e-12)
        cert = ChainAnalysis(c).cert(directed)
        sweep = sweep_cuts(c, [0.0], cert)[0.0]
        levels = [naive_phi_p(c.P, c.pi, S, 0.0) for S in _sweep_levels(c, cert)]
        assert sweep.phi == pytest.approx(min(levels), abs=1e-12)
        assert naive_phi_p(c.P, c.pi, sweep.subset, 0.0) == pytest.approx(sweep.phi, abs=1e-12)
        if c.n == 4:
            assert exact.phi == pytest.approx(0.5, abs=1e-12) and sweep.phi == pytest.approx(0.5, abs=1e-12)


def test_exact_cap_enforced(monkeypatch):
    c = chain_from_graph(random_reversible_graph(8, density=0.5, seed=1))
    monkeypatch.setattr(cuts, "EXACT_MAX_N", 6)
    with pytest.raises(TooLarge, match="n = 8 exceeds the exact enumeration cap 6"):
        ChainAnalysis(c).exact(1.0)
    with pytest.raises(TooLarge, match="cap 6"):
        exact_minima(c, [0.5, 1.0])


def test_exact_cap_env_override(monkeypatch):
    # the cap is the constant cuts.EXACT_MAX_N, which no environment
    # variable changes; lowering it moves both of its readers
    c = chain_from_graph(random_reversible_graph(8, density=0.5, seed=1))
    monkeypatch.setenv("ISO_MAX_EXACT_N", "5")
    assert ChainAnalysis(c).exact_ok
    assert exact_minima(c, [1.0])[1.0].method == "exact"
    monkeypatch.setattr(cuts, "EXACT_MAX_N", 7)
    assert not ChainAnalysis(c).exact_ok
    with pytest.raises(TooLarge, match="n = 8 exceeds the exact enumeration cap 7"):
        exact_minima(c, [1.0])
    monkeypatch.setattr(cuts, "EXACT_MAX_N", 8)
    assert ChainAnalysis(c).exact_ok
    assert ChainAnalysis(c, [1.0]).exact(1.0) == exact_minima(c, [1.0])[1.0]


def test_exact_minima_multi_p_consistent():
    c = chain_from_graph(random_reversible_graph(7, density=0.6, seed=9))
    ps = [0.0, 0.5, 0.8, 1.0]
    multi = exact_minima(c, ps)
    for p in ps:
        assert multi[p].phi == exact_minima(c, [p])[p].phi


def test_profile_values(two_state, cycle4):
    assert phi_profile(two_state, [0]) == (1.0, 1.0, 1.0)
    prof = phi_profile(cycle4, [0, 1])
    assert prof.phi0 == 1.0
    assert abs(prof.phi_half - 1 / math.sqrt(2)) < 1e-15
    assert abs(prof.phi1 - 0.5) < 1e-15


def test_profile_q3_dictator():
    q3 = chain_from_graph(hypercube_graph(3))
    prof = phi_profile(q3, [0, 1, 2, 3])  # x with top bit 0
    assert prof.phi0 == 1.0
    assert abs(prof.phi_half - 1 / math.sqrt(3)) < 1e-14
    assert abs(prof.phi1 - 1 / 3) < 1e-14


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_profile_ordering_and_cauchy_schwarz(seed, data):
    n = data.draw(st.integers(3, 8))
    c = chain_from_graph(random_reversible_graph(n, density=0.6, seed=seed))
    size = data.draw(st.integers(1, max(1, n // 2)))
    subset = data.draw(st.sets(st.integers(0, n - 1), min_size=size, max_size=size))
    try:
        prof = phi_profile(c, subset)
    except InputError as exc:
        assert "exceeds 1/2" in str(exc)
        return
    assert prof.phi0 >= prof.phi_half - 1e-12
    assert prof.phi_half >= prof.phi1 - 1e-12
    assert prof.phi_half**2 <= prof.phi0 * prof.phi1 + 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0))
def test_phi_monotone_in_p(seed, p, q):
    p, q = min(p, q), max(p, q)
    c = chain_from_graph(random_reversible_graph(6, density=0.5, seed=seed))
    cut_p = exact_minima(c, [p])[p]
    cut_q = exact_minima(c, [q])[q]
    # per-set monotonicity on the minimizer of q, and minimum-level consequence
    assert phi_p_of_set(c, cut_q.subset, p).phi >= phi_p_of_set(c, cut_q.subset, q).phi - 1e-12
    assert cut_p.phi >= cut_q.phi - 1e-12


@st.composite
def _chains_and_sets(draw):
    """A chain and an admissible set. Cycle arcs of three or more states,
    radius-1 balls of hypercubes and a random chain's state with its
    out-neighbours hold states v with P(v, S-bar) = 0."""
    kind = draw(st.sampled_from(["reversible", "directed", "cycle", "hypercube"]))
    if kind == "cycle":
        n = draw(st.integers(6, 24))
        start, size = draw(st.integers(0, n - 1)), draw(st.integers(3, n // 2))
        return chain_from_graph(cycle_graph(n)), [(start + k) % n for k in range(size)]
    if kind == "hypercube":
        d = draw(st.integers(3, 6))
        centre = draw(st.integers(0, (1 << d) - 1))
        ball = {centre} | {centre ^ (1 << b) for b in range(d)}
        extra = draw(st.sets(st.integers(0, (1 << d) - 1), max_size=(1 << (d - 1)) - d - 1))
        return chain_from_graph(hypercube_graph(d)), sorted(ball | extra)
    n = draw(st.integers(3, 20))
    graph = random_reversible_graph if kind == "reversible" else random_directed_graph
    c = chain_from_graph(graph(n, density=draw(st.sampled_from([0.2, 0.5, 1.0])), seed=draw(st.integers(0, 10**6))))
    v = draw(st.integers(0, n - 1))
    subset = set(np.flatnonzero(c.P[v] > 0)) | {v} if draw(st.booleans()) else {v}
    subset |= draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
    if len(subset) == n or c.pi[sorted(subset)].sum() > 0.5:
        subset = set(range(n)) - subset or {v}
    return c, sorted(subset)


_NEAR_THE_ENDS = [math.nextafter(0.5, 1.0), 0.5 + 1e-9, 1.0 - 1e-9, math.nextafter(1.0, 0.0)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    chain_and_set=_chains_and_sets(),
    p=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True) | st.sampled_from(_NEAR_THE_ENDS),
)
def test_power_mean_bracket_holds_within_the_window(chain_and_set, p):
    # max(phi_1, phi_half^(2p)) <= phi_p <= phi_1^p per set, up to the
    # enumerator's rounding window
    c, subset = chain_and_set
    try:
        phi = {q: phi_p_of_set(c, subset, q).phi for q in (0.5, p, 1.0)}
    except InputError as exc:  # {v} alone can weigh more than 1/2
        assert "exceeds 1/2" in str(exc) and len(subset) == 1
        return
    window = 1.0 + cuts._bracket_rtol(c.n)
    assert max(phi[1.0], phi[0.5] ** (2 * p)) <= phi[p] * window
    assert phi[p] <= phi[1.0] ** p * window


def test_lazy_scaling_identity_per_set():
    c = chain_from_graph(random_reversible_graph(6, density=0.7, seed=5))
    for delta in (0.1, 0.5, 0.9):
        lazy = lazy_transform(c, delta)
        for mask in range(1, 1 << 6):
            subset = [v for v in range(6) if (mask >> v) & 1]
            if c.pi[subset].sum() > 0.5 + 1e-12:
                continue
            for p in (0.0, 0.5, 1.0):
                base = phi_p_of_set(c, subset, p).phi
                scaled = phi_p_of_set(lazy, subset, p).phi
                assert abs(scaled - delta**p * base) < 1e-12


def test_exact_minima_multiblock_path_n18():
    # n = 18 crosses the 16-bit block boundary of the enumerator; check all
    # three exponents against a single-shot matmul enumeration
    c = chain_from_graph(random_reversible_graph(18, density=0.25, seed=77))
    n = c.n
    masks = np.arange(1, 1 << n, dtype=np.int64)
    member = ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
    mass = member @ c.pi
    keep = mass <= 0.5 + 1e-12
    member, mass = member[keep], mass[keep]
    cross = (1.0 - member) @ c.P.T
    for p in (0.0, 0.5, 1.0):
        if p == 0.0:
            num = ((cross > 1e-15) * c.pi[None, :] * member).sum(axis=1)
        else:
            num = (cross**p * c.pi[None, :] * member).sum(axis=1)
        expected = float(np.min(num / mass))
        got = exact_minima(c, [p])[p]
        assert abs(got.phi - expected) < 1e-12
        assert c.pi[list(got.subset)].sum() <= 0.5 + 1e-12


EXACT_PS = [0.0, 0.3, 0.5, 0.6, 0.75, 0.9, 1.0]


@st.composite
def _exact_chains(draw):
    """Random reversible and directed chains on 2 to 18 states (17 and 18
    take several blocks of the enumerator) and the symmetric families, whose
    tied sets exercise the smallest-bitmask rule."""
    kind = draw(st.sampled_from(["reversible", "directed", "cycle", "hypercube", "dumbbell", "circulant"]))
    if kind == "cycle":
        return chain_from_graph(cycle_graph(draw(st.integers(3, 18))))
    if kind == "hypercube":
        return chain_from_graph(hypercube_graph(draw(st.integers(1, 4))))
    if kind == "dumbbell":
        return chain_from_graph(dumbbell_graph(draw(st.integers(3, 9))))
    if kind == "circulant":
        return gen_ht_counterexample(draw(st.integers(3, 18)))
    n = draw(st.integers(2, 16) | st.integers(17, 18))
    if n == 2:
        a, b = draw(st.floats(0.05, 1.0)), draw(st.floats(0.05, 1.0))
        return MarkovChain(np.array([[1.0 - a, a], [b, 1.0 - b]]))
    graph = random_reversible_graph if kind == "reversible" else random_directed_graph
    return chain_from_graph(graph(n, density=draw(st.sampled_from([0.2, 0.5, 1.0])), seed=draw(st.integers(0, 10**6))))


def _float_bits(results):
    return [[x.hex() for x in (cut.numerator, cut.pi_mass, cut.phi)] for cut in results.values()]


def _assert_same_minima(c, ps):
    got, want = exact_minima(c, ps), blocked_exact_minima(c, ps)
    assert got == want and list(got) == list(want)
    assert _float_bits(got) == _float_bits(want)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(c=_exact_chains(), ps=st.lists(st.sampled_from(EXACT_PS), min_size=1, max_size=7))
def test_exact_minima_match_blocked_enumerator(c, ps):
    # the subset-sum enumerator finds the blocked one's minimizers, ties and
    # p = 0 included, with bit-identical values
    _assert_same_minima(c, ps)


def test_usable_cpus_without_an_affinity_call(monkeypatch):
    # where the platform has no sched_getaffinity: every CPU, or one when
    # their number is unknown
    monkeypatch.delattr(cuts.os, "sched_getaffinity", raising=False)
    assert cuts._usable_cpus() == (cuts.os.cpu_count() or 1)
    monkeypatch.setattr(cuts.os, "cpu_count", lambda: None)
    assert cuts._usable_cpus() == 1


_SPLITS = [(1, None), (1, 5), (2, 64), (3, 700)]  # (cpus, _SCORE_ROWS or the default)


def _split(monkeypatch, cpus, score_rows):
    monkeypatch.setattr(cuts, "_usable_cpus", lambda: cpus)
    if score_rows is not None:
        monkeypatch.setattr(cuts, "_SCORE_ROWS", score_rows)


@pytest.mark.parametrize("cpus, score_rows", _SPLITS, ids=[f"{cpus}-{rows}" for cpus, rows in _SPLITS])
def test_exact_minima_match_blocked_enumerator_where_pi_is_tiny(monkeypatch, cpus, score_rows):
    # pi falls to 5e-184 along a birth-death chain, where the enumerator
    # scores every set rather than trust the bracket's rounding window; the
    # per-set values of every slice are joined across slices and threads
    _split(monkeypatch, cpus, score_rows)
    n, up, down = 14, 4e-15, 0.5
    P = np.diag(np.full(n - 1, up), 1) + np.diag(np.full(n - 1, down), -1)
    P += np.diag(1.0 - P.sum(axis=1))
    pi = (up / down) ** np.arange(n)
    c = MarkovChain(P=P, pi=pi / pi.sum())
    assert c.pi.min() < 2.0**-400
    _assert_same_minima(c, [0.0, 0.5, 0.6, 0.9, 1.0])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(c=_exact_chains(), ps=st.lists(st.sampled_from(EXACT_PS[1:]), min_size=1, max_size=6))
def test_fast_phi_is_within_the_bound_of_the_term_by_term_phi(c, ps):
    # at every p > 0, each set's fast phi (one matrix-vector product) is
    # within a relative kappa = _score_rtol(n) / 4 of its term-by-term phi,
    # and so 0 only where that is 0; the window of 4 kappa rests on it
    kappa = cuts._score_rtol(c.n) / 4
    fast_phi, sets = cuts._fast_phi, []

    def checked(terms, pi, mass):
        fast = fast_phi(terms, pi, mass)
        ref = (terms * pi).sum(axis=1) / mass
        assert np.all(np.abs(fast - ref) <= kappa * ref)
        sets.append(mass.size)
        return fast

    with pytest.MonkeyPatch.context() as m:
        m.setattr(cuts, "_fast_phi", checked)
        _assert_same_minima(c, ps)
    assert sum(sets) > 0


def _fast_phi_off_by_the_bound(monkeypatch, c, seed):
    """Move each fast phi up or down by the whole bound kappa, at random."""
    kappa = cuts._score_rtol(c.n) / 4
    fast_phi, rng = cuts._fast_phi, np.random.default_rng(seed)

    def off(terms, pi, mass):
        return fast_phi(terms, pi, mass) * (1.0 + kappa * rng.choice([-1.0, 1.0], size=mass.size))

    monkeypatch.setattr(cuts, "_fast_phi", off)


_OFF_BY_THE_BOUND = pytest.mark.parametrize(
    "c",
    [chain_from_graph(g) for g in (cycle_graph(12), cycle_graph(17), hypercube_graph(4), dumbbell_graph(5), dumbbell_graph(9))],
    ids=["cycle12", "cycle17", "hypercube4", "dumbbell5", "dumbbell9"],
)


@_OFF_BY_THE_BOUND
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_minima_hold_when_every_fast_phi_is_off_by_the_bound(monkeypatch, c, seed):
    # each fast phi moved up or down by the whole bound kappa, at random: the
    # window still holds every block's first minimum among tied sets, so the
    # minima are bit-identical
    _fast_phi_off_by_the_bound(monkeypatch, c, seed)
    monkeypatch.setattr(cuts, "_usable_cpus", lambda: 1)  # one order of draws
    _assert_same_minima(c, EXACT_PS)


@_OFF_BY_THE_BOUND
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_minima_hold_when_every_fast_phi_is_off_by_the_bound_across_threads(monkeypatch, c, seed):
    # the same with every block split across three threads, so that a
    # block's fast minimum and its term-by-term first minimum can fall in
    # different slices; the threads draw the signs in any order
    _fast_phi_off_by_the_bound(monkeypatch, c, seed)
    with _split_every_block(c, 3):
        _assert_same_minima(c, EXACT_PS)


def _solved_and_oracle_chains():
    for n, up in ((8, 1e-6), (8, 5e-3), (12, 5e-5), (14, 5e-7), (14, 5e-9)):
        P = birth_death_matrix(n, up, 0.5)
        yield MarkovChain(P), MarkovChain(P=P, pi=birth_death_pi(n, up, 0.5))
    W = np.random.default_rng(9).integers(0, 4, (10, 10)) * 10 ** np.arange(10)[None, :]
    W[np.arange(10), (np.arange(10) + 1) % 10] += 1
    P = W / W.sum(axis=1, keepdims=True)
    pi = np.array([float(x) for x in exact_stationary(W.tolist())])
    yield MarkovChain(P), MarkovChain(P=P, pi=pi)


def test_exact_minima_of_the_solved_pi_match_the_oracle_pi():
    # the values, not the sets: on the 8-state chain with up-rate 1e-6 at
    # p = 1/2, {3, 4, 5, 6} and {5, 6, 7} are within one ulp of each other
    ps = [0.0, 0.5, 0.6, 1.0]
    for solved, oracle in _solved_and_oracle_chains():
        got, want = exact_minima(solved, ps), exact_minima(oracle, ps)
        for p in ps:
            assert abs(got[p].phi / want[p].phi - 1) <= 1e-12, (solved.n, p)


class _CountingPool(concurrent.futures.ThreadPoolExecutor):
    """Thread pool that counts how many pools the enumerator makes."""

    made = 0

    def __init__(self, *args, **kwargs):
        type(self).made += 1
        super().__init__(*args, **kwargs)


@contextlib.contextmanager
def _split_every_block(c, cpus):
    """Score ``c`` on ``cpus`` CPUs in slices small enough that the first
    block of admissible sets has at least ``cpus`` of them, counting the
    pools made; no thread may outlive a call. Of each of the 2^(low - 1) - 1
    pairs of a nonempty low-bit mask and its complement within the low bits,
    at least one is admissible."""
    rows = (1 << (min(c.n, cuts._BLOCK_BITS) - 1)) - 1
    threads = threading.active_count()
    _CountingPool.made = 0
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cuts, "_SCORE_ROWS", max(1, min(cuts._SCORE_ROWS, rows // cpus)))
        m.setattr(cuts, "_usable_cpus", lambda: cpus)
        m.setattr(concurrent.futures, "ThreadPoolExecutor", _CountingPool)
        yield
    assert threading.active_count() == threads


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    directed=st.booleans(),
    n=st.integers(3, 16) | st.integers(17, 18),
    density=st.sampled_from([0.2, 0.5, 1.0]),
    seed=st.integers(0, 10**6),
    ps=st.lists(st.sampled_from(EXACT_PS), min_size=1, max_size=7),
)
def test_exact_minima_split_across_threads_match_blocked_enumerator(directed, n, density, seed, ps):
    # slices of one set upward: a slice boundary falls between every pair of
    # neighbouring admissible sets of a small block
    c = chain_from_graph((random_directed_graph if directed else random_reversible_graph)(n, density=density, seed=seed))
    with _split_every_block(c, 3):
        _assert_same_minima(c, ps)
    assert _CountingPool.made == 1


@pytest.mark.parametrize(
    "c",
    [*(chain_from_graph(g) for g in (cycle_graph(12), hypercube_graph(4), dumbbell_graph(5))), MarkovChain(np.array([[0.25, 0.75], [0.5, 0.5]]))],
    ids=["cycle12", "hypercube4", "dumbbell5", "two-state"],
)
@pytest.mark.parametrize("cpus", [2, 3, 7])
def test_exact_minima_split_ties_go_to_smallest_bitmask(c, cpus):
    # tied minimizers fall in different slices; the first slice's must win,
    # also where exponents in (1/2, 1) come without 1/2 and 1
    for ps in ([0.0, 0.3, 0.5, 0.75, 1.0], [0.6, 0.9]):
        with _split_every_block(c, cpus):
            _assert_same_minima(c, ps)
        assert _CountingPool.made == (c.n > 2)  # two states: one admissible set


@pytest.mark.parametrize("cpus, score_rows, n", [(1, 1, 12), (4, None, 12)])
def test_exact_minima_start_no_thread_without_a_split(monkeypatch, cpus, score_rows, n):
    # one CPU however many slices, or blocks of one slice (2^12 masks at most)
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was made")

    _split(monkeypatch, cpus, score_rows)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    _assert_same_minima(chain_from_graph(random_reversible_graph(n, density=0.5, seed=5)), [0.0, 0.5, 1.0])


def _heavy_last_vertex():
    """A random walk on 18 states whose last vertex holds more than half of
    pi, so that the blocks holding it have no admissible set."""
    W = np.random.default_rng(18).random((18, 18))
    W = W + W.T
    W[-1, -1] = 2.0 * W.sum()
    return MarkovChain(W / W.sum(axis=1, keepdims=True))


@pytest.mark.parametrize(
    "c",
    [
        chain_from_graph(random_reversible_graph(18, density=0.5, seed=3)),
        chain_from_graph(random_directed_graph(17, density=0.5, seed=4)),
        _heavy_last_vertex(),
        chain_from_graph(cycle_graph(12)),
    ],
    ids=["rev18", "dir17", "heavy18", "cycle12"],
)
@pytest.mark.parametrize(
    "cpus, score_rows, tile_rows",
    [
        pytest.param(cpus, rows, tile, id=f"{cpus}-{rows}" + (f"-tile{tile}" if tile else ""))
        for tile in (None, 1, 3)
        for cpus, rows in _SPLITS
    ],
)
def test_exact_minima_rescore_once_per_block_and_windowed_exponent(monkeypatch, c, cpus, score_rows, tile_rows):
    # the windows and the bracket are chosen once per block, by the calling
    # thread: one term-by-term scoring per nonempty block and exponent p > 0,
    # however many slices and threads the block is cut into; p = 0 is scored
    # in the slices, once each. The crossing masses of a slice are built
    # tile_rows rows at a time, with the rows past the last whole tile built
    # as one shorter row: tiles of 1 row, tiles of 3 that slices of 5, 64 and
    # 700 rows straddle, and the default tile, longer than slices of 5 and 64
    ps = [0.0, 0.3, 0.5, 0.75, 1.0]
    low = min(c.n, cuts._BLOCK_BITS)
    mass_low = cuts._subset_sums(c.pi[:low])
    held = [c.pi[low + np.flatnonzero(hi >> np.arange(c.n - low) & 1)].sum() for hi in range(1 << (c.n - low))]
    blocks = sum(mass <= 0.5 + 1e-12 for mass in held)  # blocks with an admissible set
    assert (blocks < 1 << (c.n - low)) == (c.pi[-1] > 0.5)  # heavy18 has empty blocks
    sets = [int(np.sum(mass_low + mass <= 0.5 + 1e-12)) - (hi == 0) for hi, mass in enumerate(held)]  # less the empty set
    rows = score_rows or cuts._SCORE_ROWS
    slices = sum(-(-k // rows) for k in sets)
    term_phi, calls = cuts._term_phi, []

    def counted(terms, pi, mass):
        calls.append("slice" if terms.dtype == bool else "window")  # the terms of p = 0 are boundary flags
        return term_phi(terms, pi, mass)

    _split(monkeypatch, cpus, score_rows)
    if tile_rows is not None:
        monkeypatch.setattr(cuts, "_TILE_ROWS", tile_rows)
    monkeypatch.setattr(cuts, "_term_phi", counted)
    _assert_same_minima(c, ps)
    assert calls.count("window") == len(ps[1:]) * blocks
    assert calls.count("slice") == slices


def _dense_transition(n, seed):
    """A dense transition matrix on n states whose row sums are 1 + 5e-13
    and 1 - 5e-13 in turn, the first above 1."""
    W = np.random.default_rng(seed).random((n, n))
    P = W / W.sum(axis=1, keepdims=True)
    P *= 1.0 + 5e-13 * (-1.0) ** np.arange(n)[:, None]
    return MarkovChain(P)


@pytest.mark.parametrize("n, seed", [(17, 1), (18, 2)])
def test_exact_minima_bracket_where_rows_sum_above_one(n, seed):
    # the bracket's top, the largest row sum or 1, is above 1 here: a
    # crossing mass of a row summing to 1 + 5e-13 may exceed 1, never its
    # row sum; more than one block of the high bits
    c = _dense_transition(n, seed)
    rowsum = c.P.sum(axis=1)
    assert rowsum.max() > 1.0 > rowsum.min()
    assert c.n > cuts._BLOCK_BITS
    _assert_same_minima(c, [0.6, 0.75, 0.9])


def test_cauchy_schwarz_ten_thousand_random_sets():
    # phi_half^2 <= phi_0 * phi_1 per set, bulk-checked via a matmul recompute
    rng = np.random.default_rng(123)
    checked = 0
    for seed in range(10):
        c = chain_from_graph(random_reversible_graph(8 + seed % 4, density=0.5, seed=600 + seed))
        n = c.n
        masks = rng.integers(1, 1 << n, size=1000)
        member = ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
        mass = member @ c.pi
        keep = mass <= 0.5 + 1e-12
        member, mass = member[keep], mass[keep]
        cross = (1.0 - member) @ c.P.T
        phi = {}
        for p in (0.0, 0.5, 1.0):
            if p == 0.0:
                num = ((cross > 1e-15) * c.pi[None, :] * member).sum(axis=1)
            else:
                num = (cross**p * c.pi[None, :] * member).sum(axis=1)
            phi[p] = num / mass
        assert np.all(phi[0.5] ** 2 <= phi[0.0] * phi[1.0] + 1e-12)
        assert np.all(phi[0.0] >= phi[0.5] - 1e-12)
        assert np.all(phi[0.5] >= phi[1.0] - 1e-12)
        checked += len(mass)
    assert checked >= 5000


def test_sweep_two_state(two_state):
    cert = ChainAnalysis(two_state).cert(False)
    cut = sweep_cuts(two_state, [1.0], cert)[1.0]
    assert cut.subset == (0,)
    assert cut.phi == 1.0
    assert cut.method == "sweep"


def test_sweep_cycle6(cycle6):
    cert = ChainAnalysis(cycle6).cert(False)
    cut = sweep_cuts(cycle6, [1.0], cert)[1.0]
    lam = cert.lambda2
    assert cut.phi <= math.sqrt(2 * lam) + 1e-9
    # the sweep set is a cyclic arc
    in_set = np.zeros(6, dtype=bool)
    in_set[list(cut.subset)] = True
    changes = sum(in_set[i] != in_set[(i + 1) % 6] for i in range(6))
    assert changes == 2


def test_sweep_guarantee_and_dominates_exact():
    for seed in range(30):
        n = 4 + seed % 7
        c = chain_from_graph(random_reversible_graph(n, density=0.5, seed=900 + seed))
        cert = ChainAnalysis(c).cert(False)
        for p in (0.6, 0.75, 1.0):
            sw = sweep_cuts(c, [p], cert)[p]
            ex = exact_minima(c, [p])[p]
            assert sw.phi >= ex.phi - 1e-12
            assert sw.pi_mass <= 0.5 + 1e-12
            assert sw.phi <= 2 * math.sqrt(cert.lambda2 / (2 * p - 1)) + 1e-8
            # the sweep set recomputes to exactly the same value
            assert phi_p_of_set(c, sw.subset, p).phi == sw.phi


def test_sweep_small_n_set_is_among_enumerated():
    for seed in range(6):
        c = chain_from_graph(random_reversible_graph(6, density=0.5, seed=2000 + seed))
        cert = ChainAnalysis(c).cert(False)
        for p in (0.0, 0.5, 1.0):
            sw = sweep_cuts(c, [p], cert)[p]
            assert naive_phi_p(c.P, c.pi, sw.subset, p) == pytest.approx(sw.phi, abs=1e-13)


def test_sweep_directed_certificate():
    for seed in range(10):
        c = chain_from_graph(random_directed_graph(6, density=0.5, seed=3000 + seed))
        cert = ChainAnalysis(c).cert(True)
        for p in (0.6, 1.0):
            sw = sweep_cuts(c, [p], cert)[p]
            assert sw.pi_mass <= 0.5 + 1e-12
            assert sw.phi <= 2 * math.sqrt(2 * cert.lambda2 / (2 * p - 1)) + 1e-8


def test_sweep_guarantee_violation_raises_numerical_failure(cycle6):
    # a certificate that understates lambda2 makes the sweep winner exceed
    # its guarantee; that is an explicit error, not an assert
    cert = dataclasses.replace(ChainAnalysis(cycle6).cert(False), lambda2=1e-12)
    with pytest.raises(NumericalFailure):
        sweep_cuts(cycle6, [0.75], cert)
    # p <= 1/2 carries no guarantee, so the same certificate still sweeps
    assert sweep_cuts(cycle6, [0.5], cert)[0.5].method == "sweep"


SWEEP_PS = [0.0, 0.5, 0.6, 0.75, 1.0]


def _assert_sweeps_match_naive(c, cert):
    """sweep_cuts picks the subset and the bit-identical phi of the direct
    level-by-level sweep for every exponent, from one pass."""
    got = sweep_cuts(c, SWEEP_PS, cert)
    for p in SWEEP_PS:
        want = naive_sweep(c, p, cert)
        assert got[p] == want, p
        assert got[p].phi.hex() == want.phi.hex()
        assert sweep_cuts(c, [p], cert)[p] == want


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(3, 12),
    directed=st.booleans(),
    density=st.sampled_from([0.2, 0.5, 1.0]),
    steps=st.sampled_from([None, 1, 2, 3, 5]),
)
def test_sweep_cuts_match_naive_sweep(seed, n, directed, density, steps):
    c = chain_from_graph((random_directed_graph if directed else random_reversible_graph)(n, density=density, seed=seed))
    cert = ChainAnalysis(c).cert(directed)
    if steps is not None:
        # f2 rounded to a few values forces tied level sets; lambda2 = 2 puts
        # every guarantee (at least 2 sqrt(2)) above any phi (at most 1)
        f2 = np.round(cert.f2 / np.abs(cert.f2).max() * steps)
        cert = dataclasses.replace(cert, f2=f2, lambda2=2.0)
    try:
        naive_sweep(c, 0.5, cert)
    except NumericalFailure as exc:  # no sign of the rounded f2 has mass <= 1/2
        with pytest.raises(NumericalFailure, match=str(exc)):
            sweep_cuts(c, SWEEP_PS, cert)
        return
    _assert_sweeps_match_naive(c, cert)


def test_sweep_cuts_match_naive_sweep_on_rounding_ties():
    # levels grow through a set without internal transitions, so every level
    # has phi_p = 1 in exact arithmetic: only rounding, which differs between
    # the pass and a direct evaluation, and the tie rule separate them
    for seed in range(150):
        for graph in (random_reversible_graph, random_directed_graph):
            c = chain_from_graph(graph(6 + seed % 7, density=0.5, seed=seed))
            chosen: list[int] = []
            for v in np.random.default_rng(seed).permutation(c.n).tolist():
                if not c.P[v, chosen].any() and not c.P[chosen, v].any() and c.pi[chosen + [v]].sum() <= 0.5:
                    chosen.append(v)
            f2 = np.zeros(c.n)
            f2[chosen] = np.arange(len(chosen), 0, -1)
            cert = ChainAnalysis(c).cert(graph is random_directed_graph)
            _assert_sweeps_match_naive(c, dataclasses.replace(cert, f2=f2, lambda2=2.0))


def test_sweep_cuts_match_naive_sweep_with_tied_levels():
    # exact eigenvectors with repeated values: the cycle's cosine made
    # symmetric, v(i) = v(-i), and a sum of two hypercube coordinates
    i = np.arange(16)
    cos = np.cos(2 * np.pi * i / 16)
    coords = (1.0 - 2.0 * (i & 1)) + (1.0 - 2.0 * ((i >> 1) & 1))
    for c, f2 in ((chain_from_graph(cycle_graph(16)), (cos + cos[-i % 16]) / 2), (chain_from_graph(hypercube_graph(4)), coords)):
        positive = f2[f2 > 0]
        assert len(set(positive.tolist())) < positive.size
        a = ChainAnalysis(c)
        for cert in (a.cert(False), a.cert(True)):
            _assert_sweeps_match_naive(c, dataclasses.replace(cert, f2=f2))
