import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isoperim.chains
from isoperim import (
    MarkovChain,
    WeightedGraph,
    chain_from_graph,
    is_irreducible,
    gen_cycle,
    gen_ht_counterexample,
    gen_random_directed,
    gen_random_reversible,
    ht_counterexample_graph,
    is_reversible,
    lazy_transform,
    random_directed_graph,
    random_reversible_graph,
)
from isoperim.chains import MAX_STATES, REVERSIBILITY_TOL, _gth, edge_fault
from isoperim.errors import InputError, NumericalFailure, TooLarge
from oracles import (
    birth_death_matrix,
    birth_death_pi,
    exact_stationary,
    light_cycle_matrix,
    naive_edge_fault,
    naive_weight_matrix,
)


def test_cycle_chain(cycle4):
    assert np.allclose(cycle4.pi, 0.25)
    for i in range(4):
        assert cycle4.P[i, (i + 1) % 4] == 0.5
        assert cycle4.P[i, (i - 1) % 4] == 0.5


def test_single_edge(two_state):
    assert np.array_equal(two_state.P, [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(two_state.pi, [0.5, 0.5])


def test_path_pi_proportional_to_degree():
    g = WeightedGraph(n=3, edges=((0, 1, 1.0), (1, 2, 1.0)))
    c = chain_from_graph(g)
    assert np.allclose(c.pi, [0.25, 0.5, 0.25])
    assert c.origin == "undirected-graph"


def test_undirected_is_reversible_and_stationary_fixed_point():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = rng.integers(3, 9)
        edges = [(u, v, float(rng.random() + 0.05)) for u in range(n) for v in range(u + 1, n)]
        c = chain_from_graph(WeightedGraph(n=int(n), edges=tuple(edges)))
        assert is_reversible(c)
        assert np.max(np.abs(MarkovChain(c.P).pi - c.pi)) < 1e-10
        assert np.max(np.abs(c.P.sum(axis=1) - 1)) < 1e-12


def test_is_reversible_tests_each_pair_of_flows():
    # the light cycle's 0.01 flows are below 1e-10 of the largest flow, but
    # the reverse flows are zero, so detailed balance fails pair by pair
    assert not is_reversible(MarkovChain(light_cycle_matrix()))
    chains = [gen_cycle(64), gen_ht_counterexample(256)]
    chains += [gen_random_reversible(40, density=0.3, seed=s) for s in range(3)]
    # pi down to 1e-184, and pi solved by LU on dense reversible matrices
    chains += [MarkovChain(birth_death_matrix(24, up, down)) for up, down in ((1e-8, 0.99), (1e-2, 0.5))]
    assert chains[-2].pi.min() < 1e-180
    rng = np.random.default_rng(200)
    for _ in range(2):
        W = rng.random((200, 200))
        chains.append(MarkovChain((W + W.T) / (W + W.T).sum(axis=1, keepdims=True)))
    assert all(is_reversible(c) for c in chains)


def _full_matrix_reversible(c):
    F = c.pi[:, None] * c.P
    return bool(np.all(np.abs(F - F.T) <= REVERSIBILITY_TOL * np.maximum(F, F.T)))


@pytest.mark.parametrize("rows", [1, 3, 64])
def test_is_reversible_by_row_blocks_gives_the_full_matrix_verdict(monkeypatch, rows):
    # blocks of 1, 3 and 64 rows, the last one short, on chains that pass and
    # that fail, one of them only in its last rows
    W = np.random.default_rng(5).random((70, 70))
    W += W.T
    W[69, 0] *= 1.5
    chains = [MarkovChain(light_cycle_matrix()), MarkovChain(W / W.sum(axis=1, keepdims=True))]
    chains += [gen_random_reversible(n, density=0.5, seed=n) for n in (3, 7, 65, 130)]
    chains += [gen_random_directed(n, density=0.5, seed=n) for n in (7, 65)]
    monkeypatch.setattr(isoperim.chains, "_REVERSIBLE_ROWS", rows)
    verdicts = [is_reversible(c) for c in chains]
    assert verdicts == [_full_matrix_reversible(c) for c in chains]
    assert verdicts == [False, False, True, True, True, True, False, False]


def test_directed_cycle_pi_uniform(directed_3cycle):
    assert np.allclose(directed_3cycle.pi, 1 / 3)
    assert not is_reversible(directed_3cycle)


def test_directed_triangle_with_reverse_edge():
    edges = ((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (1, 0, 1.0))
    c = chain_from_graph(WeightedGraph(n=3, edges=edges, directed=True))
    assert np.allclose(c.pi, [0.4, 0.4, 0.2], atol=1e-12)


def test_stationary_two_state_asymmetric():
    P = np.array([[0.9, 0.1], [0.5, 0.5]])
    pi = MarkovChain(P).pi
    assert np.allclose(pi, [5 / 6, 1 / 6], atol=1e-12)


def test_stationary_doubly_stochastic_uniform():
    P = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0.0]])
    assert np.allclose(MarkovChain(P).pi, 1 / 3)


def test_gth_two_state():
    P = np.array([[0.9, 0.1], [0.5, 0.5]])
    assert np.allclose(_gth(P), [5 / 6, 1 / 6], rtol=1e-15, atol=0)


@pytest.mark.parametrize("n", [8, 16, 24])
@pytest.mark.parametrize("up", [5e-3, 5e-5, 5e-7, 5e-9])
def test_birth_death_pi_matches_the_closed_form_per_entry(n, up):
    # pi falls by up / 0.5 = 1e-2 .. 1e-8 per state, to 8e-178 at n = 24
    pi = MarkovChain(birth_death_matrix(n, up, 0.5)).pi
    assert np.max(np.abs(pi / birth_death_pi(n, up, 0.5) - 1)) <= 1e-12


def test_integer_weighted_pi_matches_exact_rationals():
    rng = np.random.default_rng(3)
    for n in range(2, 9):
        for scale in (1, 10**8):
            W = rng.integers(0, 4, (n, n)) * rng.choice([1, scale], (n, n))
            W[np.arange(n), (np.arange(n) + 1) % n] += 1  # a cycle keeps the chain irreducible
            want = np.array([float(x) for x in exact_stationary(W.tolist())])
            got = MarkovChain(W / W.sum(axis=1, keepdims=True)).pi
            assert np.max(np.abs(got / want - 1)) <= 1e-12, (n, scale)


def test_is_irreducible_cases():
    block = np.array([[0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5], [0, 0, 0.5, 0.5]])
    assert not is_irreducible(block)
    perm = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0.0]])
    assert is_irreducible(perm)
    assert not is_irreducible(np.eye(2))


def test_stationary_requires_irreducible():
    with pytest.raises(InputError, match="not irreducible"):
        MarkovChain(np.eye(3))


def test_lazy_transform_two_state(two_state):
    lazy = lazy_transform(two_state, 0.5)
    assert np.allclose(lazy.P, 0.5)
    assert lazy.pi is two_state.pi
    assert is_reversible(lazy)


def test_lazy_identity_delta_one(two_state):
    lazy = lazy_transform(two_state, 1.0)
    assert np.array_equal(lazy.P, two_state.P)


@pytest.mark.parametrize("delta", [0.3, 1.0])
def test_lazy_transform_keeps_the_bits_of_the_identity_formula(delta):
    c = gen_random_directed(9, 0.4, seed=2)
    lazy = lazy_transform(c, delta)
    assert lazy.P.tobytes() == ((1.0 - delta) * np.eye(c.n) + delta * c.P).tobytes()
    assert not lazy.P.flags.writeable and lazy.pi is c.pi


def test_lazy_delta_out_of_range(two_state):
    for bad in (0.0, -0.2, 1.5):
        with pytest.raises(InputError, match=r"delta must lie in \(0, 1\]"):
            lazy_transform(two_state, bad)


def test_graph_errors():
    with pytest.raises(InputError, match="not strongly connected"):
        chain_from_graph(WeightedGraph(n=4, edges=((0, 1, 1.0), (2, 3, 1.0))))
    with pytest.raises(InputError, match="zero weighted degree"):
        chain_from_graph(WeightedGraph(n=3, edges=((0, 1, 1.0),)))
    with pytest.raises(InputError, match="zero out-weight"):
        chain_from_graph(WeightedGraph(n=2, edges=((0, 1, 1.0),), directed=True))
    # vertex 2's degree 1e-300 is not zero, but P(1, 2) = 1e-300 is below the structural zero
    with pytest.raises(InputError, match="not irreducible"):
        chain_from_graph(WeightedGraph(n=3, edges=((0, 1, 1.0), (1, 2, 1e-300))))
    with pytest.raises(InputError, match="not strongly connected"):
        chain_from_graph(
            WeightedGraph(n=3, edges=((0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 2, 1.0)), directed=True)
        )
    with pytest.raises(InputError, match="negative weight"):
        WeightedGraph(n=2, edges=((0, 1, -1.0),))
    with pytest.raises(ValueError):
        WeightedGraph(n=2, edges=((1, 0, 1.0),))  # undirected stored u < v
    # n is taken as vertex ids are: an integral value as an int, anything else refused
    for n in (2.5, "3", None, math.inf, math.nan):
        with pytest.raises(InputError) as info:
            WeightedGraph(n=n, edges=((0, 1, 1.0),))
        assert str(info.value) == f"vertex count {n} is not an integer"
    for n in (3.0, np.float64(3.0), np.int64(3)):
        g = WeightedGraph(n=n, edges=((0, 1, 1.0), (1, 2, 1.0)))
        assert type(g.n) is int and g.n == 3 and chain_from_graph(g).n == 3


_UNDIRECTED = ((0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5), (0, 3, 3.0), (1, 3, 1.5), (2, 2, 0.25))
_DIRECTED = ((0, 1, 1.0), (1, 2, 2.0), (2, 0, 0.5), (2, 3, 3.0), (3, 1, 1.5), (1, 0, 0.25), (3, 3, 1.0))


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
@pytest.mark.parametrize("scale", [2.0**-1000, 2.0**-60, 2.0**60], ids=["2^-1000", "2^-60", "2^60"])
def test_scaled_weights_give_the_bits_of_the_unit_walk(directed, scale):
    # a degree is refused only when it is exactly 0; a power of two scales
    # every weight and degree exactly, so P and pi keep their bits
    edges = np.array(_DIRECTED if directed else _UNDIRECTED)
    unit = chain_from_graph(WeightedGraph(n=4, edges=edges, directed=directed))
    edges[:, 2] *= scale
    c = chain_from_graph(WeightedGraph(n=4, edges=edges, directed=directed))
    assert c.P.tobytes() == unit.P.tobytes() and c.pi.tobytes() == unit.pi.tobytes()


def test_chain_validation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        MarkovChain(np.array([[0.5, 0.4], [0.5, 0.5]]))  # rows do not sum to 1
    with pytest.raises(InputError, match="not irreducible"):
        MarkovChain(P=np.eye(2), pi=np.array([0.5, 0.5]))


_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: WeightedGraph(n=0, edges=()), "graph needs at least one vertex", id="graph-n0"),
        pytest.param(lambda: MarkovChain(P=np.full((2, 3), 1 / 3), pi=None), "P must be a square matrix, got shape (2, 3)", id="P-not-square"),
        pytest.param(lambda: MarkovChain(0.5), "P must be a square matrix, got shape ()", id="P-scalar"),
        pytest.param(lambda: MarkovChain(P=_SWAP, pi=np.full(3, 1 / 3)), "pi has wrong shape", id="pi-shape"),
        pytest.param(lambda: MarkovChain(P=_SWAP, pi=[1.5, -0.5]), "pi must be strictly positive", id="pi-sign"),
        pytest.param(lambda: MarkovChain(P=_SWAP, pi=[0.5, 0.6]), "pi must sum to 1", id="pi-sum"),
        pytest.param(lambda: is_irreducible(np.ones((2, 3))), "P must be a square matrix, got shape (2, 3)", id="irreducible-not-square"),
    ],
)
def test_chains_public_refusals(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert type(exc.value) is InputError and str(exc.value) == message


@pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
def test_state_limit_is_checked_before_anything_else(monkeypatch, as_list):
    # an all-ones P fails its row sums too, but the limit on len(P) runs first
    monkeypatch.setattr(isoperim.chains, "MAX_STATES", 4)
    P = np.ones((5, 5))
    with pytest.raises(TooLarge, match="^5 states exceed the limit of 4$"):
        MarkovChain(P=P.tolist() if as_list else P, pi=None)


def test_negative_rounding_entries_are_zeroed():
    # entries in [-1e-14, 0) are accepted as rounding and set to zero, so no
    # crossing mass is negative; the caller's array is left as it was
    P = np.array([[0.5, 0.500000000000001, -1e-15], [0.1, 0.1, 0.8], [0.05, 0.05, 0.9]])
    c = MarkovChain(P)
    assert c.P.min() == 0.0
    assert c.P[0, 2] == 0.0 and P[0, 2] == -1e-15
    with pytest.raises(InputError, match=r"lie in \[0, 1\]"):
        MarkovChain(np.array([[0.5, 0.5 + 2e-14, -2e-14], [0.1, 0.1, 0.8], [0.05, 0.05, 0.9]]))


def _frozen(P):
    P = np.array(P, dtype=float)
    P.setflags(write=False)
    return P


def test_a_frozen_float64_P_is_kept():
    P = _frozen(light_cycle_matrix())
    c = MarkovChain(P)
    assert c.P is P
    assert MarkovChain(c.P, c.pi).P is P


@pytest.mark.parametrize("entry", [-1e-15, -0.0], ids=["rounding", "negative-zero"])
def test_a_frozen_P_with_a_sign_bit_gives_a_frozen_clamped_copy(entry):
    P = _frozen([[0.5, 0.5 - entry, entry], [0.1, 0.1, 0.8], [0.05, 0.05, 0.9]])
    c = MarkovChain(P)
    assert c.P is not P and not c.P.flags.writeable
    assert c.P[0, 2] == 0.0 and not np.signbit(c.P).any()
    assert P[0, 2] == entry and np.signbit(P[0, 2])
    assert c.P[1:].tobytes() == P[1:].tobytes()


def test_markov_chain_solves_for_pi_by_default():
    P = _frozen(birth_death_matrix(8, 1e-6, 0.5))
    a, b = MarkovChain(P), MarkovChain(P, None)
    assert a.P is b.P is P
    assert a.pi.tobytes() == b.pi.tobytes() and a.origin == b.origin == "raw-matrix"


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_chain_from_graph_keeps_the_bits_of_the_row_normalised_weights(directed):
    # the formulas of the two constructors chain_from_graph replaced; the
    # directed graph has a self-loop
    edges = (random_directed_graph if directed else random_reversible_graph)(12, 0.4, seed=5).edges
    if directed:
        edges = np.concatenate([edges, [[3.0, 3.0, 0.75]]])
    g = WeightedGraph(n=12, edges=edges, directed=directed)
    c = chain_from_graph(g)
    W = g.weight_matrix()
    P = W / W.sum(axis=1, keepdims=True)
    assert c.P.tobytes() == P.tobytes() and not c.P.flags.writeable
    deg = W.sum(axis=1)
    pi = MarkovChain(P).pi if directed else deg / deg.sum()
    assert c.pi.tobytes() == pi.tobytes()
    assert c.origin == ("directed-graph" if directed else "undirected-graph")


def test_self_loops_contribute_to_degree():
    g = WeightedGraph(n=2, edges=((0, 0, 1.0), (0, 1, 1.0)))
    c = chain_from_graph(g)
    assert np.allclose(c.P[0], [0.5, 0.5])
    assert np.allclose(c.pi, [2 / 3, 1 / 3])
    assert is_reversible(c)


# --- fault injection on the stationary solve -----------------------------------

def _singular(*args, **kwargs):
    raise np.linalg.LinAlgError("injected: singular matrix")


def test_stationary_fallback_matches_direct_solve(monkeypatch):
    P = gen_random_directed(6, density=0.5, seed=11).P
    direct = MarkovChain(P).pi
    monkeypatch.setattr(isoperim.chains.np.linalg, "solve", _singular)
    fallback = MarkovChain(P).pi
    assert np.max(np.abs(fallback / direct - 1)) <= 1e-12


def test_nan_transition_rejected_before_any_solve(monkeypatch):
    def never(*args, **kwargs):
        pytest.fail("a stationary solver ran on an invalid matrix")

    monkeypatch.setattr(isoperim.chains, "_gth", never)
    monkeypatch.setattr(isoperim.chains.np.linalg, "solve", never)
    P = np.array([[0.0, np.nan, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    with pytest.raises(InputError, match="non-finite"):
        MarkovChain(P)


def test_lu_pi_is_kept_where_it_passes_the_per_entry_check(monkeypatch):
    monkeypatch.setattr(isoperim.chains, "_gth", lambda P: pytest.fail("GTH ran where LU passes"))
    c = gen_random_directed(300, 0.5, 1)
    assert c.pi.min() > 0


def test_given_pi_is_checked_per_entry():
    # the closed-form pi of a birth-death chain with its tail doubled: off by
    # a factor of 2 on entries below 1e-12, so within 1e-10 absolutely
    P = birth_death_matrix(8, 1e-6, 0.5)
    pi = birth_death_pi(8, 1e-6, 0.5)
    assert np.max(np.abs(pi @ P - pi)) <= 1e-10
    MarkovChain(P=P, pi=pi)
    bad = pi.copy()
    bad[4:] *= 2
    bad[0] -= bad.sum() - 1.0
    assert np.max(np.abs(bad @ P - bad)) <= 1e-10 and abs(bad.sum() - 1.0) <= 1e-12
    with pytest.raises(NumericalFailure, match="not stationary"):
        MarkovChain(P=P, pi=bad)


def test_one_irreducibility_check_per_chain_build(monkeypatch):
    calls = []
    real = isoperim.chains.is_irreducible
    monkeypatch.setattr(isoperim.chains, "is_irreducible", lambda P: calls.append(1) or real(P))
    gen_random_directed(6, density=0.5, seed=11)
    assert len(calls) == 1
    chain_from_graph(WeightedGraph(n=3, edges=((0, 1, 1.0), (1, 2, 1.0))))
    assert len(calls) == 2


# --- the edge validator against its loop oracle --------------------------------

_FAULT_WORDS = {
    "range": "has a vertex id outside",
    "finite": "is not a finite number",
    "negative": "negative weight",
    "order": "must be stored with u < v",
    "duplicate": "duplicate edge",
}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 4), directed=st.booleans())
def test_edge_validator_and_weight_matrix_match_loop_oracles(data, n, directed):
    ids, weights = st.integers(0, n - 1), st.sampled_from([1.0, 0.5, 2.5, 0.0, -0.0])
    rows = data.draw(st.lists(st.tuples(ids, ids, weights), max_size=6))
    if rows and data.draw(st.booleans()):  # one bad id or weight
        row, col = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, 2))
        bad = [-1, n, 0.5, math.nan, math.inf] if col < 2 else [-1.0, math.nan, math.inf]
        rows[row] = rows[row][:col] + (data.draw(st.sampled_from(bad)),) + rows[row][col + 1 :]
    expected = naive_edge_fault(rows, n, directed)
    fault = edge_fault(np.array(rows, dtype=float).reshape(-1, 3), n, directed)
    if expected is None:
        assert fault is None
        g = WeightedGraph(n=n, edges=rows, directed=directed)
        assert g.edges.shape == (len(rows), 3) and not g.edges.flags.writeable
        assert g.weight_matrix().tobytes() == naive_weight_matrix(n, rows, directed).tobytes()
    else:
        row, kind = expected
        assert fault[0] == row and _FAULT_WORDS[kind] in fault[1]
        with pytest.raises(InputError, match=f"edge {row}: .*{_FAULT_WORDS[kind]}"):
            WeightedGraph(n=n, edges=rows, directed=directed)


@pytest.mark.parametrize("directed", [False, True])
def test_weight_matrix_keeps_the_bits_of_the_edge_by_edge_sum(directed):
    # loops count once, and a -0.0 weight, on a loop or not, is stored as 0.0
    edges = (random_directed_graph if directed else random_reversible_graph)(40, 0.3, seed=4).edges.copy()
    edges[::7, 2] = -0.0
    loops = np.array([[v, v, w] for v, w in zip(range(0, 40, 3), [2.5, -0.0, 0.0, 0.125] * 4)])
    rows = np.concatenate([edges, loops])
    W = WeightedGraph(n=40, edges=rows, directed=directed).weight_matrix()
    want = naive_weight_matrix(40, rows.tolist(), directed)
    assert W.tobytes() == want.tobytes()
    assert not np.signbit(W).any()


def test_edge_fault_temporaries_stay_near_one_edge_array():
    # the duplicate check sorts one key per row: the key, its sorted copy and
    # the permutation are 24 bytes a row, the size of the edge array itself
    edges = ht_counterexample_graph(1024).edges
    tracemalloc.start()
    try:
        assert edge_fault(edges, 1024, False) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * edges.nbytes, (peak, edges.nbytes)


@pytest.mark.parametrize("make_graph", [random_reversible_graph, random_directed_graph], ids=["undirected", "directed"])
def test_chain_build_peak_memory_in_n_squared_doubles(make_graph):
    # the weight matrix is divided in place and becomes P; the directed build
    # adds the stationary solve's matrix
    graph = make_graph(1024, seed=1)
    tracemalloc.start()
    try:
        c = chain_from_graph(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * 8 * c.n**2, peak / (8 * c.n**2)


def test_graph_keeps_a_frozen_edge_array_and_copies_a_writable_one():
    frozen = np.array([[0.0, 1.0, 2.0], [1.0, 2.0, 0.5]])
    frozen.setflags(write=False)
    assert WeightedGraph(n=3, edges=frozen).edges is frozen
    writable = frozen.copy()
    g = WeightedGraph(n=3, edges=writable)
    assert g.edges is not writable and not np.shares_memory(g.edges, writable)
    assert writable.flags.writeable and not g.edges.flags.writeable
    assert g.edges.tobytes() == frozen.tobytes()


def test_graph_above_state_limit_is_too_large():
    with pytest.raises(TooLarge, match=f"{MAX_STATES + 1} states exceed the limit of {MAX_STATES}"):
        WeightedGraph(n=MAX_STATES + 1, edges=())
