import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoperim import (
    ChainAnalysis,
    MarkovChain,
    PartitionBlocks,
    WeightedGraph,
    arc_phi_half,
    block_log_sum,
    block_merge_residual,
    chain_from_graph,
    check_block_lower_bound,
    circulant_lambda2,
    cycle_graph,
    dumbbell_graph,
    exact_minima,
    gen_ht_counterexample,
    ht_counterexample_graph,
    hypercube_graph,
    is_reversible,
    normalizer,
    phi_p_of_set,
    random_directed_graph,
    random_reversible_graph,
    scaling_scan,
    sqrt_crossweight,
)
from isoperim import families
from isoperim.errors import InputError, TooLarge
from oracles import hypercube_quantities, naive_arc_min_phi_half, naive_block_h, naive_circulant_eigs


# --- counterexample family -------------------------------------------------

def test_counterexample_n4_values():
    chain = gen_ht_counterexample(4)
    assert normalizer(4) == 2.125
    assert abs(chain.P[0, 1] - 8 / 17) < 1e-15
    assert abs(chain.P[0, 2] - 1 / 17) < 1e-15
    assert abs(chain.P[0, 3] - 8 / 17) < 1e-15
    assert np.allclose(chain.pi, 0.25)


def test_counterexample_rows_and_reversibility():
    for n in (3, 5, 8, 33, 64):
        chain = gen_ht_counterexample(n)
        assert np.max(np.abs(chain.P.sum(axis=1) - 1)) < 1e-12
        assert is_reversible(chain)
        assert np.max(np.abs(chain.pi - 1.0 / n)) < 1e-12
        assert abs(chain.P[0, 1] * normalizer(n) - 1) < 1e-12


@pytest.mark.parametrize("n", [3, 8, 64, 257, 1024, 4096])
def test_counterexample_chain_is_the_walk_on_its_graph(n):
    # gen_ht_counterexample divides the kernel by C = fsum(kernel), rounded
    # once, and sets pi = 1/n; the walk on ht_counterexample_graph(n), the
    # road of generate and then analyze, divides each row by its degree, a
    # numpy row sum, and sets pi = degree / total. numpy sums a contiguous
    # row pairwise: blocks of at most 128 entries through 8 partial sums (15
    # additions each, 3 to combine them, 7 left-over entries), one addition
    # per halving above that and one for the reduction's first entry. So a
    # sum is rounded at most h = 26 + ceil(log2 n) times along any path and
    # is off by at most h u relative (u = eps / 2, to first order). P then
    # differs by at most (h + 3) u: the degree, C and the two divisions; pi
    # by at most (3 h + 2) u: the degree, the total of the degrees and its
    # own sum, the division and 1/n. The block bound's crossing masses carry
    # P's gap and a row sum on either side, halved by the square root, which
    # keeps its right side within (3 h + 2) u too.
    u = np.finfo(float).eps / 2
    h = 26 + math.ceil(math.log2(n))
    direct = gen_ht_counterexample(n)
    walk = chain_from_graph(ht_counterexample_graph(n))
    assert np.array_equal(direct.P > 0, walk.P > 0)
    off = direct.P > 0
    assert np.max(np.abs(direct.P[off] - walk.P[off]) / direct.P[off]) <= (h + 3) * u
    assert np.max(np.abs(direct.pi - walk.pi) / direct.pi) <= (3 * h + 2) * u
    if n in (8, 64, 257):
        rng = np.random.default_rng(n)
        colorings = [PartitionBlocks((n // 2, n - n // 2))]
        for _ in range(4):
            in_a = rng.random(n) < 0.5
            in_a[0], in_a[-1] = True, False
            colorings.append(PartitionBlocks.from_membership(in_a))
        for pb in colorings:
            a, b = check_block_lower_bound(direct, pb), check_block_lower_bound(walk, pb)
            assert (a.name, a.lhs, a.holds) == (b.name, b.lhs, b.holds)
            assert abs(a.rhs - b.rhs) <= (3 * h + 2) * u * a.rhs


def test_counterexample_too_small():
    with pytest.raises(InputError, match="needs n >= 3"):
        gen_ht_counterexample(2)


def test_counterexample_lambda2_n4():
    chain = gen_ht_counterexample(4)
    first_row = np.concatenate([[1.0], -chain.P[0, 1:]])
    assert abs(circulant_lambda2(first_row) - 18 / 17) < 1e-12
    assert abs(ChainAnalysis(chain).cert(False).lambda2 - 18 / 17) < 1e-10


# --- analytic circulant eigenvalues ------------------------------------------

def test_circulant_cycle_values():
    assert abs(circulant_lambda2([1.0, -0.5, 0.0, -0.5]) - 1.0) < 1e-12
    assert abs(circulant_lambda2([1.0, -0.5, -0.5]) - 1.5) < 1e-12


def test_circulant_rejects_asymmetric():
    with pytest.raises(InputError, match=r"a\[d\] == a\[n-d\]"):
        circulant_lambda2([1.0, -0.7, 0.0, -0.3])


def test_circulant_matches_dense_eigensolver():
    for n in (4, 8, 16, 33, 64, 128, 256):
        chain = gen_ht_counterexample(n)
        first_row = np.concatenate([[1.0], -chain.P[0, 1:]])
        analytic = circulant_lambda2(first_row)
        dense = np.sort(naive_circulant_eigs(first_row))
        assert abs(analytic - dense[1]) < 1e-8
    for n in (3, 4, 6, 12):
        c = chain_from_graph(cycle_graph(n))
        first_row = np.eye(n)[0] - c.P[0]
        assert abs(circulant_lambda2(first_row) - ChainAnalysis(c).cert(False).lambda2) < 1e-8


def test_circulant_matches_sin_closed_form():
    # 4 * sum P(1, i) sin^2((i-1) pi / n) over the half range, plus the even-n
    # boundary term, reproduces the analytic eigenvalue at k = 1
    for n in (9, 15, 21):
        chain = gen_ht_counterexample(n)
        k = (n - 1) // 2
        closed = 4.0 * math.fsum(
            chain.P[0, i] * math.sin(i * math.pi / n) ** 2 for i in range(1, k + 1)
        )
        first_row = np.concatenate([[1.0], -chain.P[0, 1:]])
        assert abs(circulant_lambda2(first_row) - closed) < 1e-12


# --- standard families --------------------------------------------------------

def test_hypercube_rows():
    q3 = chain_from_graph(hypercube_graph(3))
    assert q3.n == 8
    for row in q3.P:
        nz = row[row > 0]
        assert len(nz) == 3
        assert np.allclose(nz, 1 / 3)


def test_cycle_equals_ring_chain(cycle4):
    assert np.array_equal(chain_from_graph(cycle_graph(4)).P, cycle4.P)


def test_dumbbell_phi1():
    c = chain_from_graph(dumbbell_graph(4))
    cut = exact_minima(c, [1.0])[1.0]
    assert abs(cut.phi - 1 / 13) < 1e-12
    assert sorted(cut.subset) in ([0, 1, 2, 3], [4, 5, 6, 7])


# --- hypercube closed form (the oracle of phi_p_of_set) --------------------

# hand values of the oracle that test_hypercube_quantities_match_phi_of_chain
# compares the chain with

def test_hypercube_dictator():
    for d in (2, 3, 4):
        dictator = [x for x in range(1 << d) if not (x >> (d - 1)) & 1]
        q = hypercube_quantities(d, dictator)
        assert q.talagrand_num == 0.5
        assert q.poincare_num == 0.5
        assert q.vertex_boundary == 0.5


def test_hypercube_singleton_d3():
    q = hypercube_quantities(3, [0])
    assert q.poincare_num == 3 / 8
    assert abs(q.talagrand_num - math.sqrt(3) / 8) < 1e-15
    assert q.vertex_boundary == 1 / 8


def test_hypercube_graph_edges_in_comprehension_order():
    # the order of the per-edge comprehension the array replaced
    for d in range(1, 11):
        rows = [(x, x ^ (1 << i), 1.0) for x in range(1 << d) for i in range(d) if not (x >> i) & 1]
        g = hypercube_graph(d)
        assert g.n == 1 << d and not g.directed
        assert np.array_equal(g.edges, np.array(rows))


@pytest.mark.parametrize(
    "build",
    [
        lambda: cycle_graph(7),
        lambda: hypercube_graph(3),
        lambda: dumbbell_graph(4),
        lambda: ht_counterexample_graph(9),
        lambda: random_reversible_graph(8, 0.5, 0),
        lambda: random_directed_graph(8, 0.5, 0),
    ],
)
def test_family_graphs_keep_the_edge_array_they_build(build):
    with mock.patch.object(families, "WeightedGraph", wraps=WeightedGraph) as made:
        g = build()
    assert g.edges is made.call_args.kwargs["edges"]


def test_hypercube_graph_rejects_dimension_above_cap():
    # 2^70 vertices: rejected before any edge is built
    with pytest.raises(InputError, match="d <= 14"):
        hypercube_graph(70)


@pytest.mark.parametrize("density", [math.nan, math.inf, -0.1, 1.5])
def test_random_families_reject_bad_density(density):
    for build in (random_reversible_graph, random_directed_graph):
        with pytest.raises(InputError, match=r"density must be a number in \[0, 1\]"):
            build(5, density=density)


def test_dense_families_refuse_too_many_states_before_allocating():
    # 10^5 states would need tens of GiB: each builder must refuse first
    for build in (gen_ht_counterexample, ht_counterexample_graph, random_reversible_graph, random_directed_graph):
        with pytest.raises(TooLarge, match="100000 states exceed the limit of 16384"):
            build(100000)
    with pytest.raises(TooLarge, match="200000 states"):
        dumbbell_graph(100000)


def test_hypercube_quantities_match_phi_of_chain():
    for d in (2, 3):
        chain = chain_from_graph(hypercube_graph(d))
        n = 1 << d
        rng = np.random.default_rng(d)
        for _ in range(30):
            size = int(rng.integers(1, n // 2 + 1))
            subset = sorted(rng.choice(n, size=size, replace=False).tolist())
            q = hypercube_quantities(d, subset)
            mu = size / n
            assert abs(q.poincare_num / (d * mu) - phi_p_of_set(chain, subset, 1.0).phi) < 1e-12
            assert abs(q.talagrand_num / (math.sqrt(d) * mu) - phi_p_of_set(chain, subset, 0.5).phi) < 1e-12
            assert abs(q.vertex_boundary / mu - phi_p_of_set(chain, subset, 0.0).phi) < 1e-12


# --- crossweight ---------------------------------------------------------------

def test_crossweight_two_state(two_state):
    assert sqrt_crossweight(two_state, [0], [1]) == 1.0


def test_crossweight_cycle4(cycle4):
    assert abs(sqrt_crossweight(cycle4, [0, 1], [2, 3]) - math.sqrt(2)) < 1e-15


def test_crossweight_rejects_a_non_integral_vertex(cycle4):
    with pytest.raises(InputError, match="vertex id 1.5 is not an integer"):
        sqrt_crossweight(cycle4, [0, 1.5], [2, 3])
    with pytest.raises(InputError, match="vertex id 2.2 is not an integer"):
        sqrt_crossweight(cycle4, [0, 1], [2.2, 3])


def test_crossweight_counterexample_consistency():
    chain = gen_ht_counterexample(8)
    for size in (1, 2, 4):
        A = list(range(size))
        B = list(range(size, 8))
        f = sqrt_crossweight(chain, A, B)
        phi = phi_p_of_set(chain, A, 0.5).phi
        assert abs(f / size - phi) < 1e-12


def test_crossweight_rejects_overlap(cycle4):
    with pytest.raises(InputError, match="disjoint"):
        sqrt_crossweight(cycle4, [0, 1], [1, 2])


# --- block machinery -----------------------------------------------------------

def test_block_log_sum_k1():
    assert abs(block_log_sum(PartitionBlocks((2, 2))) - (2 * math.log(3) - math.log(5))) < 1e-14
    assert block_log_sum(PartitionBlocks((0, 4))) == pytest.approx(0.0, abs=1e-14)


def test_block_log_sum_matches_walking_oracle():
    cases = [(1, 1, 1, 1), (2, 3, 1, 4), (5, 1, 2, 2, 3, 4), (1, 2), (7, 3, 2, 6)]
    for sizes in cases:
        assert abs(block_log_sum(PartitionBlocks(sizes)) - naive_block_h(list(sizes))) < 1e-12


def test_block_merge_examples():
    assert block_merge_residual(PartitionBlocks((2, 0, 3, 4))) <= 1e-12
    assert block_merge_residual(PartitionBlocks((1, 2, 0, 3))) <= 1e-12


def test_block_merge_errors():
    with pytest.raises(InputError, match="exactly one zero block"):
        block_merge_residual(PartitionBlocks((1, 2, 3, 4)))
    with pytest.raises(InputError, match="k = 1 leaves no valid merge target"):
        block_merge_residual(PartitionBlocks((3, 0)))
    with pytest.raises(InputError, match="exactly one zero block"):
        block_merge_residual(PartitionBlocks((0, 2, 0, 3)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_block_merge_identity_random(data):
    k = data.draw(st.integers(2, 5))
    sizes = [data.draw(st.integers(1, 9)) for _ in range(2 * k)]
    pos = data.draw(st.integers(0, 2 * k - 1))
    sizes[pos] = 0
    assert block_merge_residual(PartitionBlocks(tuple(sizes))) <= 1e-12


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_block_concavity_random(data):
    k = data.draw(st.integers(2, 4))
    sizes = [data.draw(st.integers(1, 8)) for _ in range(2 * k)]
    s = sizes[0] + sizes[2]
    g = []
    for x in range(s + 1):
        cfg = list(sizes)
        cfg[0], cfg[2] = x, s - x
        g.append(block_log_sum(PartitionBlocks(tuple(cfg))))
    for x in range(1, s):
        assert g[x - 1] - 2 * g[x] + g[x + 1] <= 1e-9
    assert min(g) >= min(g[0], g[-1]) - 1e-9


def test_block_lower_bound_cases():
    for n, sizes in [(16, (8, 8)), (16, (1, 1) * 8), (4, (2, 2)), (16, (3, 5, 2, 6))]:
        chain = gen_ht_counterexample(n)
        rep = check_block_lower_bound(chain, PartitionBlocks(sizes))
        assert rep.holds


def test_block_lower_bound_random_colorings():
    rng = np.random.default_rng(11)
    for n in (8, 16, 32):
        chain = gen_ht_counterexample(n)
        for _ in range(60):
            flags = rng.random(n) < 0.5
            flags[0], flags[-1] = True, False
            pb = PartitionBlocks.from_membership(flags.tolist())
            rep = check_block_lower_bound(chain, pb)
            assert rep.holds
            assert pb.n == n


def test_block_lower_bound_rejects_wrong_chain(cycle4):
    with pytest.raises(ValueError):
        check_block_lower_bound(cycle4, PartitionBlocks((2, 2)))


def test_block_lower_bound_rejects_a_chain_that_matches_row_0_only():
    # rows 1..7 moved toward uniform by up to 0.151: row 0 alone cannot tell
    # this chain from the circulant, on which the bound reads rhs 3.942
    # (the moved chain would read 4.537)
    chain = gen_ht_counterexample(8)
    P = chain.P.copy()
    P[1:] = 0.5 * P[1:] + 0.5 / 8
    moved = MarkovChain(P=P, pi=None)
    assert np.array_equal(moved.P[0], chain.P[0])
    with pytest.raises(InputError, match="chain is not the inverse-cube circulant family"):
        check_block_lower_bound(moved, PartitionBlocks((3, 5)))
    assert abs(check_block_lower_bound(chain, PartitionBlocks((3, 5))).rhs - 3.942) < 1e-3


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: cycle_graph(2), "cycle needs n >= 3, got 2", id="cycle"),
        pytest.param(lambda: hypercube_graph(0), "hypercube needs d >= 1, got 0", id="hypercube"),
        pytest.param(lambda: dumbbell_graph(2), "dumbbell needs m >= 3, got 2", id="dumbbell"),
        pytest.param(lambda: ht_counterexample_graph(2), "family needs n >= 3, got 2", id="ht-graph"),
        pytest.param(lambda: random_reversible_graph(2), "random family needs n >= 3, got 2", id="random"),
        pytest.param(lambda: random_directed_graph(1), "random directed family needs n >= 2, got 1", id="random-directed"),
        pytest.param(lambda: arc_phi_half(2, 1), "family needs n >= 3, got 2", id="arc"),
        pytest.param(lambda: circulant_lambda2([1.0]), "first row must be a vector of length >= 2", id="circulant-row"),
        pytest.param(lambda: circulant_lambda2([1.0, math.nan, math.nan]), "first row has non-finite entries", id="circulant-nan"),
        pytest.param(
            lambda: circulant_lambda2(["a", "b"]),
            "first row is not an array of numbers: could not convert string to float: 'a'",
            id="circulant-str",
        ),
        pytest.param(lambda: random_reversible_graph(8, density="0.5"), "density must be a number, got '0.5'", id="random-density-str"),
        pytest.param(lambda: random_directed_graph(8, density=None), "density must be a number, got None", id="random-directed-density-none"),
        pytest.param(lambda: normalizer(-1), "family needs n >= 3, got -1", id="normalizer-negative"),
        pytest.param(lambda: normalizer(0), "family needs n >= 3, got 0", id="normalizer-0"),
        pytest.param(lambda: normalizer(2), "family needs n >= 3, got 2", id="normalizer-2"),
        pytest.param(lambda: sqrt_crossweight(gen_ht_counterexample(8), [], [1]), "both sets must be nonempty", id="crossweight-empty"),
        pytest.param(lambda: sqrt_crossweight(gen_ht_counterexample(8), [0], [8]), "vertex out of range", id="crossweight-range"),
        pytest.param(lambda: PartitionBlocks((0, 0)), "total size must be positive", id="blocks-empty"),
        pytest.param(lambda: PartitionBlocks(5), "sizes must alternate (a1, b1, ..., ak, bk) with k >= 1", id="blocks-scalar"),
        pytest.param(
            lambda: check_block_lower_bound(gen_ht_counterexample(8), PartitionBlocks((3, 4))),
            "blocks cover 7 vertices but the chain has 8",
            id="block-bound-size",
        ),
        pytest.param(
            lambda: check_block_lower_bound(gen_ht_counterexample(8), PartitionBlocks((3, 0, 2, 3))),
            "blocks must all be nonempty to describe a coloring",
            id="block-bound-zero-block",
        ),
    ],
)
def test_families_public_refusals(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert type(exc.value) is InputError and str(exc.value) == message


def _value(x):
    """What a builder returns, in a form that compares by value."""
    if isinstance(x, WeightedGraph):
        return x.n, x.directed, x.edges.tolist()
    if isinstance(x, MarkovChain):
        return x.P.tolist(), x.pi.tolist()
    return x


@pytest.mark.parametrize(
    "build, size, what",
    [
        pytest.param(cycle_graph, 8, "vertex count", id="cycle"),
        pytest.param(hypercube_graph, 3, "dimension", id="hypercube"),
        pytest.param(dumbbell_graph, 4, "bell size", id="dumbbell"),
        pytest.param(gen_ht_counterexample, 8, "vertex count", id="ht"),
        pytest.param(ht_counterexample_graph, 8, "vertex count", id="ht-graph"),
        pytest.param(random_reversible_graph, 8, "vertex count", id="random"),
        pytest.param(lambda s: random_reversible_graph(8, seed=s), 3, "seed", id="random-seed"),
        pytest.param(random_directed_graph, 8, "vertex count", id="random-directed"),
        pytest.param(lambda s: random_directed_graph(8, seed=s), 3, "seed", id="random-directed-seed"),
        pytest.param(lambda s: arc_phi_half(s, 2), 8, "vertex count", id="arc-n"),
        pytest.param(lambda s: arc_phi_half(8, s), 2, "arc length", id="arc-l"),
        pytest.param(normalizer, 8, "vertex count", id="normalizer"),
        pytest.param(lambda s: scaling_scan([s]), 64, "vertex count", id="scan"),
        pytest.param(lambda s: PartitionBlocks((s, 2)), 3, "block size", id="blocks"),
    ],
)
def test_family_sizes_are_taken_as_integers(build, size, what):
    # an integral float builds what the int builds; anything else is refused,
    # never truncated (scaling_scan([64.5]) ran n = 64) or left to a TypeError
    assert _value(build(float(size))) == _value(build(size))
    for bad in (size + 0.5, str(size), None):
        with pytest.raises(InputError) as exc:
            build(bad)
        assert type(exc.value) is InputError and str(exc.value) == f"{what} {bad} is not an integer"


def test_partition_blocks_validation():
    with pytest.raises(InputError, match="sizes must alternate"):
        PartitionBlocks((1, 2, 3))  # odd length
    with pytest.raises(InputError, match="block sizes must be nonnegative"):
        PartitionBlocks((-1, 2))
    with pytest.raises(InputError, match="coloring must start in A and end in B"):
        PartitionBlocks.from_membership([False, True])
    pb = PartitionBlocks.from_membership([True, True, False, True, False])
    assert pb.sizes == (2, 1, 1, 1)
    A, B = pb.vertex_sets()
    assert A == [0, 1, 3] and B == [2, 4]


# --- arcs and the scan -----------------------------------------------------------

def test_arc_singleton_is_one():
    for n in (4, 9, 16):
        assert abs(arc_phi_half(n, 1) - 1.0) < 1e-12


def test_arc_matches_materialized_chain():
    for n in (4, 8, 16, 64, 512):
        chain = gen_ht_counterexample(n)
        for l in {1, 2, n // 4, n // 2} - {0}:
            direct = phi_p_of_set(chain, list(range(l)), 0.5).phi
            assert abs(arc_phi_half(n, l) - direct) < 1e-10


def test_arc_min_equals_scan_column_bit_for_bit():
    # arc_phi_half sums as the scan does, so the public arc values and the
    # scan's phi_half_arc agree to the last bit (math.fsum differed at 129 n)
    for row in scaling_scan(range(8, 400)):
        arc_min = min(arc_phi_half(row.n, l) for l in range(1, row.n // 2 + 1))
        assert arc_min.hex() == row.phi_half_arc.hex(), row.n


def test_arc_range_validation():
    with pytest.raises(ValueError):
        arc_phi_half(8, 5)
    with pytest.raises(ValueError):
        arc_phi_half(8, 0)


def test_arc_upper_bounds_exact():
    for n in (8, 12, 16):
        chain = gen_ht_counterexample(n)
        exact = exact_minima(chain, [0.5])[0.5].phi
        arc_min = min(arc_phi_half(n, l) for l in range(1, n // 2 + 1))
        assert exact <= arc_min + 1e-12


def _record_arc_lengths(monkeypatch) -> list[int]:
    """The arc lengths ``families._arc_min_phi_half`` evaluates, in order."""
    seen: list[int] = []
    inner = families._arc_sqrt_cross

    def record(n, l, prefix, C):
        seen.append(l)
        return inner(n, l, prefix, C)

    monkeypatch.setattr(families, "_arc_sqrt_cross", record)
    return seen


def test_arc_min_matches_loop_over_every_length():
    for n in [*range(8, 601), 1023, 1024, 2047, 2048, 4095, 4097, 8191, 8192]:
        _, prefix, C = families._kernel(n)
        got = families._arc_min_phi_half(n, prefix, C)
        assert (n, got.hex()) == (n, naive_arc_min_phi_half(n, prefix, C).hex())


def test_arc_min_evaluates_only_the_longest_arc_on_the_family(monkeypatch):
    seen = _record_arc_lengths(monkeypatch)
    for n in (8, 9, 64, 1023, 32768):
        seen.clear()
        families._arc_min_phi_half(n, *families._kernel(n)[1:])
        assert seen == [n // 2]


def test_arc_min_evaluates_every_length_the_certificate_keeps(monkeypatch):
    # weight only at cyclic distance 20: every arc up to 20 crosses twice per
    # vertex, so no shorter arc is ruled out from the arc of length 32
    n = 64
    w = np.zeros(n)
    w[20] = w[n - 20] = 1.0
    prefix, C = np.concatenate([[0.0], np.cumsum(w[1:])]), 2.0
    seen = _record_arc_lengths(monkeypatch)
    got = families._arc_min_phi_half(n, prefix, C)
    assert seen == [32, *range(1, 32)]
    assert got == naive_arc_min_phi_half(n, prefix, C)


def test_arc_min_loops_over_every_length_on_a_decreasing_prefix(monkeypatch):
    n = 64
    _, prefix, C = families._kernel(n)
    prefix = prefix.copy()  # the cached prefix is read-only
    prefix[30] = 0.0  # the one entry below its predecessor
    want = naive_arc_min_phi_half(n, prefix, C)
    # a shorter arc wins here, which a bound from the arc of length 32 would hide
    assert want < float(families._arc_sqrt_cross(n, 32, prefix, C).sum()) / 32
    seen = _record_arc_lengths(monkeypatch)
    assert families._arc_min_phi_half(n, prefix, C) == want
    assert seen == list(range(1, 33))


def test_scan_rows_and_csv(tmp_path):
    out = tmp_path / "scan.csv"
    rows = scaling_scan([16, 64, 32], output=str(out))
    assert [r.n for r in rows] == [16, 32, 64]
    for r in rows:
        assert abs(r.rho - r.phi_half_arc / math.sqrt(r.lambda2)) < 1e-12
        assert abs(r.lambda2_scaled - r.lambda2 * r.n**2 / math.log(r.n)) < 1e-12
    text = out.read_text().splitlines()
    assert text[0] == "n,lambda2,phi_half_arc,rho,lambda2_scaled,phi_scaled"
    assert len(text) == 4
    fields = text[1].split(",")
    assert int(fields[0]) == 16
    assert float(fields[1]) == pytest.approx(rows[0].lambda2, abs=0)


def test_scan_monotone_rho():
    rows = scaling_scan([64, 128])
    assert rows[1].rho > rows[0].rho


def test_scan_rejects_tiny_n():
    with pytest.raises(InputError, match="n >= 8"):
        scaling_scan([4, 64])
