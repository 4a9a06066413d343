import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoperim import (
    MarkovChain,
    PartitionBlocks,
    WeightedGraph,
    arc_phi_half,
    block_log_sum,
    block_merge_residual,
    check_block_lower_bound,
    circulant_lambda2,
    cycle_graph,
    dumbbell_graph,
    gen_cycle,
    gen_dumbbell,
    gen_ht_counterexample,
    gen_hypercube,
    ht_counterexample_graph,
    hypercube_graph,
    hypercube_quantities,
    is_reversible,
    lambda2_reversible,
    normalizer,
    phi_p_exact,
    phi_p_of_set,
    random_directed_graph,
    random_reversible_graph,
    scaling_scan,
    sqrt_crossweight,
)
from isoperim import families
from isoperim.errors import InputError, TooLarge
from oracles import naive_arc_min_phi_half, naive_block_h, naive_circulant_eigs


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


def test_counterexample_too_small():
    with pytest.raises(InputError, match="needs n >= 3"):
        gen_ht_counterexample(2)


def test_counterexample_lambda2_n4():
    chain = gen_ht_counterexample(4)
    first_row = np.concatenate([[1.0], -chain.P[0, 1:]])
    assert abs(circulant_lambda2(first_row) - 18 / 17) < 1e-12
    assert abs(lambda2_reversible(chain).lambda2 - 18 / 17) < 1e-10


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
        c = gen_cycle(n)
        first_row = np.eye(n)[0] - c.P[0]
        assert abs(circulant_lambda2(first_row) - lambda2_reversible(c).lambda2) < 1e-8


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
    q3 = gen_hypercube(3)
    assert q3.n == 8
    for row in q3.P:
        nz = row[row > 0]
        assert len(nz) == 3
        assert np.allclose(nz, 1 / 3)


def test_cycle_equals_ring_chain(cycle4):
    assert np.array_equal(gen_cycle(4).P, cycle4.P)


def test_dumbbell_phi1():
    c = gen_dumbbell(4)
    cut = phi_p_exact(c, 1.0)
    assert abs(cut.phi - 1 / 13) < 1e-12
    assert sorted(cut.subset) in ([0, 1, 2, 3], [4, 5, 6, 7])


# --- hypercube quantities ------------------------------------------------------

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


def test_hypercube_rejects_whole_cube():
    with pytest.raises(InputError, match="exceeds 1/2"):
        hypercube_quantities(3, list(range(8)))
    with pytest.raises(InputError, match="support d <= 14"):
        hypercube_quantities(15, [0])


def test_hypercube_rejects_a_non_integral_point():
    # 0.5 is not truncated to the point 0
    with pytest.raises(InputError, match="vertex id 0.5 is not an integer"):
        hypercube_quantities(3, [0.5])
    assert hypercube_quantities(3, [0.0]) == hypercube_quantities(3, [0])


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
        chain = gen_hypercube(d)
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
    moved = MarkovChain(n=8, P=P, pi=None)
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
        pytest.param(lambda: hypercube_quantities(0, [0]), "dimension must be >= 1, got 0", id="quantities-d0"),
        pytest.param(lambda: hypercube_quantities(3, []), "subset must be nonempty", id="quantities-empty"),
        pytest.param(lambda: hypercube_quantities(3, [8]), "subset contains points outside {0,1}^d", id="quantities-range"),
        pytest.param(lambda: sqrt_crossweight(gen_ht_counterexample(8), [], [1]), "both sets must be nonempty", id="crossweight-empty"),
        pytest.param(lambda: sqrt_crossweight(gen_ht_counterexample(8), [0], [8]), "vertex out of range", id="crossweight-range"),
        pytest.param(lambda: PartitionBlocks((0, 0)), "total size must be positive", id="blocks-empty"),
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
        exact = phi_p_exact(chain, 0.5).phi
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
