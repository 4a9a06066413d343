import dataclasses

import numpy as np
import pytest

import isoperim.spectral
from isoperim import (
    ChainAnalysis,
    MarkovChain,
    chain_from_graph,
    chung_laplacian,
    cycle_graph,
    hypercube_graph,
    lazy_transform,
    random_directed_graph,
    random_reversible_graph,
    truncated_eigenvector,
)
from isoperim.errors import InputError, NumericalFailure
from oracles import eigh_certificate, naive_truncated_rayleigh


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: truncated_eigenvector(ChainAnalysis(chain_from_graph(cycle_graph(4))).cert(False), chain_from_graph(cycle_graph(6))),
            "certificate does not match the chain",
            id="cert-shape",
        ),
    ],
)
def test_spectral_public_refusals(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert type(exc.value) is InputError and str(exc.value) == message


def test_lambda2_two_state(two_state):
    cert = ChainAnalysis(two_state).cert(False)
    assert abs(cert.lambda2 - 2.0) < 1e-12
    assert cert.kind == "reversible-normalized"
    assert cert.residual <= 1e-10


def test_lambda2_cycle4(cycle4):
    assert abs(ChainAnalysis(cycle4).cert(False).lambda2 - 1.0) < 1e-10


def test_lambda2_lazy_scaling(two_state, cycle4):
    for c in (two_state, cycle4):
        base = ChainAnalysis(c).cert(False).lambda2
        for delta in (0.25, 0.5):
            lazy = lazy_transform(c, delta)
            assert abs(ChainAnalysis(lazy).cert(False).lambda2 - delta * base) < 1e-8


def test_lambda2_requires_reversible(directed_3cycle):
    with pytest.raises(InputError, match="detailed balance"):
        ChainAnalysis(directed_3cycle).cert(False)


def test_chung_laplacian_directed_3cycle(directed_3cycle):
    L = chung_laplacian(directed_3cycle)
    expected = np.eye(3) - 0.5 * (directed_3cycle.P + directed_3cycle.P.T)
    assert np.allclose(L, expected, atol=1e-12)
    cert = ChainAnalysis(directed_3cycle).cert(True)
    assert abs(cert.lambda2 - 1.5) < 1e-10
    assert cert.kind == "chung-directed"


def test_chung_lambda2_directed_4cycle(directed_4cycle):
    assert abs(ChainAnalysis(directed_4cycle).cert(True).lambda2 - 1.0) < 1e-10


def test_chung_matches_reversible_on_reversible_chains():
    # I - S and Chung's L, each built and solved on its own by the oracle,
    # share lambda2 on a reversible chain, and both certificates match it
    for seed in range(12):
        c = chain_from_graph(random_reversible_graph(3 + seed % 6, density=0.5, seed=seed))
        a = ChainAnalysis(c)
        w_rev, _ = eigh_certificate(c.P, c.pi, False)
        w_chung, _ = eigh_certificate(c.P, c.pi, True)
        assert abs(w_rev[1] - w_chung[1]) < 1e-8
        assert abs(a.cert(False).lambda2 - w_rev[1]) < 1e-8
        assert abs(a.cert(True).lambda2 - w_chung[1]) < 1e-8


def test_zero_eigenvalue_with_sqrt_pi_direction():
    for seed in range(6):
        c = chain_from_graph(random_directed_graph(4 + seed, density=0.4, seed=seed))
        L = chung_laplacian(c)
        v = np.sqrt(c.pi)
        assert np.linalg.norm(L @ v) <= 1e-8
        w = np.linalg.eigh(L)[0]
        assert abs(w[0]) <= 1e-10


def _bits(a):
    return np.asarray(a).view(np.int64)


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("n, density, seed", [(3, 1.0, 0), (9, 0.3, 1), (24, 0.5, 2), (60, 0.2, 3)])
def test_chung_laplacian_and_eigensolve_keep_the_bits_of_the_old_formulas(directed, n, density, seed):
    # L built in place gives the bits of eye - (S + S^T) / 2, signed zeros
    # included, and is symmetric bit for bit, so the certificate's
    # eigensolve, which reads one triangle, sees the whole matrix
    c = chain_from_graph((random_directed_graph if directed else random_reversible_graph)(n, density=density, seed=seed))
    S = (np.sqrt(c.pi)[:, None] * c.P) / np.sqrt(c.pi)[None, :]
    L_old = np.eye(n) - 0.5 * (S + S.T)
    L = chung_laplacian(c)
    assert np.array_equal(_bits(L), _bits(L_old))
    assert np.array_equal(_bits(L), _bits(L.T))


@pytest.mark.parametrize("n, density, seed", [(3, 1.0, 0), (9, 0.3, 1), (60, 0.2, 3)])
def test_reversible_certificate_builds_i_minus_s_with_the_bits_of_eye_minus_s(n, density, seed):
    # signed zeros included; the residual it reports is taken on that matrix
    c = chain_from_graph(random_reversible_graph(n, density=density, seed=seed))
    S = (np.sqrt(c.pi)[:, None] * c.P) / np.sqrt(c.pi)[None, :]
    want = np.eye(n) - S
    assert np.array_equal(_bits(isoperim.spectral._identity_minus(S.copy())), _bits(want))
    cert = ChainAnalysis(c).cert(False)
    assert cert.residual == float(np.linalg.norm(want @ cert.v2 - cert.lambda2 * cert.v2))


def test_truncated_eigenvector_two_state(two_state):
    cert = ChainAnalysis(two_state).cert(False)
    f = truncated_eigenvector(cert, two_state)
    assert np.array_equal(f, [1.0, 0.0])


def test_truncated_eigenvector_sign_flip():
    # force the heavy side positive: flip must land on the light side
    c = chain_from_graph(random_reversible_graph(7, density=0.8, seed=11))
    cert = ChainAnalysis(c).cert(False)
    f = truncated_eigenvector(cert, c)
    assert c.pi[f > 0].sum() <= 0.5 + 1e-12
    assert f.max() == 1.0
    assert (f >= 0).all()


def test_truncated_support_is_arc_on_cycle(cycle6):
    cert = ChainAnalysis(cycle6).cert(False)
    f = truncated_eigenvector(cert, cycle6)
    support = np.nonzero(f > 0)[0]
    assert cycle6.pi[support].sum() <= 0.5 + 1e-12
    # contiguity on the ring: complement of the support is one cyclic run too
    in_support = f > 0
    changes = sum(in_support[i] != in_support[(i + 1) % 6] for i in range(6))
    assert changes == 2


# hand values of the quotient that test_truncated_rayleigh_stays_below_lambda2
# reads from the oracle

def test_truncated_rayleigh_two_state(two_state):
    assert abs(naive_truncated_rayleigh(two_state.P, two_state.pi, np.array([1.0, 0.0])) - 1.0) < 1e-14


def test_truncated_rayleigh_constant_vector_is_zero():
    c = chain_from_graph(random_reversible_graph(6, density=0.6, seed=2))
    assert naive_truncated_rayleigh(c.P, c.pi, np.ones(6)) == 0.0


def test_truncated_rayleigh_stays_below_lambda2():
    # the lemma behind the sweep guarantee: the truncated certificate vector's
    # quotient with the symmetrized flow is at most lambda2, up to the
    # certificate's residual tolerance; for directed chains the one-sided
    # flow pi(u) P(u, v) alone can exceed Chung's lambda2
    for directed, seed_base in ((False, 100), (True, 200)):
        graph = random_directed_graph if directed else random_reversible_graph
        for seed in range(10):
            c = chain_from_graph(graph(4 + seed % 5, density=0.5, seed=seed_base + seed))
            cert = ChainAnalysis(c).cert(directed)
            f = truncated_eigenvector(cert, c)
            assert naive_truncated_rayleigh(c.P, c.pi, f) <= cert.lambda2 + 1e-8


def test_certificate_invariants():
    for seed in range(8):
        c = chain_from_graph(random_reversible_graph(5 + seed % 4, density=0.6, seed=300 + seed))
        cert = ChainAnalysis(c).cert(False)
        assert abs(np.linalg.norm(cert.v2) - 1.0) <= 1e-12
        assert abs(float(cert.v2 @ np.sqrt(c.pi))) <= 1e-8
        assert np.allclose(cert.f2, cert.v2 / np.sqrt(c.pi), atol=1e-14)


def test_certificate_keeps_a_frozen_vector_and_copies_a_writable_one():
    # the reversible certificate holds Chung's frozen v2 itself; a writable f2
    # handed to dataclasses.replace is copied and frozen, and the caller's
    # array stays writable
    a = ChainAnalysis(chain_from_graph(random_reversible_graph(7, density=0.6, seed=5)))
    chung, rev = a.cert(True), a.cert(False)
    assert rev.v2 is chung.v2 and not rev.v2.flags.writeable
    f2 = rev.f2.copy()
    moved = dataclasses.replace(rev, f2=f2)
    assert moved.f2 is not f2 and not np.shares_memory(moved.f2, f2)
    assert f2.flags.writeable and not moved.f2.flags.writeable
    assert moved.f2.tobytes() == f2.tobytes() and moved.v2 is rev.v2


# --- fault injection on the eigensolve -----------------------------------------

def test_eigvalsh_failure_is_numerical_failure(monkeypatch, cycle4):
    def fail(M):
        raise np.linalg.LinAlgError("injected: eigenvalues did not converge")

    monkeypatch.setattr(isoperim.spectral.np.linalg, "eigvalsh", fail)
    with pytest.raises(NumericalFailure, match="did not converge"):
        ChainAnalysis(cycle4).cert(False)


def test_eigenpair_residual_above_tolerance(monkeypatch):
    c = chain_from_graph(random_reversible_graph(6, density=0.5, seed=2))
    real = np.linalg.eigvalsh

    def shifted(M):
        return real(M) + 1e-3

    monkeypatch.setattr(isoperim.spectral.np.linalg, "eigvalsh", shifted)
    with pytest.raises(NumericalFailure, match="residual"):
        ChainAnalysis(c).cert(False)


def _solves(monkeypatch, singular):
    """Log "singular" or "ok" for each of numpy's solves, the first
    ``singular`` of them refused as exactly singular."""
    real, log = np.linalg.solve, []

    def solve(A, b):
        if len(log) < singular:
            log.append("singular")
            raise np.linalg.LinAlgError("injected: Singular matrix")
        try:
            x = real(A, b)
        except np.linalg.LinAlgError:
            log.append("singular")
            raise
        log.append("ok")
        return x

    monkeypatch.setattr(isoperim.spectral.np.linalg, "solve", solve)
    return log


def _exact_lambda2_chains():
    swap = MarkovChain(np.array([[0.0, 1.0], [1.0, 0.0]]))
    graphs = (cycle_graph(3), cycle_graph(4), hypercube_graph(2), hypercube_graph(3))
    return [swap, lazy_transform(swap, 0.25), *(chain_from_graph(g) for g in graphs)]


@pytest.mark.parametrize("singular", [0, 1])
def test_exactly_representable_lambda2_takes_the_step_and_keeps_the_residual(monkeypatch, singular):
    # lambda2 = 2, 0.5, 1.5, 1, 1 and 2/3 (the last not a double): the lazy
    # swap chain's and the 4-cycle's deflated matrices are exactly singular
    # at lambda2 itself, so their second solve is the one stepped down;
    # every chain's first solve refused as singular (singular = 1) steps
    # too. Either way each pair meets a relative residual of 1e-12
    stepped = []
    for c in _exact_lambda2_chains():
        log = _solves(monkeypatch, singular)
        cert = ChainAnalysis(c).cert(True)
        stepped.append(log == ["singular", "ok"])
        assert log in (["ok"], ["singular", "ok"])
        assert cert.residual <= 1e-12 * np.linalg.norm(chung_laplacian(c))
        assert abs(cert.lambda2 / eigh_certificate(c.P, c.pi, True)[0][1] - 1) <= 1e-12
    assert stepped[1] and stepped[3] if singular == 0 else all(stepped)


@pytest.mark.parametrize(
    "eps, message",
    [
        (1e-9, None),
        (5e-8, "second eigenvector not orthogonal to the Perron direction"),
        (1e-7, "eigenpair residual"),
    ],
)
def test_eigenvector_tilted_toward_the_perron_direction(monkeypatch, eps, message):
    # v2 + eps u, normalized: a tilt of 5e-8 keeps the residual within
    # tolerance and is refused by the orthogonality check; 1e-9 passes both,
    # and 1e-7 trips the residual check first
    real = isoperim.spectral._deflated_solve

    def tilted(L, u, sigma):
        v = real(L, u, sigma) + eps * u
        return v / np.linalg.norm(v)

    monkeypatch.setattr(isoperim.spectral, "_deflated_solve", tilted)
    c = chain_from_graph(random_directed_graph(40, 0.5, 1))
    if message is None:
        assert ChainAnalysis(c).cert(True).residual <= 1e-8 * np.linalg.norm(chung_laplacian(c))
        return
    with pytest.raises(NumericalFailure) as exc:
        ChainAnalysis(c).cert(True)
    assert str(exc.value).startswith(message)


def test_two_singular_solves_are_numerical_failure(monkeypatch, cycle4):
    log = _solves(monkeypatch, 2)
    with pytest.raises(NumericalFailure, match="Singular matrix"):
        ChainAnalysis(cycle4).cert(False)
    assert log == ["singular", "singular"]


def test_zero_eigenvector_is_numerical_failure(cycle4):
    cert = dataclasses.replace(ChainAnalysis(cycle4).cert(False), f2=np.zeros(4))
    with pytest.raises(NumericalFailure, match="no sign choice"):
        truncated_eigenvector(cert, cycle4)
