import dataclasses
import math

import numpy as np
import pytest

import isoperim.spectral
from isoperim import (
    ChainAnalysis,
    chain_from_matrix,
    chung_laplacian,
    gen_cycle,
    gen_hypercube,
    gen_random_directed,
    gen_random_reversible,
    lazy_transform,
    symmetric_eigensolve,
    truncated_eigenvector,
    truncated_rayleigh,
)
from isoperim.errors import InputError, NumericalFailure
from oracles import eigh_certificate, naive_truncated_rayleigh


def test_eigensolve_diagonal():
    w, Q = symmetric_eigensolve(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1, 2, 3])
    assert np.allclose(Q @ Q.T, np.eye(3), atol=1e-12)


def test_eigensolve_swap_matrix():
    w, Q = symmetric_eigensolve(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1, 1])
    assert np.allclose(np.abs(Q), 1 / math.sqrt(2), atol=1e-12)


def test_eigensolve_cycle_spectrum(cycle4):
    L = np.eye(4) - cycle4.P  # already symmetric for the ring
    w, _ = symmetric_eigensolve(L)
    assert np.allclose(w, [0.0, 1.0, 1.0, 2.0], atol=1e-12)


def test_eigensolve_reconstructs_random_symmetric():
    rng = np.random.default_rng(3)
    for n in (8, 64, 256):
        M = rng.standard_normal((n, n))
        M = 0.5 * (M + M.T)
        w, Q = symmetric_eigensolve(M)
        err = np.linalg.norm(Q @ np.diag(w) @ Q.T - M)
        assert err <= 1e-7 * np.linalg.norm(M)
        assert np.all(np.diff(w) >= -1e-12)


def test_eigensolve_errors():
    with pytest.raises(InputError, match="square"):
        symmetric_eigensolve(np.ones((2, 3)))
    with pytest.raises(ValueError):
        symmetric_eigensolve(np.array([[0.0, 1.0], [0.0, 0.0]]))  # grossly asymmetric


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: symmetric_eigensolve(np.array([[0.0, np.nan], [np.nan, 0.0]])), "matrix has non-finite entries", id="eigensolve-nan"),
        pytest.param(
            lambda: truncated_eigenvector(ChainAnalysis(gen_cycle(4)).cert(False), gen_cycle(6)), "certificate does not match the chain", id="cert-shape"
        ),
        pytest.param(lambda: truncated_rayleigh(gen_cycle(4), np.ones(3)), "vector length does not match the chain", id="rayleigh-shape"),
        pytest.param(lambda: truncated_rayleigh(gen_cycle(4), np.array([1.0, -0.5, 0.0, 0.0])), "vector must be nonnegative", id="rayleigh-sign"),
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
        c = gen_random_reversible(3 + seed % 6, density=0.5, seed=seed)
        a = ChainAnalysis(c)
        w_rev, _ = eigh_certificate(c.P, c.pi, False)
        w_chung, _ = eigh_certificate(c.P, c.pi, True)
        assert abs(w_rev[1] - w_chung[1]) < 1e-8
        assert abs(a.cert(False).lambda2 - w_rev[1]) < 1e-8
        assert abs(a.cert(True).lambda2 - w_chung[1]) < 1e-8


def test_zero_eigenvalue_with_sqrt_pi_direction():
    for seed in range(6):
        c = gen_random_directed(4 + seed, density=0.4, seed=seed)
        L = chung_laplacian(c)
        v = np.sqrt(c.pi)
        assert np.linalg.norm(L @ v) <= 1e-8
        w, _ = symmetric_eigensolve(L)
        assert abs(w[0]) <= 1e-10


def _bits(a):
    return np.asarray(a).view(np.int64)


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("n, density, seed", [(3, 1.0, 0), (9, 0.3, 1), (24, 0.5, 2), (60, 0.2, 3)])
def test_chung_laplacian_and_eigensolve_keep_the_bits_of_the_old_formulas(directed, n, density, seed):
    # L built in place and L solved without symmetrizing it again give the
    # bits of eye - (S + S^T) / 2 and of eigh((L + L^T) / 2), signed zeros
    # included
    c = (gen_random_directed if directed else gen_random_reversible)(n, density=density, seed=seed)
    S = (np.sqrt(c.pi)[:, None] * c.P) / np.sqrt(c.pi)[None, :]
    L_old = np.eye(n) - 0.5 * (S + S.T)
    w_old, Q_old = np.linalg.eigh(0.5 * (L_old + L_old.T))
    L = chung_laplacian(c)
    w, Q = symmetric_eigensolve(L)
    assert np.array_equal(_bits(L), _bits(L_old))
    assert np.array_equal(_bits(w), _bits(w_old))
    assert np.array_equal(_bits(Q), _bits(Q_old))


@pytest.mark.parametrize("n, density, seed", [(3, 1.0, 0), (9, 0.3, 1), (60, 0.2, 3)])
def test_reversible_certificate_builds_i_minus_s_with_the_bits_of_eye_minus_s(n, density, seed):
    # signed zeros included; the residual it reports is taken on that matrix
    c = gen_random_reversible(n, density=density, seed=seed)
    S = (np.sqrt(c.pi)[:, None] * c.P) / np.sqrt(c.pi)[None, :]
    want = np.eye(n) - S
    assert np.array_equal(_bits(isoperim.spectral._identity_minus(S.copy())), _bits(want))
    cert = ChainAnalysis(c).cert(False)
    assert cert.residual == float(np.linalg.norm(want @ cert.v2 - cert.lambda2 * cert.v2))


def test_eigensolve_symmetrizes_a_nearly_symmetric_matrix_and_refuses_a_skewed_one():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((12, 12))
    M = A + A.T + 1e-12 * rng.standard_normal((12, 12))
    w, Q = symmetric_eigensolve(M)
    w_old, Q_old = np.linalg.eigh(0.5 * (M + M.T))
    assert np.array_equal(_bits(w), _bits(w_old))
    assert np.array_equal(_bits(Q), _bits(Q_old))
    with pytest.raises(InputError, match="not symmetric"):
        symmetric_eigensolve(A + A.T + 1e-3 * np.triu(A, 1))


def test_truncated_eigenvector_two_state(two_state):
    cert = ChainAnalysis(two_state).cert(False)
    f = truncated_eigenvector(cert, two_state)
    assert np.array_equal(f, [1.0, 0.0])


def test_truncated_eigenvector_sign_flip():
    # force the heavy side positive: flip must land on the light side
    c = gen_random_reversible(7, density=0.8, seed=11)
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


def test_truncated_rayleigh_two_state(two_state):
    assert abs(truncated_rayleigh(two_state, np.array([1.0, 0.0])) - 1.0) < 1e-14


def test_truncated_rayleigh_constant_vector_is_zero():
    c = gen_random_reversible(6, density=0.6, seed=2)
    assert truncated_rayleigh(c, np.ones(6)) == 0.0


def test_truncated_rayleigh_matches_oracle_and_lemma():
    for seed in range(10):
        c = gen_random_reversible(4 + seed % 5, density=0.5, seed=100 + seed)
        cert = ChainAnalysis(c).cert(False)
        f = truncated_eigenvector(cert, c)
        q = truncated_rayleigh(c, f)
        assert abs(q - naive_truncated_rayleigh(c.P, c.pi, f)) < 1e-12
        assert q <= cert.lambda2 + 1e-8
    for seed in range(10):
        c = gen_random_directed(4 + seed % 5, density=0.5, seed=200 + seed)
        cert = ChainAnalysis(c).cert(True)
        f = truncated_eigenvector(cert, c)
        q = truncated_rayleigh(c, f)
        assert abs(q - naive_truncated_rayleigh(c.P, c.pi, f)) < 1e-12
        assert q <= cert.lambda2 + 1e-8


def test_truncated_rayleigh_zero_vector(two_state):
    with pytest.raises(InputError, match="identically zero"):
        truncated_rayleigh(two_state, np.zeros(2))


def test_certificate_invariants():
    for seed in range(8):
        c = gen_random_reversible(5 + seed % 4, density=0.6, seed=300 + seed)
        cert = ChainAnalysis(c).cert(False)
        assert abs(np.linalg.norm(cert.v2) - 1.0) <= 1e-12
        assert abs(float(cert.v2 @ np.sqrt(c.pi))) <= 1e-8
        assert np.allclose(cert.f2, cert.v2 / np.sqrt(c.pi), atol=1e-14)


# --- fault injection on the eigensolve -----------------------------------------

def test_eigvalsh_failure_is_numerical_failure(monkeypatch, cycle4):
    def fail(M):
        raise np.linalg.LinAlgError("injected: eigenvalues did not converge")

    monkeypatch.setattr(isoperim.spectral.np.linalg, "eigvalsh", fail)
    with pytest.raises(NumericalFailure, match="did not converge"):
        ChainAnalysis(cycle4).cert(False)


def test_eigenpair_residual_above_tolerance(monkeypatch):
    c = gen_random_reversible(6, density=0.5, seed=2)
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
    swap = chain_from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    return [swap, lazy_transform(swap, 0.25), gen_cycle(3), gen_cycle(4), gen_hypercube(2), gen_hypercube(3)]


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


def test_two_singular_solves_are_numerical_failure(monkeypatch, cycle4):
    log = _solves(monkeypatch, 2)
    with pytest.raises(NumericalFailure, match="Singular matrix"):
        ChainAnalysis(cycle4).cert(False)
    assert log == ["singular", "singular"]


def test_zero_eigenvector_is_numerical_failure(cycle4):
    cert = dataclasses.replace(ChainAnalysis(cycle4).cert(False), f2=np.zeros(4))
    with pytest.raises(NumericalFailure, match="no sign choice"):
        truncated_eigenvector(cert, cycle4)
