import numpy as np
import pytest

from conftest import dense_factor, expm_small

from curvedirac.geometry import MetricSample
from curvedirac.harness import PRESET_NAMES, preset_config
from curvedirac.pml import PmlConfig
from curvedirac.propagators import StepWorkspace, _half_factors, _spin_matmul
from curvedirac.spinor_algebra import alpha_matrix, beta_matrix


def taylor_expm(M, terms=20):
    out = np.eye(M.shape[0], dtype=complex)
    term = np.eye(M.shape[0], dtype=complex)
    for j in range(1, terms + 1):
        term = term @ M / j
        out = out + term
    return out


# ----------------------------------------------------------------- constants


@pytest.mark.parametrize("S", [2, 4])
def test_matrices_hermitian_and_involutive(S):
    idx = (1, 2) if S == 2 else (1, 2, 3)
    mats = [beta_matrix(S)] + [alpha_matrix(i, S) for i in idx]
    for M in mats:
        assert np.allclose(M, M.conj().T)
        assert np.allclose(M @ M, np.eye(S))


def test_anticommutation_s4():
    b = beta_matrix(4)
    for i in range(1, 4):
        ai = alpha_matrix(i, 4)
        assert np.max(np.abs(ai @ b + b @ ai)) == 0.0
        for j in range(1, 4):
            aj = alpha_matrix(j, 4)
            acom = ai @ aj + aj @ ai
            assert np.allclose(acom, 2.0 * (i == j) * np.eye(4))


def test_alpha3_unavailable_for_two_components():
    with pytest.raises(ValueError):
        alpha_matrix(3, 2)


# ----------------------------------------------------------------- half step factor
# The closed form exp(-i tau M), M = beta G + alpha^1 g + V, as the solver
# builds and applies it: `propagators._half_factors` (see `spinor_algebra`).


def half_factor(G, g, S, V=0.0, tau=1.0):
    """The solver's factor exp(-i tau M) of G, g (None for no A_x) and V
    over a field of nodes, as a dense (S, S, *nodes) matrix field."""
    lead, trail = _half_factors(MetricSample([], None, G, g, V), tau, S, None)
    assert lead is trail
    return dense_factor(lead, S)


def dirac_argument(G, g, V, S):
    """beta G + alpha^1 g + V at one node, as a dense S x S matrix."""
    return beta_matrix(S) * G + alpha_matrix(1, S) * g + V * np.eye(S)


@pytest.mark.parametrize("S", [2, 4])
def test_half_factor_matches_expm_across_a_sign_change(rng, S):
    # real coefficients that change sign from node to node, G and g through
    # zero at the same node, where r = |(G, g)| -> 0
    G = np.linspace(-1.5, 1.5, 13)
    g = np.linspace(2.4, -2.4, 13)
    V = rng.standard_normal(13)
    for x in (G, g):
        assert np.any(x > 0) and np.any(x < 0) and x[6] == 0.0
    for tau in (0.1, 1.0):
        E = half_factor(G, g, S, V, tau)
        for k in range(13):
            ref = expm_small(-1j * tau * dirac_argument(G[k], g[k], V[k], S))
            assert np.max(np.abs(E[..., k] - ref)) < 1e-13


def test_half_factor_matches_expm_on_random_hermitian_draws(rng):
    # 100 random real (G, g, V, tau) per spinor size, one node each, as one field
    worst = 0.0
    for S in (2, 4):
        G, g, V = rng.standard_normal((3, 100))
        tau = rng.uniform(0.05, 2.0)
        E = half_factor(G, g, S, V, tau)
        for k in range(100):
            ref = expm_small(-1j * tau * dirac_argument(G[k], g[k], V[k], S))
            worst = max(worst, np.max(np.abs(E[..., k] - ref)))
    assert worst < 1e-12


def test_half_factor_unitary_for_real_arguments(rng):
    for S in (2, 4):
        for g in (None, rng.standard_normal(20)):
            G, V = rng.standard_normal((2, 20))
            E = half_factor(G, g, S, V, rng.uniform(0.05, 2.0))
            EhE = np.einsum("bak,bck->ack", E.conj(), E)
            assert np.max(np.abs(EhE - np.eye(S)[..., None])) < 1e-12


def test_half_factor_tiny_argument_limit():
    # a mass term far below the 1e-150 cut-off, with and without a coupling
    # plane: E - I = -i beta G to full relative precision
    G = np.array([1e-200])
    for g in (None, np.zeros(1)):
        E = half_factor(G, g, 2)
        assert np.array_equal(np.diagonal(E[..., 0]).real, np.ones(2))
        assert np.allclose(E[..., 0] - np.eye(2), -1j * 1e-200 * beta_matrix(2),
                           rtol=1e-12, atol=0)


@pytest.mark.parametrize("S", [2, 4])
def test_half_factor_small_argument_limit_on_both_sides_of_the_cut(S):
    # both sides of `_cos_sinc`'s 1e-150 cut-off: exactly zero and far
    # below it, beside ordinary nodes just above it and far above it
    g = np.array([0.0, 1e-200, 1e-160, 1e-140, 1e-8, 0.5])
    E = half_factor(np.zeros(g.shape), g, S)
    for k, gk in enumerate(g):
        ref = expm_small(-1j * alpha_matrix(1, S) * gk)
        assert np.max(np.abs(E[..., k] - ref)) < 1e-15
    assert np.array_equal(E[..., 0], np.eye(S))
    for k in (1, 2, 3):   # sin r / r -> 1: E - I = -i alpha g to full relative precision
        assert np.allclose(E[..., k] - np.eye(S), -1j * alpha_matrix(1, S) * g[k],
                           rtol=1e-12, atol=0)


@pytest.mark.parametrize("S", [2, 4])
def test_half_factor_is_the_identity_at_zero(S):
    # M = 0, with and without an alpha^1 coupling plane: exactly I
    zero = np.zeros(5)
    for g in (None, zero):
        assert np.array_equal(half_factor(zero, g, S), np.broadcast_to(
            np.eye(S)[..., None], (S, S, 5)))


SHIPPED_BUILDS = [(name, scale, None) for name in PRESET_NAMES for scale in ("ci", "paper")]
SHIPPED_BUILDS.append(("exp6", "paper", PmlConfig(True, "I", 3.0, 1.2, 0.1)))


@pytest.mark.parametrize("name,scale,pml", SHIPPED_BUILDS,
                         ids=[f"{n}-{s}" + ("-pml" if p else "") for n, s, p in SHIPPED_BUILDS])
def test_half_factors_accept_every_shipped_build(name, scale, pml):
    # every factor is finite, and with the gauge divided out
    # (lead e^{-F/2}, e^{F/2} trail) it is unitary at every node: applied to
    # the S unit spinors, its columns are orthonormal
    cfg = preset_config(name, scale)
    if pml is not None:
        cfg = cfg.replace(pml=pml)
    ws = StepWorkspace(cfg.metric, cfg.grid(), cfg.dt, cfg.pml)
    S, shape = cfg.metric.spinor_dim, cfg.grid().shape
    assert (ws.lead is ws.trail) == (ws.sample.gauge is None)
    assert (ws.lead[1] is not None) == (name in ("exp4", "exp5"))
    F = 0.0 if ws.sample.gauge is None else ws.sample.gauge
    for factor, sign in ((ws.lead, -1.0), (ws.trail, 1.0)):
        planes, coupling = factor
        assert planes.shape == (S,) + shape
        for part in factor:
            assert part is None or np.all(np.isfinite(part))
        scale = np.exp(sign * 0.5 * F)
        unit = (planes * scale, None if coupling is None else coupling * scale)
        cols = [_spin_matmul(unit, np.broadcast_to(np.eye(S)[b].reshape((S,) + (1,) * len(shape)),
                                                   (S,) + shape)) for b in range(S)]
        for b in range(S):
            for c in range(b, S):
                dot = np.sum(cols[b].conj() * cols[c], axis=0)
                assert np.max(np.abs(dot - (b == c))) < 1e-14, (b, c)


# ----------------------------------------------------------------- expm_small


def test_expm_small_zero_and_diagonal():
    assert np.allclose(expm_small(np.zeros((3, 3))), np.eye(3))
    M = 1j * np.pi * np.diag([1.0, -1.0])
    assert np.max(np.abs(expm_small(M) + np.eye(2))) < 1e-13


def test_expm_small_matches_series_on_random_draws(rng):
    worst = 0.0
    for _ in range(50):
        M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        M /= max(np.linalg.norm(M), 1.0)
        worst = max(worst, np.linalg.norm(expm_small(M) - taylor_expm(M)))
    assert worst < 1e-10


def test_expm_small_non_normal_fallback():
    M = np.array([[0.0, 1.0], [0.0, 0.0]])  # nilpotent: exp = I + M
    assert np.allclose(expm_small(M), np.eye(2) + M)
    M = np.array([[1.0, 100.0], [0.0, 2.0]])  # large norm, non-normal
    ref = taylor_expm(M / 2 ** 8, terms=25)
    for _ in range(8):
        ref = ref @ ref
    assert np.linalg.norm(expm_small(M) - ref) < 1e-8 * np.linalg.norm(ref)
