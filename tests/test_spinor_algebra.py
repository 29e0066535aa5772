import re

import numpy as np
import pytest

from conftest import expm_small

from curvedirac.harness import PRESET_NAMES, preset_config
from curvedirac.pml import PmlConfig
from curvedirac.propagators import StepWorkspace
from curvedirac.spinor_algebra import alpha_matrix, beta_matrix, exp_dirac


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


# ----------------------------------------------------------------- exp_dirac


def test_exp_dirac_zero_argument_is_identity():
    for S in (2, 4):
        assert np.allclose(exp_dirac(0.0, (0.0, 0.0, 0.0), S), np.eye(S))


def test_exp_dirac_scalar_pi():
    assert np.max(np.abs(exp_dirac(np.pi, (0.0, 0.0, 0.0), 2) + np.eye(2))) < 1e-13


def test_exp_dirac_matches_expm_on_random_hermitian_draws(rng):
    worst = 0.0
    for _ in range(100):
        for S in (2, 4):
            G = rng.standard_normal()
            gv = rng.standard_normal(3)
            if S == 2:
                gv[2] = 0.0
            M = beta_matrix(S) * G
            for k in range(3):
                if gv[k]:
                    M = M + alpha_matrix(k + 1, S) * gv[k]
            E = exp_dirac(G, gv, S)
            worst = max(worst, np.max(np.abs(E - expm_small(1j * M))))
    assert worst < 1e-12


def test_exp_dirac_unitary_for_real_arguments(rng):
    for _ in range(20):
        E = exp_dirac(rng.standard_normal(), rng.standard_normal(3), 4)
        assert np.max(np.abs(E.conj().T @ E - np.eye(4))) < 1e-12


def test_exp_dirac_vectorized_over_fields(rng):
    G = rng.standard_normal(11)
    g1 = rng.standard_normal(11)
    E = exp_dirac(G, (g1, 0.0, 0.0), 2)
    assert E.shape == (2, 2, 11)
    k = 4
    ref = exp_dirac(G[k], (g1[k], 0.0, 0.0), 2)
    assert np.max(np.abs(E[:, :, k] - ref)) < 1e-14


def test_exp_dirac_imaginary_argument_gives_hyperbolic_factor():
    # exp(i alpha.(i u)) = exp(-u alpha): the closed form continues analytically
    u = 0.37
    E = exp_dirac(0.0, (1j * u, 0.0, 0.0), 2)
    ref = np.cosh(u) * np.eye(2) - np.sinh(u) * alpha_matrix(1, 2)
    assert np.max(np.abs(E - ref)) < 1e-14


def test_exp_dirac_tiny_argument_limit():
    E = exp_dirac(1e-200, (0.0, 0.0, 0.0), 2)
    assert np.allclose(E, np.eye(2) + 1j * 1e-200 * beta_matrix(2))


def dirac_argument(G, gv, S):
    """beta G + alpha . gv at one node, as a dense S x S matrix."""
    M = beta_matrix(S) * G
    for k, g in enumerate(gv):
        if g:
            M = M + alpha_matrix(k + 1, S) * g
    return M


def assert_matches_expm_at_every_node(G, gv, S, tol):
    E = exp_dirac(G, gv, S)
    G = np.broadcast_to(G, E.shape[2:])
    gv = [np.broadcast_to(g, E.shape[2:]) for g in gv]
    for idx in np.ndindex(*E.shape[2:]):
        ref = expm_small(1j * dirac_argument(G[idx], [g[idx] for g in gv], S))
        assert np.max(np.abs(E[(...,) + idx] - ref)) <= tol * max(1.0, np.max(np.abs(ref)))


def components(S, *fields):
    """Gvec with the unused third component zero at S = 2."""
    return list(fields[:2]) + [fields[2] if S == 4 else 0.0]


@pytest.mark.parametrize("S", [2, 4])
def test_exp_dirac_hyperbolic_branch_matches_expm(rng, S):
    # purely imaginary Gvec, as the spin connection passes it: G^2 + Gvec^2 < 0
    u = [1j * rng.uniform(-2.0, 2.0, (5, 3)) for _ in range(3)]
    assert_matches_expm_at_every_node(0.0, components(S, *u), S, 1e-13)


@pytest.mark.parametrize("S", [2, 4])
def test_exp_dirac_sign_change_across_nodes_matches_expm(rng, S):
    # real G and g2, imaginary g1 and g3: G^2 + Gvec^2 changes sign from node to node
    G = np.linspace(-1.5, 1.5, 13)
    gv = components(S, 1j * np.linspace(2.0, -0.4, 13), 0.3 * rng.standard_normal(13),
                    0.2j * rng.standard_normal(13))
    q = G ** 2 + sum(np.real(g * g) for g in gv)
    assert np.any(q > 0) and np.any(q < 0)
    assert_matches_expm_at_every_node(G, gv, S, 1e-13)


@pytest.mark.parametrize("S", [2, 4])
@pytest.mark.parametrize("unit", [1.0, 1j], ids=["trigonometric", "hyperbolic"])
def test_exp_dirac_small_argument_limit_in_both_branches(S, unit):
    # exactly zero and far below the 1e-150 cut-off, beside an ordinary node
    g = unit * np.array([0.0, 1e-200, 1e-160, 1e-8, 0.5])
    E = exp_dirac(0.0, components(S, g, 0.0, 0.0), S)
    for k, gk in enumerate(g):
        ref = expm_small(1j * alpha_matrix(1, S) * gk)
        assert np.max(np.abs(E[..., k] - ref)) < 1e-15
    assert np.array_equal(E[..., 0], np.eye(S))
    for k in (1, 2):   # sin|G| / |G| -> 1: E - I = i alpha g to full relative precision
        assert np.allclose(E[..., k] - np.eye(S), 1j * alpha_matrix(1, S) * g[k], rtol=1e-12, atol=0)


@pytest.mark.parametrize("S", [2, 4])
@pytest.mark.parametrize("term", range(3), ids=["G", "Gvec0", "Gvec1"])
def test_exp_dirac_rejects_a_coefficient_neither_real_nor_imaginary(rng, S, term):
    # G^2 + Gvec^2 would be complex: no built-in stage passes such a term
    parts = [rng.standard_normal(7), 1j * rng.standard_normal(7), 0.0]
    parts[term] = parts[term] + (0.5 + 0.5j)
    name = "G" if term == 0 else f"Gvec[{term - 1}]"
    with pytest.raises(ValueError, match=rf"{re.escape(name)} must be real or purely imaginary"):
        exp_dirac(parts[0], components(S, *parts[1:], 0.0), S)


@pytest.mark.parametrize("S", [2, 4])
@pytest.mark.parametrize("kind", ["real", "imaginary", "scalar"])
def test_exp_dirac_result_is_c_contiguous(rng, S, kind):
    field = rng.standard_normal((4, 6))
    G, gv = {
        "real": (field, (0.0, np.asfortranarray(field), 0.0)),
        "imaginary": (0.0, (1j * field, 1j * field, 0.0)),
        "scalar": (0.3, (0.2, -0.1, 0.0)),
    }[kind]
    E = exp_dirac(G, gv, S)
    assert E.shape == (S, S) + np.shape(G if kind != "imaginary" else field)
    assert E.flags.c_contiguous and E.dtype == np.complex128


SHIPPED_BUILDS = [(name, scale, None) for name in PRESET_NAMES for scale in ("ci", "paper")]
SHIPPED_BUILDS.append(("exp6", "paper", PmlConfig(True, "I", 3.0, 1.2, 0.1)))


@pytest.mark.parametrize("name,scale,pml", SHIPPED_BUILDS,
                         ids=[f"{n}-{s}" + ("-pml" if p else "") for n, s, p in SHIPPED_BUILDS])
def test_exp_dirac_accepts_every_shipped_build(name, scale, pml):
    # the local factor's one exp_dirac call passes only real or imaginary terms
    cfg = preset_config(name, scale)
    if pml is not None:
        cfg = cfg.replace(pml=pml)
    ws = StepWorkspace(cfg.metric, cfg.grid(), cfg.dt, cfg.pml)
    assert np.all(np.isfinite(ws.half))


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
