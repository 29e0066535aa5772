import tracemalloc

import numpy as np
import pytest

from conftest import flat_exact_evolution

from curvedirac.errors import BudgetError
from curvedirac.geometry import MetricModel
from curvedirac.grid_spectral import SpinorField, _fft_split, make_grid
from curvedirac.harness import (RunConfig, initial_condition, preset_config, restrict_to_coarse,
                                run_simulation)
from curvedirac.krylov import KrylovOptions
from curvedirac.oracle import MAX_DENSE_BYTES, build_dense_G, dense_bytes, dense_cn_step
from curvedirac.propagators import (StepWorkspace, cayley_preconditioner, cn_apply_values,
                                    cn_transport_step)
from curvedirac.spinor_algebra import alpha_matrix

EXP1 = preset_config("exp1").metric
EXP3 = preset_config("exp3").metric


def test_dense_G_zero_dt_is_identity():
    g = make_grid(1, 5.0, 16)
    ws = StepWorkspace(EXP1, g, 0.0)
    assert np.array_equal(build_dense_G(ws), np.eye(32))


def test_dense_G_matches_matrix_free_1d(rng):
    g = make_grid(1, 5.0, 8)
    ws = StepWorkspace(MetricModel("flat", mass=0.0), g, 0.2)
    G = build_dense_G(ws)
    for _ in range(20):
        v = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
        assert np.max(np.abs(G @ v.ravel() - cn_apply_values(v, ws).ravel())) < 1e-11


def test_dense_G_matches_matrix_free_2d(rng):
    g = make_grid(2, (5.0, 5.0), (8, 6))
    ws = StepWorkspace(EXP3, g, 1e-2)
    G = build_dense_G(ws)
    v = rng.standard_normal((2, 8, 6)) + 1j * rng.standard_normal((2, 8, 6))
    assert np.max(np.abs(G @ v.ravel() - cn_apply_values(v, ws).ravel())) < 1e-11


def test_dense_G_anti_hermitian_part_flat():
    # constant velocity: G - I inherits the exact anti-Hermitianity of [[d]]
    g = make_grid(1, 5.0, 16)
    ws = StepWorkspace(MetricModel("flat", mass=0.0), g, 0.1)
    G = build_dense_G(ws)
    K = G - np.eye(32)
    assert np.max(np.abs(K + K.conj().T)) < 1e-14


def test_dense_G_size_guard():
    g = make_grid(1, 5.0, 16384)
    ws = StepWorkspace(MetricModel("flat"), g, 0.1)
    with pytest.raises(BudgetError):
        build_dense_G(ws)


def test_byte_budget_refuses_16384_unknowns_before_any_allocation(rng):
    # one 16384^2 complex matrix is 4.3 GB; the largest oracle size in the
    # suite, n = 4036 (exp4 at N = 2018), holds about 0.65 GB
    assert dense_bytes(4036) <= MAX_DENSE_BYTES < dense_bytes(16384)
    g = make_grid(1, 5.0, 8192)
    ws = StepWorkspace(MetricModel("flat"), g, 0.1)
    f = SpinorField(rng.standard_normal((2, 8192)) + 0j, g)
    for build in (lambda: build_dense_G(ws), lambda: dense_cn_step(f, ws)):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="16384 unknowns"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_dense_assembly_holds_about_one_matrix(rng):
    # exp1 at N = 400, n = 800: the assembly scales the first axis's product
    # in place and peaks at 1.53 matrices, the derivative matrix and its
    # scaled copy included (0.25 each in 1-D); assembled out of place, the
    # assembly and the step both peaked at 3.0
    g = make_grid(1, 5.0, 400)
    ws = StepWorkspace(EXP1, g, 5e-4)
    f = SpinorField(rng.standard_normal((2, 400)) + 1j * rng.standard_normal((2, 400)), g)
    matrix = 800 * 800 * np.dtype(np.complex128).itemsize
    for build, bound in ((lambda: build_dense_G(ws), 1.6), (lambda: dense_cn_step(f, ws), 2.1)):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * matrix


def test_dense_cn_step_zero_dt(rng):
    g = make_grid(1, 5.0, 16)
    ws = StepWorkspace(EXP1, g, 0.0)
    f = SpinorField(rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16)), g)
    out = dense_cn_step(f, ws)
    assert np.max(np.abs(out.values - f.values)) < 1e-13


def test_dense_vs_gmres_cross_check(rng):
    g = make_grid(1, 5.0, 32)
    ws = StepWorkspace(EXP1, g, 5e-4)
    x = g.axes[0]
    v = np.zeros((2, 32), dtype=np.complex128)
    v[0] = np.exp(-x ** 2 / 2 + 5j * x)
    f = SpinorField(v, g)
    d = dense_cn_step(f, ws)
    k = cn_transport_step(f, ws, KrylovOptions(tol=1e-10))
    assert np.linalg.norm(d.values - k.values) / np.linalg.norm(d.values) < 1e-9


def test_dense_cn_plane_wave_cayley():
    g = make_grid(1, np.pi, 16)
    dt = 0.1
    ws = StepWorkspace(MetricModel("flat", mass=0.0), g, dt)
    xi = 2.0
    u = np.array([1.0, -0.3 + 0.1j])
    wave = np.exp(1j * xi * g.axes[0])
    f = SpinorField(np.stack([u[0] * wave, u[1] * wave]), g)
    out = dense_cn_step(f, ws)
    s1 = alpha_matrix(1, 2)
    cay = np.linalg.solve(np.eye(2) + 1j * dt * xi / 2 * s1,
                          (np.eye(2) - 1j * dt * xi / 2 * s1) @ u)
    assert np.max(np.abs(out.values - cay[:, None] * wave)) < 1e-12


def test_dense_vs_matrix_free_agree_on_presets(rng):
    """Every shipped geometry at oracle size: dense LU and GMRES agree."""
    cases = [
        (MetricModel("flat", mass=1.0), 1, 5.0, 64),
        (EXP1, 1, 5.0, 64),
        (preset_config("exp4").metric, 1, 10.0, 64),
        (EXP3, 2, (5.0, 5.0), (16, 16)),
    ]
    for model, d, a, N in cases:
        g = make_grid(d, a, N)
        ws = StepWorkspace(model, g, 1e-3)
        shape = (model.spinor_dim,) + g.shape
        f = SpinorField(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), g)
        dd = dense_cn_step(f, ws)
        kk = cn_transport_step(f, ws, KrylovOptions(tol=1e-11))
        assert np.linalg.norm(dd.values - kk.values) < 1e-9 * np.linalg.norm(dd.values)


@pytest.mark.parametrize("name,N,K", [("exp1", 1203, 0), ("exp4", 2018, 16)])
def test_cn_step_at_split_sizes_matches_dense_oracle(name, N, K):
    """A 1-D cn step whose transforms take the split (N = 3 * 401 on the
    circulant, 2 * 1009 on the K = 16 band) agrees with the dense LU step
    within C04's bound."""
    cfg = preset_config(name, "ci").replace(N=(N,))
    assert _fft_split(N) is not None and dense_bytes(2 * N) <= MAX_DENSE_BYTES
    ws = StepWorkspace(cfg.metric, cfg.grid(), cfg.dt, cfg.pml)
    f = initial_condition(cfg, ws.grid)
    out = cn_transport_step(f, ws, cfg.krylov)
    assert cayley_preconditioner(ws).K == K
    dense = dense_cn_step(f, ws)
    assert np.linalg.norm(out.values - dense.values) < 1e-9 * np.linalg.norm(dense.values)


# ------------------------------------------------------------- reference runs


def test_restriction_subsamples_nested_nodes(rng):
    fine = make_grid(1, 5.0, 96)
    coarse = make_grid(1, 5.0, 32)
    v = rng.standard_normal((2, 96)) + 1j * rng.standard_normal((2, 96))
    r = restrict_to_coarse(SpinorField(v, fine), coarse)
    assert np.array_equal(r.values, v[:, ::3])
    assert np.allclose(fine.axes[0][::3], coarse.axes[0])
    with pytest.raises(ValueError):
        restrict_to_coarse(SpinorField(v, fine), make_grid(1, 5.0, 36))


def test_reference_run_matches_analytic_flat_dispersion():
    # the run refined by 3 (h/3, dt/9) against the exact flat evolution
    rcfg = RunConfig(d=1, a=6.0, N=3 * 256, metric=MetricModel("flat", mass=1.0),
                     scheme="cn", dt=4e-4 / 3 ** 2, T=0.1,
                     ic_kind="gaussian_wavepacket", ic_k0=3.0)
    ref = run_simulation(rcfg)
    f0 = initial_condition(rcfg, rcfg.grid())
    exact = flat_exact_evolution(f0, 1.0, 0.1)
    err = np.linalg.norm(ref.final.values - exact.values) / np.linalg.norm(exact.values)
    assert err < 1e-8
