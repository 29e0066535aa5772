import collections
import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import expm_small, flat_exact_evolution, loglog_slope

from curvedirac import geometry, propagators
from curvedirac.errors import ConfigurationError, StepFailureError
from curvedirac.geometry import MetricModel, ScalarForm, sample_metric
from curvedirac.grid_spectral import SpinorField, derivative_values, make_grid
from curvedirac.harness import RunConfig, convergence_sweep, initial_condition, preset_config, run_simulation
from curvedirac.krylov import KrylovOptions
from curvedirac.oracle import dense_cn_step
from curvedirac.propagators import (
    StepWorkspace,
    _spin_matmul,
    cayley_preconditioner,
    cn_apply_values,
    cn_transport_step,
    half_potential_step,
    poly_axis_step,
    poly_axis_step2,
    strang_step,
)
from curvedirac.spinor_algebra import alpha_matrix, beta_matrix

FLAT0 = MetricModel("flat", mass=0.0)
FLAT1 = MetricModel("flat", mass=1.0)
EXP1 = MetricModel("static1d", mass=1.0,
                   phi=ScalarForm("gauss", (1.0, 5e-3)),
                   psi=ScalarForm("gauss", (1.0, 1e-2)))
# static metric with velocity e^{-psi} <= 1 and no spin connection (phi = 0):
# the regime in which the explicit scheme's norm is provably non-increasing
WELL = MetricModel("static1d", mass=1.0,
                   phi=ScalarForm("zero"), psi=ScalarForm("well", (1.0, 5e-3)))


def gaussian_field(grid, k0=5.0, width=1.0, x0=0.0):
    x = grid.axes[0]
    v = np.zeros((2, grid.N[0]), dtype=np.complex128)
    v[0] = np.exp(-((x - x0) ** 2) / (2 * width ** 2) + 1j * k0 * x)
    return SpinorField(v, grid)


def vec_norm(f):
    return np.linalg.norm(f.values)


# ------------------------------------------------------------ spin kernel


@pytest.mark.parametrize("S", [2, 4])
@pytest.mark.parametrize("grid_shape", [(12,), (6, 5)], ids=["d1", "d2"])
@pytest.mark.parametrize("field", [False, True], ids=["constant", "field"])
@pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "view"])
def test_spin_matmul_matches_einsum(rng, S, grid_shape, field, strided):
    def crand(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    mat = crand(S, S, *grid_shape) if field else crand(S, S)
    values = crand(S, *grid_shape)
    if strided:
        # a non-contiguous view: every other node of a doubled last axis
        big = crand(S, *grid_shape[:-1], 2 * grid_shape[-1])
        values = big[..., ::2]
        assert not values.flags.c_contiguous
    ref = np.einsum("ab...,b...->a...", mat, values)
    out = _spin_matmul(mat, values)
    assert out.shape == values.shape
    assert np.allclose(out, ref, rtol=0, atol=1e-13)


# ------------------------------------------------------------ half potential


def test_half_potential_identity_when_massless_free():
    g = make_grid(1, 5.0, 64)
    ws = StepWorkspace(FLAT0, g, 0.1)
    f = gaussian_field(g)
    out = half_potential_step(f, ws)
    assert np.max(np.abs(out.values - f.values)) < 1e-15


def test_half_potential_flat_mass_closed_form():
    g = make_grid(1, 5.0, 32)
    ws = StepWorkspace(FLAT1, g, 0.1)
    f = gaussian_field(g)
    out = half_potential_step(f, ws)
    expect = np.stack([np.exp(-0.05j) * f.values[0], np.exp(+0.05j) * f.values[1]])
    assert np.max(np.abs(out.values - expect)) < 1e-14


def test_half_potential_preserves_norm_for_hermitian_potential():
    m = MetricModel("graphene", mass=0.0, a0=0.4, k0=2.0, ell=5.0,
                    ax_pot=ScalarForm("linear", (5.0,)), v_pot=ScalarForm("linear", (5.0,)))
    g = make_grid(1, 10.0, 256)
    ws = StepWorkspace(m, g, 1e-2)
    f = gaussian_field(g, k0=2.0)
    out = half_potential_step(f, ws)
    assert abs(vec_norm(out) - vec_norm(f)) < 1e-12 * vec_norm(f)


# ------------------------------------------------------------ CN operator


def test_cn_apply_zero_dt_is_identity(rng):
    g = make_grid(1, 5.0, 32)
    ws = StepWorkspace(EXP1, g, 0.0)
    f = SpinorField(rng.standard_normal((2, 32)) + 1j * rng.standard_normal((2, 32)), g)
    out = cn_apply_values(f.values, ws, +1)
    assert np.max(np.abs(out - f.values)) < 1e-15


def test_cn_apply_plane_wave_formula():
    g = make_grid(1, np.pi, 64)
    dt = 0.1
    ws = StepWorkspace(FLAT0, g, dt)
    xi = 3.0
    u = np.array([1.0, 0.5 + 0.2j])
    wave = np.exp(1j * xi * g.axes[0])
    f = SpinorField(np.stack([u[0] * wave, u[1] * wave]), g)
    for sign in (+1, -1):
        out = cn_apply_values(f.values, ws, sign)
        expect = (np.eye(2) + sign * 1j * dt * xi / 2 * alpha_matrix(1, 2)) @ u
        assert np.max(np.abs(out - expect[:, None] * wave)) < 1e-13


def test_cn_apply_linear(rng):
    g = make_grid(1, 5.0, 48)
    ws = StepWorkspace(EXP1, g, 3e-3)
    u = SpinorField(rng.standard_normal((2, 48)) + 1j * rng.standard_normal((2, 48)), g)
    v = SpinorField(rng.standard_normal((2, 48)) + 1j * rng.standard_normal((2, 48)), g)
    a, b = 0.3 - 1.1j, 2.0
    lhs = cn_apply_values(a * u.values + b * v.values, ws, +1)
    rhs = a * cn_apply_values(u.values, ws, +1) + b * cn_apply_values(v.values, ws, +1)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_cn_transport_plane_wave_cayley():
    g = make_grid(1, np.pi, 64)
    dt = 0.05
    ws = StepWorkspace(FLAT0, g, dt)
    xi = 4.0
    u = np.array([0.8, -0.1 + 0.4j])
    wave = np.exp(1j * xi * g.axes[0])
    f = SpinorField(np.stack([u[0] * wave, u[1] * wave]), g)
    out = cn_transport_step(f, ws, KrylovOptions(tol=1e-13))
    s1 = alpha_matrix(1, 2)
    cay = np.linalg.solve(np.eye(2) + 1j * dt * xi / 2 * s1,
                          (np.eye(2) - 1j * dt * xi / 2 * s1) @ u)
    assert np.max(np.abs(out.values - cay[:, None] * wave)) < 1e-12
    # Cayley factor has unimodular eigenvalues
    assert abs(vec_norm(out) - vec_norm(f)) < 1e-12 * vec_norm(f)


def test_cn_transport_failure_raises():
    g = make_grid(1, 5.0, 64)
    ws = StepWorkspace(EXP1, g, 0.5)  # large step needs several iterations
    f = gaussian_field(g)
    with pytest.raises(StepFailureError):
        cn_transport_step(f, ws, KrylovOptions(tol=1e-14, restart=2, maxit=2))


def inverse_field(mat):
    """Pointwise inverse of an (S, S, *grid) matrix field."""
    return np.moveaxis(np.linalg.inv(np.moveaxis(mat, (0, 1), (-2, -1))), (-2, -1), (0, 1))


def test_cn_time_reversibility():
    # with frozen potentials, the inverse of the transport is its dt -> -dt
    # version; the backward step applies the inverse pointwise factor
    g = make_grid(1, 5.0, 128)
    fwd = StepWorkspace(EXP1, g, 1e-3)
    bwd = StepWorkspace(EXP1, g, 1e-3)
    bwd.dt = -1e-3
    bwd.half = inverse_field(fwd.half)
    f0 = gaussian_field(g)
    f1 = strang_step(f0, "cn", fwd, KrylovOptions(tol=1e-13))
    f2 = strang_step(f1, "cn", bwd, KrylovOptions(tol=1e-13))
    assert np.max(np.abs(f2.values - f0.values)) < 1e-11


# ------------------------------------------------------------ preconditioned cn


def preset_workspace(name, scale, metric=None, **changes):
    """A preset's config and workspace; ``metric`` holds changes to its model."""
    cfg = preset_config(name, scale).replace(**changes)
    if metric:
        cfg = cfg.replace(metric=dataclasses.replace(cfg.metric, **metric))
    return cfg, StepWorkspace(cfg.metric, cfg.grid(), cfg.dt, cfg.pml)


# exp5 with a ripple that does not fit its box: K = 4 k0 a / ell = 9.76
EXP5_INCOMMENSURATE = {"ell": 10.25}


def _path_id(value):
    # the ids name whether a preconditioner is chosen at all
    return str(value != "plain") if value in ("band", "circulant", "plain") else None


# iterations of the first solve: plain, circulant, band
@pytest.mark.parametrize("name,scale,changes,kind", [
    ("exp5", "ci", {}, "band"),          # K = 10, kappa 7.45, q 0.652: 98, 28, 0
    ("exp1", "paper", {}, "circulant"),  # kappa 1.57, q 0.052: 11, 5
    ("exp2", "paper", {}, "circulant"),  # kappa 1.73, q 0.048: 12, 5
    ("exp4", "ci", {}, "band"),          # K = 16, kappa 1.58, q 0.338: 9, 16, 0
    ("exp4", "paper", {}, "band"),       # K = 16, kappa 3.17, q 0.338: 9, 16, 0
    ("exp6", "ci", {}, "plain"),         # layer; kappa 3.17, q 0.338: 15, 16
    ("exp6", "paper", {}, "plain"),
    ("exp4", "paper", {"dt": 1e-5, "N": (2560,)}, "band"),   # C08: kappa 0.004: 2, 14, 0
    ("exp3", "ci", {}, "plain"),         # 2-D grid
    ("exp5", "ci", {"metric": EXP5_INCOMMENSURATE}, "circulant"),   # kappa 6.31, q 0.602: 79, 26
], ids=_path_id)
def test_preconditioner_selection(name, scale, changes, kind):
    _, ws = preset_workspace(name, scale, **changes)
    assert ws.cayley is None             # nothing is built with the workspace
    pre = cayley_preconditioner(ws)
    assert ("plain" if pre is None else "band" if pre.K else "circulant") == kind


def test_preconditioner_is_built_lazily_and_follows_dt_and_velocity():
    ws = StepWorkspace(FLAT1, make_grid(1, 5.0, 64), 0.1)
    first = cayley_preconditioner(ws)    # flat space: q = 0, so always chosen
    assert first is not None and cayley_preconditioner(ws) is first
    ws.dt = -0.1
    assert cayley_preconditioner(ws) not in (None, first)
    ws.a_eff[0] = np.zeros(64)           # zero velocity: plain GMRES
    assert cayley_preconditioner(ws) is None


def unscaled_residual(f, out, ws):
    b = cn_apply_values(f.values, ws, -1)
    return np.linalg.norm(b - cn_apply_values(out.values, ws, +1)) / np.linalg.norm(b)


def test_preconditioned_step_matches_dense_oracle():
    cfg, ws = preset_workspace("exp5", "ci", metric=EXP5_INCOMMENSURATE)
    f = initial_condition(cfg, ws.grid)
    out = cn_transport_step(f, ws, cfg.krylov)
    assert ws.cayley[2].K == 0
    dense = dense_cn_step(f, ws)
    rel = np.linalg.norm(out.values - dense.values) / np.linalg.norm(dense.values)
    assert rel <= 1e-10
    # the reported residual is the unscaled one of A psi* = (2I - A) psi
    assert ws.last_krylov.residual == pytest.approx(unscaled_residual(f, out, ws), rel=1e-2)
    assert ws.last_krylov.residual <= cfg.krylov.tol


def test_preconditioned_solve_costs_one_fft_pair_per_operator_product(monkeypatch):
    cfg, ws = preset_workspace("exp5", "ci", metric=EXP5_INCOMMENSURATE)
    f = initial_condition(cfg, ws.grid)
    calls = []
    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda *args, **kw: calls.append(1) or fft(*args, **kw))
    cn_transport_step(f, ws, cfg.krylov)
    # the right-hand side, one product per iteration, the initial and the
    # closing residual; psi* = M^-1 y is taken from the closing product
    assert ws.cayley[2].K == 0
    assert 0 < ws.last_krylov.iterations < cfg.krylov.restart
    assert len(calls) == ws.last_krylov.iterations + 3


# exp5 and exp4 at ci scale, and an odd ripple count (K = 15), where the
# band's off-diagonal changes sign: wK = (-1)^K C/4
BAND_CASES = [("exp5", {}), ("exp4", {}), ("exp4", {"k0": 1.875})]


@pytest.mark.parametrize("name,changes", BAND_CASES, ids=["exp5", "exp4", "exp4-odd-K"])
def test_band_step_matches_dense_oracle(name, changes):
    cfg, ws = preset_workspace(name, "ci", metric=changes)
    f = initial_condition(cfg, ws.grid)
    out = cn_transport_step(f, ws, cfg.krylov)
    pre = ws.cayley[2]
    assert pre.K == ws.ripple[0] and np.sign(ws.ripple[2]) == (-1) ** pre.K
    dense = dense_cn_step(f, ws)
    rel = np.linalg.norm(out.values - dense.values) / np.linalg.norm(dense.values)
    assert rel <= 1e-10
    # both residuals sit at round-off, so they are bounded, not compared
    assert ws.last_krylov.residual <= cfg.krylov.tol
    assert unscaled_residual(f, out, ws) <= cfg.krylov.tol


def test_ripple_band_matches_the_sampled_weight():
    # the closed form is the weight's Fourier band: fft(w) / N has modes 0
    # and +-K only, with the signs of (-1)^K
    for name, changes in BAND_CASES:
        cfg, ws = preset_workspace(name, "ci", metric=changes)
        grid = ws.grid
        K, w0, wK = geometry.ripple_band(cfg.metric, grid)
        what = np.fft.fft(1.0 / sample_metric(cfg.metric, grid).velocity[0]) / grid.N[0]
        band = np.zeros(grid.N[0], dtype=complex)
        band[[0, K, -K]] = w0, wK, wK
        assert np.max(np.abs(what - band)) <= 1e-14


@pytest.mark.parametrize("name,changes", [
    ("exp4", {"metric": {"k0": 2.1}}),          # K = 16.8
    ("exp4", {"N": (32,)}),                     # K = 16 = N / 2: not resolved
    # C = 1.0001 >= 1, although max f on the grid is 0.99994
    ("exp4", {"metric": {"a0": 2.5 * np.sqrt(1.0001 / (2 * np.pi ** 2))}}),
    ("exp6", {"a": (5.0,)}),                    # K = 8, but a layer is set
    ("exp1", {}),
], ids=["K-fraction", "K-nyquist", "C-one", "layer", "static"])
def test_no_band_without_a_fitted_ripple(name, changes):
    _, ws = preset_workspace(name, "ci", **changes)
    assert ws.ripple is None


def test_band_solve_costs_two_fft_pairs_and_no_iteration(monkeypatch):
    cfg, ws = preset_workspace("exp5", "ci")
    f = initial_condition(cfg, ws.grid)
    fft = np.fft.fft
    calls = []
    monkeypatch.setattr(np.fft, "fft", lambda *args, **kw: calls.append(1) or fft(*args, **kw))
    for _ in range(3):
        f = cn_transport_step(f, ws, cfg.krylov)
        assert ws.last_krylov.iterations == 0 and ws.last_krylov.converged
    # per solve: the right-hand side's derivative and the one M^-1 product
    assert len(calls) == 3 * 2


def test_band_is_built_lazily_from_the_closed_form(monkeypatch):
    cfg, ws = preset_workspace("exp5", "ci")
    assert ws.cayley is None
    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name,
                            lambda *a, **k: pytest.fail("FFT while the band is built"))
    assert cayley_preconditioner(ws).K == 10


def test_first_band_solve_keeps_linear_storage():
    # exp4 paper: 16 chains of 125 modes.  The factors hold five arrays of
    # about 2N entries, and the first solve peaks at 17 spinor fields, build
    # included.  A dense inverse per chain would hold 2 * 16 * 125^2 entries,
    # 125 spinor fields; plain GMRES's Krylov basis alone holds restart + 1 = 31
    cfg, ws = preset_workspace("exp4", "paper")
    f = half_potential_step(initial_condition(cfg, ws.grid), ws)
    tracemalloc.start()
    try:
        cn_transport_step(f, ws, cfg.krylov)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ws.cayley[2].K == 16
    assert peak < 20 * f.values.nbytes


def test_band_cn_keeps_the_plain_temporal_errors(monkeypatch):
    # test_preconditioned_cn_keeps_the_plain_temporal_errors on graphene:
    # the band path against forced plain GMRES
    cfg = preset_config("exp4", "ci").replace(N=(256,), T=0.1)
    dts = [4e-3, 2e-3, 1e-3, 5e-4]
    band = [e for _, e in convergence_sweep(cfg, "dt", dts, refine=4)]
    monkeypatch.setattr(propagators, "cayley_preconditioner", lambda ws: None)
    plain = [e for _, e in convergence_sweep(cfg, "dt", dts, refine=4)]
    assert 1.95 <= loglog_slope(dts, band) <= 2.05
    assert np.allclose(band, plain, rtol=1e-2, atol=0)


# ------------------------------------------------------------ poly steps


def test_poly_axis_identity_branch_when_velocity_zero():
    g = make_grid(1, 5.0, 64)
    ws = StepWorkspace(FLAT0, g, 0.3)
    ws.a_eff[0] = np.zeros(64)  # force the a = 0 branch of the blend
    f = gaussian_field(g)
    for step in (poly_axis_step, poly_axis_step2):
        out = step(f, 0, ws)
        assert np.max(np.abs(out.values - f.values)) < 1e-14


def alpha_eigenbasis(i, S):
    """(Lam, Pi) with alpha^i = Pi diag(Lam) Pi^dagger, from a dense
    eigensolver rather than the sweep's closed form."""
    return np.linalg.eigh(alpha_matrix(i, S))


def test_poly_axis_unit_velocity_is_exact_shift():
    g = make_grid(1, 8.0, 256)
    dt = 0.125
    ws = StepWorkspace(FLAT0, g, dt)
    x = g.axes[0]
    lam, Pi = alpha_eigenbasis(1, 2)
    up, down = np.argmax(lam), np.argmin(lam)
    gauss = np.exp(-x ** 2 / 2)
    plus = SpinorField(np.stack([Pi[0, up] * gauss, Pi[1, up] * gauss]), g)
    out = poly_axis_step(plus, 0, ws)
    phi = np.einsum("ba,b...->a...", Pi.conj(), out.values)
    assert np.max(np.abs(phi[up] - np.exp(-((x - dt) ** 2) / 2))) < 1e-10
    assert np.max(np.abs(phi[down])) < 1e-13


@pytest.mark.parametrize("S", [2, 4])
@pytest.mark.parametrize("second_order", [False, True], ids=["poly1", "poly2"])
def test_poly_sweep_matches_the_eigenbasis_formula(rng, S, second_order):
    # Xi = Pi F^-1[exp(-i dt Lam xi) F Pi^dagger psi], blended with a
    m = MetricModel("static2d", spinor_dim=S, mass=1.0, phi=ScalarForm("gauss", (1.0, 0.5)),
                    psi=ScalarForm("gauss", (1.0, 0.3)))
    g = make_grid(2, (3.0, 2.0), (16, 12))
    ws = StepWorkspace(m, g, 0.05)
    shape = (S,) + g.shape
    f = SpinorField(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), g)
    step = poly_axis_step2 if second_order else poly_axis_step
    for axis in range(2):
        lam, Pi = alpha_eigenbasis(axis + 1, S)
        phi = np.fft.fft(np.einsum("ba,b...->a...", Pi.conj(), f.values), axis=1 + axis)
        phase = np.exp(-1j * ws.dt * np.outer(lam, g.freqs[axis]))
        phase = phase.reshape((S,) + tuple(g.N[axis] if i == axis else 1 for i in range(2)))
        xi = np.einsum("ab,b...->a...", Pi, np.fft.ifft(phase * phi, axis=1 + axis))
        a = ws.a_eff[axis]
        ref = a * xi + (1 - a) * f.values
        if second_order:
            ref += ws.dt ** 2 * a * derivative_values(xi, axis, ws.d2_mult[axis])
        out = step(f, axis, ws)
        assert np.linalg.norm(out.values - ref) <= 1e-13 * np.linalg.norm(ref)


def test_poly_axis_norm_nonexpansive_for_unit_bounded_velocity():
    g = make_grid(1, 5.0, 256)
    ws = StepWorkspace(WELL, g, 5e-4)
    f = gaussian_field(g)
    out = poly_axis_step(f, 0, ws)
    assert vec_norm(out) <= vec_norm(f) * (1 + 1e-12)


def test_poly2_small_dt_limit(rng):
    g = make_grid(1, 5.0, 128)
    f = gaussian_field(g, k0=2.0)
    errs = []
    for dt in (1e-3, 5e-4):
        ws = StepWorkspace(WELL, g, dt)
        out = poly_axis_step2(f, 0, ws)
        errs.append(np.max(np.abs(out.values - f.values)))
    assert errs[1] < 0.7 * errs[0]  # output -> psi as dt -> 0


@pytest.mark.parametrize("stepper", [poly_axis_step, poly_axis_step2])
def test_poly_single_step_richardson_order_two(stepper):
    """Against exact constant-velocity transport both directional steps are
    locally second order (Richardson halving ratio ~ 4)."""
    aconst = 0.7
    m = MetricModel("static1d", phi=ScalarForm("const", (float(np.log(aconst)),)),
                    psi=ScalarForm("zero"))
    g = make_grid(1, np.pi, 128)
    x = g.axes[0]
    f = SpinorField(np.stack([np.exp(np.cos(x)) * np.exp(1j * np.sin(2 * x)),
                              0.3 * np.exp(np.sin(x) + 1j * x)]), g)
    lam, Pi = alpha_eigenbasis(1, 2)

    def exact(dt):
        phi = np.einsum("ba,b...->a...", Pi.conj(), f.values)
        ph = np.exp(-1j * aconst * dt * np.outer(lam, g.freqs[0]))
        out = np.fft.ifft(ph * np.fft.fft(phi, axis=1), axis=1)
        return np.einsum("ab,b...->a...", Pi, out)

    errs = []
    for dt in (0.02, 0.01, 0.005):
        ws = StepWorkspace(m, g, dt)
        out = stepper(f, 0, ws)
        errs.append(np.linalg.norm(out.values - exact(dt)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 1.7
    assert max(orders) < 2.6


def test_poly2_explicit_correction_has_cfl_restriction():
    # dt * xi_max > sqrt(2) amplifies the highest modes, so RunConfig rejects
    # it; below it stays bounded
    ximax = 256 / 2 * np.pi / 5.0
    cfg_ok = RunConfig(d=1, a=5.0, N=256, metric=WELL, scheme="poly2", dt=0.01, T=1.0,
                       ic_kind="gaussian_wavepacket", ic_k0=3.0)
    assert cfg_ok.dt * ximax < np.sqrt(2)
    dt = 0.02
    assert dt * ximax > np.sqrt(2)
    with pytest.raises(ConfigurationError, match="sqrt") as err:
        cfg_ok.replace(dt=dt, T=2.0)
    assert err.value.field == "dt"
    # the workspace itself still steps at that dt: 100 steps grow the field
    grid = cfg_ok.grid()
    ws = StepWorkspace(WELL, grid, dt)
    f0 = initial_condition(cfg_ok, grid)
    f = f0
    for _ in range(100):
        f = strang_step(f, "poly2", ws)
    assert vec_norm(f) > 1e3 * vec_norm(f0)
    res = run_simulation(cfg_ok)
    assert res.diagnostics[-1].l2 <= 1.001 * res.diagnostics[0].l2


# ------------------------------------------------------------ strang steps


def test_strang_identity_for_zero_hamiltonian():
    g = make_grid(1, 5.0, 64)
    ws = StepWorkspace(FLAT0, g, 0.7)
    for i in range(g.d):
        ws.a_eff[i] = np.zeros(g.N[0])  # zero velocity: H vanishes entirely
    f = gaussian_field(g)
    for scheme in ("cn", "poly1", "poly2"):
        out = strang_step(f, scheme, ws, KrylovOptions())
        assert np.max(np.abs(out.values - f.values)) < 1e-12


def local_half_oracle(model, grid, dt):
    """exp(-dt/2 (i M + sum_i a c^i alpha^i)) node by node with `expm_small`."""
    S = model.spinor_dim
    sample = sample_metric(model, grid)

    def field(mat, x):
        return mat[..., None] * np.ravel(np.broadcast_to(x, grid.shape))

    gen = 1j * (field(beta_matrix(S), sample.G) + field(np.eye(S), sample.scalar))
    for i, g in enumerate(sample.Gvec):
        if np.any(g):
            gen = gen + 1j * field(alpha_matrix(i + 1, S), g)
    for i, (v, c) in enumerate(zip(sample.velocity, sample.connection or ())):
        gen = gen + field(alpha_matrix(i + 1, S), v * c)
    out = np.stack([expm_small(-0.5 * dt * gen[..., k]) for k in range(gen.shape[-1])], axis=-1)
    return out.reshape((S, S) + grid.shape)


STATIC_MODELS = {
    "static1d": (MetricModel("static1d", mass=1.0, phi=ScalarForm("gauss", (1.0, 5e-3)),
                             psi=ScalarForm("gauss", (1.0, 1e-2))), (5.0,), (48,)),
    "static2d": (MetricModel("static2d", mass=1.0, phi=ScalarForm("gauss", (1.0, 1e-2)),
                             psi=ScalarForm("gauss", (1.0, 5e-3))), (5.0, 5.0), (16, 12)),
}


@pytest.mark.parametrize("S", [2, 4])
@pytest.mark.parametrize("kind", STATIC_MODELS)
def test_local_factor_matches_the_dense_exponential(kind, S):
    model, a, N = STATIC_MODELS[kind]
    model = dataclasses.replace(model, spinor_dim=S)
    grid = make_grid(len(N), a, N)
    for dt in (1e-3, 0.3):
        ws = StepWorkspace(model, grid, dt)
        assert np.max(np.abs(ws.half - local_half_oracle(model, grid, dt))) < 1e-13


def oracle_strang_step(f, scheme, ws, model, krylov):
    """L T L with the local factor L built node by node by `local_half_oracle`."""
    L = local_half_oracle(model, ws.grid, ws.dt)
    # the connection is on: L is not unitary
    LLh = np.einsum("ab...,cb...->ac...", L, L.conj())
    assert np.max(np.abs(LLh - np.eye(ws.S).reshape((ws.S, ws.S) + (1,) * ws.grid.d))) > 1e-6

    def apply(field):
        return SpinorField(np.einsum("ab...,b...->a...", L, field.values), ws.grid)

    f = apply(f)
    if scheme == "cn":
        f = cn_transport_step(f, ws, krylov)
    else:
        for axis in range(ws.grid.d):
            f = (poly_axis_step if scheme == "poly1" else poly_axis_step2)(f, axis, ws)
    return apply(f)


@pytest.mark.parametrize("name,scheme", [("exp3", "poly1"), ("exp3", "poly2"), ("exp1", "cn")])
def test_fused_step_matches_the_unfused_stages(name, scheme):
    cfg, ws = preset_workspace(name, "ci")
    f = initial_condition(cfg, ws.grid)
    ref = oracle_strang_step(f, scheme, ws, cfg.metric, cfg.krylov)
    out = strang_step(f, scheme, ws, cfg.krylov)
    assert np.linalg.norm(out.values - ref.values) <= 1e-13 * np.linalg.norm(ref.values)


def exp3_matrix_field_bytes():
    """exp3 at 256^2, and the bytes of one of its (S, S, *grid) matrix fields."""
    cfg = preset_config("exp3", "ci").replace(N=(256, 256))
    S = cfg.metric.spinor_dim
    return cfg, S * S * int(np.prod(cfg.N)) * np.dtype(np.complex128).itemsize


def test_workspace_build_is_lean(monkeypatch):
    # exp3 at 256^2: the build peaks at 3.0 matrix fields (S, S, *grid); no
    # FFT runs while it builds
    cfg, field_bytes = exp3_matrix_field_bytes()
    grid = cfg.grid()
    S = cfg.metric.spinor_dim
    for name in ("fft", "ifft", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, lambda *a, **k: pytest.fail("FFT during the build"))
    tracemalloc.start()
    try:
        ws = StepWorkspace(cfg.metric, grid, cfg.dt, cfg.pml)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ws.half.shape == (S, S) + grid.shape
    assert peak < 5.5 * field_bytes


def test_workspace_keeps_one_matrix_field():
    # exp3 at 256^2: the built workspace holds 1.13 matrix fields, the one
    # pointwise factor and the velocity
    cfg, field_bytes = exp3_matrix_field_bytes()
    tracemalloc.start()
    try:
        ws = StepWorkspace(cfg.metric, cfg.grid(), cfg.dt, cfg.pml)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ws.half.shape[:2] == (2, 2)
    assert kept <= 1.5 * field_bytes


# ------------------------------------------------------------ buffered explicit step


@pytest.mark.parametrize("scheme", ["poly1", "poly2"])
def test_returned_fields_never_alias_the_scratch(scheme):
    cfg, ws = preset_workspace("exp3", "ci")
    f = initial_condition(cfg, ws.grid)
    first = strang_step(f, scheme, ws)
    second = strang_step(first, scheme, ws)
    kept = first.values.copy(), second.values.copy()
    third = strang_step(second, scheme, ws)
    assert np.array_equal(first.values, kept[0]) and np.array_equal(second.values, kept[1])
    # one scratch field, and poly2's correction one more
    assert len(ws.fields) == (1 if scheme == "poly1" else 2)
    for out in (first, second, third):
        assert not any(np.shares_memory(out.values, buf) for buf in ws.fields.values())


@pytest.mark.parametrize("scheme", ["poly1", "poly2"])
def test_explicit_step_allocates_only_its_result(scheme):
    # exp3 at 256^2: after one warm-up step a step allocates its result (1
    # spinor field); the unbuffered step peaked at 4.06 (poly1) and 6.0 (poly2)
    cfg = preset_config("exp3", "ci").replace(N=(256, 256))
    grid = cfg.grid()
    ws = StepWorkspace(cfg.metric, grid, cfg.dt, cfg.pml)
    f = strang_step(initial_condition(cfg, grid), scheme, ws)
    tracemalloc.start()
    try:
        strang_step(f, scheme, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * f.values.nbytes


@pytest.mark.parametrize("scheme", ["poly1", "poly2"])
def test_step_follows_a_replaced_dt_and_velocity(scheme):
    # the cached sweep factors are rebuilt when ws.dt or ws.a_eff is replaced
    cfg, ws = preset_workspace("exp3", "ci")
    f = initial_condition(cfg, ws.grid)
    step = poly_axis_step if scheme == "poly1" else poly_axis_step2
    strang_step(f, scheme, ws)
    ws.dt = 0.5 * cfg.dt
    fresh = StepWorkspace(cfg.metric, ws.grid, ws.dt)
    for axis in range(2):
        assert np.array_equal(step(f, axis, ws).values, step(f, axis, fresh).values)
    # the pointwise factor is built for one dt: compare the whole step at cfg.dt
    ws.dt = cfg.dt
    fresh = StepWorkspace(cfg.metric, ws.grid, ws.dt)
    for w in (ws, fresh):
        w.a_eff[0] = 1.5 * w.a_eff[0]   # max a 1.5: poly1 shifts by dt ahat xi
    assert np.array_equal(strang_step(f, scheme, ws).values, strang_step(f, scheme, fresh).values)


@pytest.mark.parametrize("scheme,pairs", [("poly1", 2), ("poly2", 4)])
def test_two_dimensional_explicit_step_fft_pairs(monkeypatch, scheme, pairs):
    # one pair per axis, and poly2's dt^2 correction one more
    cfg, ws = preset_workspace("exp3", "ci")
    f = initial_condition(cfg, ws.grid)
    strang_step(f, scheme, ws)
    calls = collections.Counter()
    for name in ("fft", "ifft"):
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name,
                            lambda *a, _n=name, _fn=fn, **k: calls.update([_n]) or _fn(*a, **k))
    strang_step(f, scheme, ws)
    assert calls == {"fft": pairs, "ifft": pairs}


@pytest.mark.parametrize("name", ["exp3", "exp5"])
def test_workspace_build_samples_the_metric_once(monkeypatch, name):
    # each closed form's value and gradient, and the graphene strain, are
    # evaluated at most once per build
    calls = collections.Counter()

    def counted(key, fn):
        def wrapper(*args):
            calls[key(*args)] += 1
            return fn(*args)
        return wrapper

    for method in ("value", "grad"):
        original = getattr(ScalarForm, method)
        monkeypatch.setattr(ScalarForm, method,
                            counted(lambda form, *x, m=method: (str(form), m), original))
    monkeypatch.setattr(geometry, "graphene_f", counted(lambda *a: "strain", geometry.graphene_f))
    cfg = preset_config(name, "ci")
    StepWorkspace(cfg.metric, cfg.grid(), cfg.dt, cfg.pml)
    if name == "exp3":
        phi, psi = str(cfg.metric.phi), str(cfg.metric.psi)
        assert {(phi, "value"), (phi, "grad"), (psi, "value")} <= set(calls)
    else:
        assert calls["strain"] == 1
    assert max(calls.values()) == 1, dict(calls)


def test_unknown_scheme_and_nonpositive_dt_rejected():
    g = make_grid(1, 5.0, 64)
    with pytest.raises(ConfigurationError, match="scheme"):
        strang_step(gaussian_field(g), "poly3", StepWorkspace(FLAT1, g, 1e-3))
    cfg = RunConfig(d=1, a=5.0, N=64, metric=FLAT1, scheme="cn", dt=1e-3, T=0.01)
    with pytest.raises(ConfigurationError, match="scheme"):
        cfg.replace(scheme="poly3")
    with pytest.raises(ConfigurationError, match="dt"):
        cfg.replace(dt=0.0)


@pytest.mark.parametrize("scheme,tol", [("cn", 3e-6), ("poly1", 3e-6), ("poly2", 2e-2)])
def test_strang_flat_dispersion(scheme, tol):
    # plane-wave eigenspinor picks up exactly exp(-i E t), E = sqrt(xi^2 + m^2)
    g = make_grid(1, np.pi, 64)
    dt, steps = 1e-3, 200
    ws = StepWorkspace(FLAT1, g, dt)
    xi, m = 5.0, 1.0
    E = np.sqrt(xi ** 2 + m ** 2)
    u = np.array([E + m, xi], dtype=complex)
    u /= np.linalg.norm(u)
    wave = np.exp(1j * xi * g.axes[0])
    f0 = SpinorField(np.stack([u[0] * wave, u[1] * wave]), g)
    f = f0
    for _ in range(steps):
        f = strang_step(f, scheme, ws, KrylovOptions(tol=1e-12))
    expect = f0.values * np.exp(-1j * E * dt * steps)
    assert np.max(np.abs(f.values - expect)) < tol


def test_strang_flat_matches_exact_evolution_oracle():
    g = make_grid(1, 6.0, 192)
    dt, steps = 5e-4, 100
    ws = StepWorkspace(FLAT1, g, dt)
    f = gaussian_field(g, k0=3.0)
    ref = flat_exact_evolution(f, 1.0, dt * steps)
    out = f
    for _ in range(steps):
        out = strang_step(out, "cn", ws, KrylovOptions(tol=1e-12))
    assert np.max(np.abs(out.values - ref.values)) < 1e-6


def test_flat_cn_norm_preserved_over_many_steps():
    cfg = RunConfig(d=1, a=5.0, N=256, metric=FLAT1, scheme="cn", dt=5e-4, T=0.25,
                    ic_kind="gaussian_wavepacket", ic_k0=5.0)
    res = run_simulation(cfg)
    l2 = np.array([r.l2 for r in res.diagnostics])
    assert np.max(np.abs(l2 - l2[0])) / l2[0] < 500 * 1e-10


def test_poly1_norm_monotone_on_unit_bounded_metric():
    cfg = RunConfig(d=1, a=5.0, N=256, metric=WELL, scheme="poly1", dt=5e-4, T=0.25,
                    ic_kind="gaussian_wavepacket", ic_k0=5.0)
    res = run_simulation(cfg)
    l2 = np.array([r.l2 for r in res.diagnostics])
    assert np.all(l2[1:] <= l2[:-1] * (1 + 1e-12))


def test_poly1_literal_bump_metric_grows_but_stays_bounded():
    """On the shipped 1-D bump metric the velocity exceeds 1 and the exact flow
    itself inflates the plain l2 norm of an outgoing packet, so the explicit
    scheme tracks that growth; stability here means bounded, not monotone."""
    cfg = RunConfig(d=1, a=5.0, N=256, metric=EXP1, scheme="poly1", dt=5e-4, T=0.5,
                    ic_kind="gaussian_wavepacket", ic_k0=5.0)
    res = run_simulation(cfg)
    l2 = np.array([r.l2 for r in res.diagnostics])
    ratios = l2[1:] / l2[:-1]
    assert np.max(ratios) > 1 + 1e-9          # genuinely not monotone
    assert np.max(l2) / l2[0] < 1.01          # but bounded (Lax stability)


@pytest.mark.parametrize("name", ["exp4", "exp5"])
def test_poly1_stays_bounded_where_the_velocity_exceeds_one(name):
    # max a is 2.02 (exp4) and 4.75 (exp5): blending with a itself grew
    # l2_gamma 1.7e32x and 5.8e55x over the ci run; shifting by dt ahat xi
    # and blending with a / ahat leaves it at 0.88x and 0.48x
    cfg = preset_config(name, "ci").replace(scheme="poly1")
    res = run_simulation(cfg)
    gamma = np.array([r.l2_gamma for r in res.diagnostics])
    assert np.max(np.abs(StepWorkspace(cfg.metric, cfg.grid(), cfg.dt).a_eff[0])) > 2
    assert np.all(np.isfinite(gamma))
    assert np.max(gamma) <= gamma[0] * (1 + 1e-12)
    assert gamma[-1] < gamma[0]


@pytest.mark.parametrize("scheme,lo,hi", [("cn", 1.8, 2.3), ("poly1", 0.85, 1.4), ("poly2", 0.85, 1.4)])
def test_temporal_orders(scheme, lo, hi):
    cfg = RunConfig(d=1, a=5.0, N=256, metric=WELL, scheme=scheme, dt=1e-3, T=0.1,
                    ic_kind="gaussian_wavepacket", ic_k0=3.0)
    rows = convergence_sweep(cfg, "dt", [4e-3, 2e-3, 1e-3, 5e-4], refine=4)
    slope = loglog_slope([p for p, _ in rows], [e for _, e in rows])
    assert lo <= slope <= hi


def test_preconditioned_cn_keeps_the_plain_temporal_errors(monkeypatch):
    # test_temporal_orders' cn case forced onto the circulant path (its
    # kappa / q is 2.7, so the rule picks plain GMRES there).  Stopping the
    # Arnoldi estimate at the tolerance itself drops the slope to 1.76.
    cfg = RunConfig(d=1, a=5.0, N=256, metric=WELL, scheme="cn", dt=1e-3, T=0.1,
                    ic_kind="gaussian_wavepacket", ic_k0=3.0)
    dts = [4e-3, 2e-3, 1e-3, 5e-4]
    plain = [e for _, e in convergence_sweep(cfg, "dt", dts, refine=4)]
    monkeypatch.setattr(propagators, "PRECONDITION_RATIO", 0.0)
    pre = [e for _, e in convergence_sweep(cfg, "dt", dts, refine=4)]
    assert 1.95 <= loglog_slope(dts, pre) <= 2.05
    assert np.allclose(pre, plain, rtol=1e-2, atol=0)


def test_spatial_error_decays_spectrally():
    # fixed tiny dt, increasing N: the error against the analytic flat solution
    # collapses much faster than any low-order power until the temporal floor
    dt, steps = 2e-4, 125
    errs = []
    for N in (24, 32, 48):
        g = make_grid(1, 6.0, N)
        ws = StepWorkspace(FLAT1, g, dt)
        f = gaussian_field(g, k0=2.0)
        ref = flat_exact_evolution(f, 1.0, dt * steps)
        out = f
        for _ in range(steps):
            out = strang_step(out, "cn", ws, KrylovOptions(tol=1e-12))
        errs.append(np.max(np.abs(out.values - ref.values)))
    assert errs[1] < errs[0] / 30
    assert errs[2] < 1e-6
    # far beyond the algebraic rate (48/24)^4 = 16 would allow
    assert errs[0] / errs[2] > 1e3


def test_strang_exp1_matches_fine_self_reference():
    # 1000 implicit steps at dt = 5e-4 against the doubly refined trajectory
    from curvedirac.harness import preset_config, restrict_to_coarse

    cfg = preset_config("exp1", "ci")
    res = run_simulation(cfg)
    assert res.diagnostics[-1].step == 1000
    ref = run_simulation(cfg.replace(N=tuple(2 * n for n in cfg.N), dt=cfg.dt / 2 ** 2))
    diff = res.final.values - restrict_to_coarse(ref.final, res.final.grid).values
    rel = np.linalg.norm(diff) / np.linalg.norm(res.final.values)
    assert rel < 0.02


def test_two_dimensional_step_s2_and_s4(rng):
    m2 = MetricModel("static2d", mass=1.0, phi=ScalarForm("gauss", (1.0, 1e-2)),
                     psi=ScalarForm("gauss", (1.0, 5e-3)))
    m4 = MetricModel("static2d", spinor_dim=4, mass=1.0,
                     phi=ScalarForm("gauss", (1.0, 1e-2)),
                     psi=ScalarForm("gauss", (1.0, 5e-3)))
    g = make_grid(2, (5.0, 5.0), (32, 32))
    X, Y = g.meshes()
    blob = np.exp(-(X ** 2 + Y ** 2) / 2 + 1j * (2 * X + 2 * Y))
    for m in (m2, m4):
        S = m.spinor_dim
        v = np.zeros((S, 32, 32), dtype=np.complex128)
        v[0] = blob
        f = SpinorField(v, g)
        ws = StepWorkspace(m, g, 1e-3)
        for scheme in ("cn", "poly1"):
            out = strang_step(f, scheme, ws, KrylovOptions())
            assert out.is_finite()
            assert abs(vec_norm(out) - vec_norm(f)) < 0.01 * vec_norm(f)


@pytest.mark.parametrize("scheme,tol", [("cn", 2e-7), ("poly1", 5e-4)])
def test_two_dimensional_flat_matches_analytic_oracle(scheme, tol):
    # CN carries only the order-2 Strang error; the directional sweep adds the
    # first-order cost of splitting the two non-commuting axis transports
    g = make_grid(2, (6.0, 6.0), (48, 48))
    X, Y = g.meshes()
    v = np.zeros((2, 48, 48), dtype=complex)
    v[0] = np.exp(-(X ** 2 + Y ** 2) / 2 + 1j * (2 * X + Y))
    f0 = SpinorField(v, g)
    dt, steps = 5e-4, 100
    ref = flat_exact_evolution(f0, 1.0, dt * steps)
    ws = StepWorkspace(FLAT1, g, dt)
    out = f0
    for _ in range(steps):
        out = strang_step(out, scheme, ws, KrylovOptions(tol=1e-12))
    assert np.max(np.abs(out.values - ref.values)) < tol


def test_exp2_oscillatory_metric_conserves_weighted_norm():
    from curvedirac.harness import preset_config

    res = run_simulation(preset_config("exp2", "ci").replace(T=0.1))
    l2g = np.array([r.l2_gamma for r in res.diagnostics])
    assert np.max(np.abs(l2g - l2g[0])) / l2g[0] < 1e-8


def test_half_potential_exponential_unitary():
    g = make_grid(1, 10.0, 128)
    m = MetricModel("graphene", a0=0.4, k0=2.0, ell=5.0,
                    ax_pot=ScalarForm("linear", (5.0,)), v_pot=ScalarForm("linear", (5.0,)))
    ws = StepWorkspace(m, g, 1e-2)
    E = ws.half   # graphene has no spin connection: the bare half potential
    prod = np.einsum("ab...,cb...->ac...", E, E.conj())
    eye = np.eye(2)[:, :, None]
    assert np.max(np.abs(prod - eye)) < 1e-12
