import ast
import collections
import dataclasses
import gc
import inspect
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import dense_factor, expm_small, flat_exact_evolution, loglog_slope

from curvedirac import geometry, propagators
from curvedirac.errors import ConfigurationError, GeometryError, StepFailureError
from curvedirac.geometry import MetricModel, ScalarForm, sample_metric
from curvedirac.grid_spectral import SLAB, SpinorField, chunk_lines, make_grid, spectral_derivative
from curvedirac.harness import RunConfig, convergence_sweep, initial_condition, preset_config, run_simulation
from curvedirac.krylov import KrylovOptions, KrylovReport, gmres
from curvedirac.oracle import dense_cn_step
from curvedirac.pml import PmlConfig
from curvedirac.propagators import (
    StepWorkspace,
    _alpha_symbol,
    _cn_term,
    _spin_matmul,
    cayley_preconditioner,
    cn_apply_values,
    cn_transport_step,
    half_potential_step,
    poly_axis_step,
    strang_step,
)
from curvedirac.spinor_algebra import alpha_matrix, beta_matrix

FLAT0 = MetricModel("flat", mass=0.0)
FLAT1 = MetricModel("flat", mass=1.0)
EXP1 = preset_config("exp1").metric
EXP3 = preset_config("exp3").metric
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

    def over_grid(*lead):
        # a field, or one value over the grid as a zero-stride view
        if field:
            return crand(*lead, *grid_shape)
        return np.broadcast_to(crand(*lead).reshape(lead + (1,) * len(grid_shape)),
                               lead + grid_shape)

    values = crand(S, *grid_shape)
    if strided:
        # a non-contiguous view: every other node of a doubled last axis
        big = crand(S, *grid_shape[:-1], 2 * grid_shape[-1])
        values = big[..., ::2]
        assert not values.flags.c_contiguous
    # diagonal planes alone, and with an alpha^1 coupling
    for factor in ((over_grid(S), None), (over_grid(S), over_grid())):
        ref = np.einsum("ab...,b...->a...", dense_factor(factor, S), values)
        out = _spin_matmul(factor, values)
        assert out.shape == values.shape
        assert np.allclose(out, ref, rtol=0, atol=1e-13)
        # in place, in a view laid out like ``values``: the same bits
        inplace = np.zeros_like(big)[..., ::2] if strided else np.empty_like(values)
        inplace[...] = values
        assert _spin_matmul(factor, inplace, out=inplace) is inplace
        assert np.array_equal(inplace, out)


@pytest.mark.parametrize("S", [2, 4])
def test_alpha_symbol_matches_the_dense_symbol(rng, S):
    # p I + q alpha^i at every wavenumber, for every alpha^i of the spinor
    # size (alpha^3 too at S = 4), with p absent (0), a scalar and an array
    N = 7

    def crand(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    spec0 = crand(S, 3, N)
    alphas = [alpha_matrix(i, S) for i in range(1, 4 if S == 4 else 3)]
    for alpha in alphas:
        for p, q in ((None, crand(N)), (0.3 - 0.2j, 1.5j), (crand(N), crand(N))):
            spec = spec0.copy()
            _alpha_symbol(alpha, p, q)(spec, np.empty((2, 3, N), dtype=np.complex128))
            dense = np.multiply.outer(np.broadcast_to(q, N), alpha)
            dense += np.multiply.outer(np.broadcast_to(0.0 if p is None else p, N), np.eye(S))
            ref = np.einsum("kab,blk->alk", dense, spec0)
            assert np.allclose(spec, ref, rtol=0, atol=1e-14)


def test_propagators_make_no_direct_fft_call():
    # every transform of a step goes through grid_spectral.spectral_apply
    tree = ast.parse(inspect.getsource(propagators))
    names = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    assert not [n for n in names if n.startswith(("np.fft", "numpy.fft"))]
    imported = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "numpy.fft" not in imported


@pytest.mark.parametrize("name,K", [("exp5", 10), ("exp1", 0)], ids=["band", "circulant"])
def test_band_preconditioner_is_freed_by_reference_counting(rng, name, K):
    # the preconditioner holds no reference to itself, so dropping the last
    # reference frees it without the cycle collector
    cfg, ws = preset_workspace(name, "ci")
    pre = propagators._band_preconditioner(ws)
    assert pre.K == K
    pre.solve(rng.standard_normal((2,) + ws.grid.shape) + 0j)
    ref = weakref.ref(pre)
    gc.disable()
    try:
        del pre
        assert ref() is None
    finally:
        gc.enable()


# ------------------------------------------------------------ half potential


def test_half_potential_identity_when_massless_free():
    g = make_grid(1, 5.0, 64)
    ws = StepWorkspace(FLAT0, g, 0.1)
    f = gaussian_field(g)
    out = half_potential_step(f, ws, "lead")
    assert np.max(np.abs(out.values - f.values)) < 1e-15


def test_half_potential_flat_mass_closed_form():
    g = make_grid(1, 5.0, 32)
    ws = StepWorkspace(FLAT1, g, 0.1)
    f = gaussian_field(g)
    out = half_potential_step(f, ws, "lead")
    expect = np.stack([np.exp(-0.05j) * f.values[0], np.exp(+0.05j) * f.values[1]])
    assert np.max(np.abs(out.values - expect)) < 1e-14
    # no connection: one factor on both sides
    assert ws.lead is ws.trail
    assert np.array_equal(half_potential_step(f, ws, "trail").values, out.values)
    with pytest.raises(ValueError, match="side"):
        half_potential_step(f, ws, "half")


def test_half_potential_preserves_norm_for_hermitian_potential():
    m = MetricModel("graphene", mass=0.0, a0=0.4, k0=2.0, ell=5.0,
                    ax_pot=ScalarForm("linear", (5.0,)), v_pot=ScalarForm("linear", (5.0,)))
    g = make_grid(1, 10.0, 256)
    ws = StepWorkspace(m, g, 1e-2)
    f = gaussian_field(g, k0=2.0)
    out = half_potential_step(f, ws, "lead")
    assert abs(vec_norm(out) - vec_norm(f)) < 1e-12 * vec_norm(f)


# ------------------------------------------------------------ CN operator


def test_cn_apply_zero_dt_is_identity(rng):
    g = make_grid(1, 5.0, 32)
    ws = StepWorkspace(EXP1, g, 0.0)
    f = SpinorField(rng.standard_normal((2, 32)) + 1j * rng.standard_normal((2, 32)), g)
    out = cn_apply_values(f.values, ws)
    assert np.max(np.abs(out - f.values)) < 1e-15


def test_cn_apply_plane_wave_formula():
    g = make_grid(1, np.pi, 64)
    dt = 0.1
    ws = StepWorkspace(FLAT0, g, dt)
    xi = 3.0
    u = np.array([1.0, 0.5 + 0.2j])
    wave = np.exp(1j * xi * g.axes[0])
    f = SpinorField(np.stack([u[0] * wave, u[1] * wave]), g)
    plus = cn_apply_values(f.values, ws)
    # (I - E) psi = 2 psi - (I + E) psi
    for sign, out in ((+1, plus), (-1, 2.0 * f.values - plus)):
        expect = (np.eye(2) + sign * 1j * dt * xi / 2 * alpha_matrix(1, 2)) @ u
        assert np.max(np.abs(out - expect[:, None] * wave)) < 1e-13


def test_cn_apply_linear(rng):
    g = make_grid(1, 5.0, 48)
    ws = StepWorkspace(EXP1, g, 3e-3)
    u = SpinorField(rng.standard_normal((2, 48)) + 1j * rng.standard_normal((2, 48)), g)
    v = SpinorField(rng.standard_normal((2, 48)) + 1j * rng.standard_normal((2, 48)), g)
    a, b = 0.3 - 1.1j, 2.0
    lhs = cn_apply_values(a * u.values + b * v.values, ws)
    rhs = a * cn_apply_values(u.values, ws) + b * cn_apply_values(v.values, ws)
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


def test_cn_time_reversibility():
    # with frozen potentials, the inverse of the step is its dt -> -dt
    # version: the Cayley transport and the pointwise factor both invert
    g = make_grid(1, 5.0, 128)
    fwd = StepWorkspace(EXP1, g, 1e-3)
    bwd = StepWorkspace(EXP1, g, -1e-3)
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
    ("exp5", "ci", {}, "band"),          # K = 10: 97, 18, 0
    ("exp1", "paper", {}, "circulant"),  # 10, 1
    ("exp2", "paper", {}, "circulant"),  # 11, 1
    ("exp4", "ci", {}, "band"),          # K = 16: 8, 5, 0
    ("exp4", "paper", {}, "band"),       # K = 16: 8, 5, 0
    ("exp6", "ci", {}, "circulant"),     # layer: 14, 5
    ("exp6", "paper", {}, "circulant"),  # layer: 14, 5
    ("exp4", "paper", {"dt": 1e-5, "N": (2560,)}, "band"),   # C08: 1, 0, 0
    ("exp3", "ci", {}, "plain"),         # 2-D grid
    ("exp5", "ci", {"metric": EXP5_INCOMMENSURATE}, "circulant"),   # 79, 15
], ids=_path_id)
def test_preconditioner_selection(name, scale, changes, kind):
    _, ws = preset_workspace(name, scale, **changes)
    assert not ws.built                  # nothing is built with the workspace
    pre = cayley_preconditioner(ws)
    assert ("plain" if pre is None else "band" if pre.K else "circulant") == kind


def test_preconditioner_is_built_once_at_first_use():
    g = make_grid(1, 5.0, 64)
    ws = StepWorkspace(FLAT1, g, 0.1)
    assert not ws.built
    f = gaussian_field(g)
    f1 = strang_step(f, "cn", ws)
    first = cayley_preconditioner(ws)    # flat space: the circulant
    assert first is not None and first.K == 0
    strang_step(f1, "cn", ws)
    assert cayley_preconditioner(ws) is first
    zero = StepWorkspace(FLAT1, g, 0.1)
    zero.a_eff[0] = np.zeros(64)         # zero velocity: plain GMRES
    assert cayley_preconditioner(zero) is None


@pytest.mark.parametrize("name", ["exp1", "exp5", "exp6"], ids=["circulant", "band", "layer"])
def test_reused_cn_workspace_matches_a_fresh_one(name):
    cfg, ws = preset_workspace(name, "ci")
    f = strang_step(initial_condition(cfg, ws.grid), "cn", ws, cfg.krylov)
    fresh = StepWorkspace(cfg.metric, ws.grid, cfg.dt, cfg.pml)
    assert np.array_equal(strang_step(f, "cn", ws, cfg.krylov).values,
                          strang_step(f, "cn", fresh, cfg.krylov).values)


def first_iterations(cfg, ws, solves=3):
    f = initial_condition(cfg, ws.grid)
    counts = []
    for _ in range(solves):
        f = strang_step(f, "cn", ws, cfg.krylov)
        counts.append(ws.last_krylov.iterations)
    return counts


ONE_D_PRESETS = [(name, scale) for name in ("exp1", "exp2", "exp4", "exp5", "exp6")
                 for scale in ("ci", "paper") if (name, scale) != ("exp5", "paper")]


@pytest.mark.parametrize("name,scale", ONE_D_PRESETS, ids=[f"{n}-{s}" for n, s in ONE_D_PRESETS])
def test_circulant_takes_no_more_iterations_than_plain_gmres(monkeypatch, name, scale):
    # exp5 is the same at both scales; the band is cleared so that every
    # preset takes the circulant
    cfg, ws = preset_workspace(name, scale)
    ws.ripple = None
    circulant = first_iterations(cfg, ws)
    assert cayley_preconditioner(ws).K == 0
    monkeypatch.setattr(propagators, "cayley_preconditioner", lambda ws: None)
    plain = first_iterations(cfg, StepWorkspace(cfg.metric, ws.grid, cfg.dt, cfg.pml))
    assert all(c <= p for c, p in zip(circulant, plain)), (circulant, plain)


def cayley_residual(f, out, ws):
    """||(I - E) psi - (I + E) psi*|| / ||psi||, the residual of the Cayley
    step psi -> psi*, unscaled by any preconditioner."""
    b = 2.0 * f.values - cn_apply_values(f.values, ws)      # (I - E) psi
    return np.linalg.norm(b - cn_apply_values(out.values, ws)) / np.linalg.norm(f.values)


def test_preconditioned_step_matches_dense_oracle():
    cfg, ws = preset_workspace("exp5", "ci", metric=EXP5_INCOMMENSURATE)
    f = initial_condition(cfg, ws.grid)
    out = cn_transport_step(f, ws, cfg.krylov)
    assert cayley_preconditioner(ws).K == 0
    dense = dense_cn_step(f, ws)
    rel = np.linalg.norm(out.values - dense.values) / np.linalg.norm(dense.values)
    assert rel <= 1e-10
    # the reported residual is the one of A psi* = (2I - A) psi
    assert ws.last_krylov.residual == pytest.approx(cayley_residual(f, out, ws), rel=1e-2)
    assert ws.last_krylov.residual <= cfg.krylov.tol


# exp3 runs as cn at 4 times its dt: at its own dt two plain iterations
# reach round-off (1.1e-14), where any two residuals agree
@pytest.mark.parametrize("name,changes,kind", [
    ("exp1", {}, "circulant"),
    ("exp6", {}, "circulant"),
    ("exp3", {"scheme": "cn", "dt": 4 * preset_config("exp3", "ci").dt}, "plain"),
], ids=["circulant", "layer", "plain-2d"])
def test_reported_residual_is_the_cayley_steps(name, changes, kind):
    # GMRES solves (I + E) u = psi to tol / 2 and the step returns
    # psi* = 2u - psi, whose Cayley residual is twice GMRES's: the report
    # carries that one, relative to ||psi||
    cfg, ws = preset_workspace(name, "ci", **changes)
    f = half_potential_step(initial_condition(cfg, ws.grid), ws, "lead")
    for _ in range(3):
        out = cn_transport_step(f, ws, cfg.krylov)
        pre = cayley_preconditioner(ws)
        assert ("plain" if pre is None else "circulant" if pre.K == 0 else "band") == kind
        assert ws.last_krylov.converged and ws.last_krylov.residual <= cfg.krylov.tol
        assert ws.last_krylov.residual == pytest.approx(cayley_residual(f, out, ws), rel=1e-2)
        f = out


def test_preconditioned_solve_costs_one_fft_pair_per_operator_product(monkeypatch):
    cfg, ws = preset_workspace("exp5", "ci", metric=EXP5_INCOMMENSURATE)
    f = initial_condition(cfg, ws.grid)
    calls = []
    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda *args, **kw: calls.append(1) or fft(*args, **kw))
    cn_transport_step(f, ws, cfg.krylov)
    # the start's T = E psi and one pair for each operator product: the
    # initial residual, the one after the circulant's defect correction, one
    # per iteration and the closing residual; u = M^-1 y is taken from the
    # closing product
    report = ws.last_krylov
    assert cayley_preconditioner(ws).K == 0
    assert 0 < report.iterations < cfg.krylov.restart
    assert report.products == report.iterations + 3
    assert len(calls) == report.products + 1


def count_transforms(monkeypatch):
    """Count np.fft.fft and np.fft.ifft calls by kind."""
    calls = collections.Counter()
    for kind in ("fft", "ifft"):
        transform = getattr(np.fft, kind)
        monkeypatch.setattr(np.fft, kind, lambda *a, _t=transform, _k=kind, **kw:
                            calls.update([_k]) or _t(*a, **kw))
    return calls


@pytest.mark.parametrize("name", ["exp1", "exp2"])
def test_circulant_start_takes_no_iteration_and_three_fft_pairs(monkeypatch, name):
    # the first-order start u0 = psi - T and one defect correction by the
    # circulant's w_band meet the tolerance, so a step is T, the initial
    # residual and the corrected one (u = M^-1 y is taken from the last)
    cfg, ws = preset_workspace(name, "ci")
    f = initial_condition(cfg, ws.grid)
    calls = count_transforms(monkeypatch)
    for _ in range(3):
        calls.clear()
        f = strang_step(f, "cn", ws, cfg.krylov)
        assert cayley_preconditioner(ws).K == 0
        report = ws.last_krylov
        assert report.iterations == 0 and report.products == 2
        assert report.residual <= cfg.krylov.tol
        assert calls == {"fft": 3, "ifft": 3}


def test_layered_circulant_averages_at_most_five_iterations():
    # exp6: the absorbing layer keeps it off the band; started without the
    # first-order term the circulant took 7 to 9 iterations a step
    cfg = preset_config("exp6", "ci")
    res = run_simulation(cfg)
    iters = [r.krylov_iters for r in res.diagnostics[1:]]
    assert len(iters) == cfg.steps() and np.mean(iters) <= 5
    assert max(r.krylov_residual for r in res.diagnostics[1:]) <= cfg.krylov.tol


def test_plain_step_starts_from_the_first_order_cayley_map(monkeypatch):
    # 2-D grids take plain GMRES: it solves (I + E) u = psi from
    # u0 = psi - T, the first-order Cayley map (I - 2E) psi written for
    # u = (psi* + psi) / 2, and the step agrees with the dense LU solve
    g = make_grid(2, (5.0, 5.0), (16, 16))
    ws = StepWorkspace(EXP3, g, 0.05)
    X, Y = g.meshes()
    v = np.zeros((2, 16, 16), dtype=np.complex128)
    v[0] = np.exp(-(X ** 2 + Y ** 2) / 2 + 1j * (X + 2 * Y))
    f = SpinorField(v, g)
    calls = counting_gmres(monkeypatch)
    out = cn_transport_step(f, ws)
    assert cayley_preconditioner(ws) is None and len(calls) == 1
    assert np.array_equal(calls[0][0], f.values - _cn_term(f.values, ws))
    assert calls[0][1].converged and calls[0][1].iterations > 0
    dense = dense_cn_step(f, ws)
    assert np.linalg.norm(out.values - dense.values) <= 1e-9 * np.linalg.norm(dense.values)


# exp5 and exp4 at ci scale, and an odd ripple count (K = 15), where the
# band's off-diagonal changes sign: wK = (-1)^K C/4
BAND_CASES = [("exp5", {}), ("exp4", {}), ("exp4", {"k0": 1.875})]


@pytest.mark.parametrize("name,changes", BAND_CASES, ids=["exp5", "exp4", "exp4-odd-K"])
def test_band_step_matches_dense_oracle(name, changes):
    cfg, ws = preset_workspace(name, "ci", metric=changes)
    f = initial_condition(cfg, ws.grid)
    out = cn_transport_step(f, ws, cfg.krylov)
    pre = cayley_preconditioner(ws)
    assert pre.K == ws.ripple[0] and np.sign(ws.ripple[2]) == (-1) ** pre.K
    dense = dense_cn_step(f, ws)
    rel = np.linalg.norm(out.values - dense.values) / np.linalg.norm(dense.values)
    assert rel <= 1e-10
    # both residuals sit at round-off, so they are bounded, not compared
    assert ws.last_krylov.residual <= cfg.krylov.tol
    assert cayley_residual(f, out, ws) <= cfg.krylov.tol


# (name, scale, changes, blocks per chain) with each chain's product of
# |mu|: exp5 1e-69 (one block), exp4 ci 1e-103, exp4 paper 1e-116 (its last
# block padded), exp4 odd K 1e-178, C08 at N = 2560 1e-120 and at N = 5120
# 1e-242 (padded), and N = 10240 1e-485, which would overflow as one block
BLOCK_CASES = [
    ("exp5", "ci", {}, 1),
    ("exp4", "ci", {}, 2),
    ("exp4", "paper", {}, 2),
    ("exp4", "ci", {"metric": {"k0": 1.875}}, 2),
    ("exp4", "paper", {"dt": 1e-5, "N": (2560,)}, 2),
    ("exp4", "paper", {"dt": 1e-5, "N": (5120,)}, 3),
    ("exp4", "paper", {"dt": 1e-5, "N": (10240,)}, 5),
]


def chain_positions(pre, ws):
    """The blocks per chain, and a mask of the real (unpadded) chain
    positions in the factors' blocked layout (2, 1, nb, m, g)."""
    nb, m = pre.order.shape
    real = np.zeros((2, 1, nb * m, pre.g), dtype=bool)
    real[:, :, :ws.grid.N[0] // pre.g] = True
    return nb, real.reshape(pre.z.shape)


@pytest.mark.parametrize("name,scale,changes,blocks", BLOCK_CASES,
                         ids=["exp5", "exp4-ci", "exp4-paper", "exp4-odd-K",
                              "C08-2560", "C08-5120", "N10240"])
def test_band_blocks_keep_their_carry_products_in_range(name, scale, changes, blocks):
    _, ws = preset_workspace(name, scale, **changes)
    pre = cayley_preconditioner(ws)
    nb, real = chain_positions(pre, ws)
    assert nb == blocks
    for factor in (pre.scale_in, pre.turn, pre.carry_back, pre.z,
                   pre.link_in, pre.link_back, pre.corner):
        assert np.all(np.isfinite(factor))
    for factor in (pre.scale_in, pre.turn, pre.z):
        assert np.all(factor[real] != 0) and not np.any(factor[~real])
    assert np.all(pre.link_in != 0) and np.all(pre.link_back != 0)
    # the carry products F (from each block's start, here F / G times G, so
    # 1 at the start up to round-off) and G (to its end), |mu| < 1
    G = np.abs(pre.carry_back)
    F = np.abs(pre.turn * pre.carry_back)[real]
    for carry in (F, G):
        assert np.all(carry >= propagators.CARRY_FLOOR) and np.all(carry <= 1.0 + 1e-12)


@pytest.mark.parametrize("changes,padded", [
    ({"dt": 1e-5, "N": (10240,)}, False),
    ({"N": (10240,)}, True),
    ({}, True),
], ids=["N10240", "N10240-padded", "exp4-paper-padded"])
def test_band_inverse_on_long_multi_block_and_padded_chains(changes, padded):
    # exp4 paper: 16 chains of 640 modes at N = 10240, in 5 blocks at
    # dt = 1e-5 and in 12 (the last padded) at the preset's dt; as shipped,
    # 16 chains of 125 modes in 2 blocks, the last padded
    _, ws = preset_workspace("exp4", "paper", **changes)
    pre = cayley_preconditioner(ws)
    nb, real = chain_positions(pre, ws)
    assert nb > 1 and real.all() != padded
    N = ws.grid.N[0]
    K, w0, wK = ws.ripple
    w_band = w0 + 2.0 * wK * np.cos(2.0 * np.pi * K * np.arange(N) / N)
    rng = np.random.default_rng(16)
    v = rng.standard_normal((2, N)) + 1j * rng.standard_normal((2, N))
    x = pre.solve(v)
    Mx = w_band * x + 0.5 * ws.dt * ws.alpha[0] @ spectral_derivative(SpinorField(x, ws.grid), 0).values
    assert np.linalg.norm(Mx - v) <= 1e-12 * np.linalg.norm(v)


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
    ("exp4", {"metric": {"a0": 0.0}}),          # C = 0: flat, w is the constant w0
    ("exp1", {}),
], ids=["K-fraction", "K-nyquist", "C-one", "layer", "flat", "static"])
def test_no_band_without_a_fitted_ripple(name, changes):
    _, ws = preset_workspace(name, "ci", **changes)
    assert ws.ripple is None


def counting_gmres(monkeypatch):
    """Wrap propagators.gmres; return the list of (x0, report) of its calls."""
    calls = []

    def wrapped(apply, b, x0=None, **kw):
        x, report = gmres(apply, b, x0=x0, **kw)
        calls.append((x0, report))
        return x, report

    monkeypatch.setattr(propagators, "gmres", wrapped)
    return calls


def test_band_solve_costs_one_fft_pair_and_no_iteration(monkeypatch):
    # exp5 and exp4: one gmres call a step, whose first check meets the
    # tolerance and whose residual product is reused as the solution
    calls = count_transforms(monkeypatch)
    for name in ("exp5", "exp4"):
        cfg, ws = preset_workspace(name, "ci")
        f = initial_condition(cfg, ws.grid)
        calls.clear()
        for _ in range(3):
            solves = counting_gmres(monkeypatch)
            f = cn_transport_step(f, ws, cfg.krylov)
            assert [r.iterations for _, r in solves] == [0] and ws.last_krylov.converged
        # per solve: the one M^-1 product; the right-hand side is psi itself
        # and the start w_band psi needs no derivative
        assert calls == {"fft": 3, "ifft": 3}


@pytest.mark.parametrize("name", ["exp5", "exp4"])
def test_band_step_equals_gmres_from_the_preconditioned_start(name):
    # what GMRES's first check returns, bit for bit: the field 2 M^-1 y0 - psi
    # and the report of 0 iterations with twice the residual of the solve
    # of (I + E) u = psi at tol / 2
    cfg, ws = preset_workspace(name, "ci")
    pre, a = cayley_preconditioner(ws), ws.a_eff[0]
    f = half_potential_step(initial_condition(cfg, ws.grid), ws, "lead")
    for _ in range(3):
        out = cn_transport_step(f, ws, cfg.krylov)
        y, report = gmres(lambda v: a * (v + pre.shift * pre.solve(v)), f.values,
                          x0=pre.w_band * f.values, tol=cfg.krylov.tol / 2,
                          restart=cfg.krylov.restart, maxit=cfg.krylov.maxit)
        assert dataclasses.replace(report, residual=2 * report.residual) == ws.last_krylov
        assert report.iterations == 0
        assert out.values.tobytes() == (2 * pre.solve(y) - f.values).tobytes()
        f = out


def test_band_step_on_a_zero_field_returns_zero(monkeypatch):
    # no division by ||psi|| = 0 (a RuntimeWarning fails the suite): gmres
    # returns at once, and 2 M^-1 0 - psi is zero
    cfg, ws = preset_workspace("exp5", "ci")
    calls = counting_gmres(monkeypatch)
    zero = SpinorField(np.zeros((2,) + ws.grid.shape, dtype=np.complex128), ws.grid)
    out = cn_transport_step(zero, ws, cfg.krylov)
    assert not np.any(out.values) and out.values.shape == zero.values.shape
    assert [r.iterations for _, r in calls] == [0]
    assert ws.last_krylov == KrylovReport(0, 0.0, True, 0)


def test_inexact_band_falls_back_to_gmres_from_the_preconditioned_start(monkeypatch):
    # the band comes from the unperturbed ripple while a_eff carries a 2%
    # wobble, so M is no longer A / a: GMRES iterates and converges
    cfg, ws = preset_workspace("exp5", "ci")
    x = ws.grid.axes[0]
    ws.a_eff = [ws.a_eff[0] * (1.0 + 0.02 * np.cos(0.7 * x))]
    pre = cayley_preconditioner(ws)
    assert pre.K == ws.ripple[0] == 10
    calls = counting_gmres(monkeypatch)
    f = half_potential_step(initial_condition(cfg, ws.grid), ws, "lead")
    out = cn_transport_step(f, ws, cfg.krylov)
    assert len(calls) == 1
    x0, report = calls[0]
    assert np.array_equal(x0, pre.w_band * f.values)
    assert ws.last_krylov is report and report.converged and report.iterations > 0
    dense = dense_cn_step(f, ws)
    assert np.linalg.norm(out.values - dense.values) <= 1e-9 * np.linalg.norm(dense.values)


def test_band_step_below_round_off_runs_gmres_and_fails(monkeypatch):
    # the exact band's residual (about 1e-15) misses a tolerance of 1e-18,
    # so GMRES runs from y0, and its iterations are the ones reported
    cfg, ws = preset_workspace("exp5", "ci")
    calls = counting_gmres(monkeypatch)
    f = half_potential_step(initial_condition(cfg, ws.grid), ws, "lead")
    with pytest.raises(StepFailureError, match="after 4 iterations"):
        cn_transport_step(f, ws, KrylovOptions(tol=1e-18, restart=2, maxit=4))
    assert len(calls) == 1 and ws.last_krylov is calls[0][1]
    assert ws.last_krylov.iterations == 4 and not ws.last_krylov.converged
    pre = cayley_preconditioner(ws)
    assert np.array_equal(calls[0][0], pre.w_band * f.values)


@pytest.mark.parametrize("name,bound", [("exp5", 1e-13), ("exp4", 2e-13)])
def test_band_step_keeps_l2_gamma_at_round_off(name, bound):
    # the exact band step over a whole ci run: its solve meets the tolerance
    # at round-off, so the conserved norm drifts by round-off alone (exp5,
    # 80 steps, 8.7e-15; exp4, 160 steps, 2.0e-14).  The unknown 2u is twice
    # psi*, so the band path's round-off is twice the direct solve's
    cfg = preset_config(name, "ci")
    res = run_simulation(cfg)
    assert all(r.krylov_iters == 0 for r in res.diagnostics[1:])
    l2g = np.array([r.l2_gamma for r in res.diagnostics])
    assert np.max(np.abs(l2g - l2g[0])) / l2g[0] <= bound


def test_band_is_built_lazily_from_the_closed_form(monkeypatch):
    cfg, ws = preset_workspace("exp5", "ci")
    assert not ws.built
    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name,
                            lambda *a, **k: pytest.fail("FFT while the band is built"))
    assert cayley_preconditioner(ws).K == 10


def test_first_band_solve_keeps_linear_storage():
    # exp4 paper: 16 chains of 125 modes, in 2 blocks of 63.  The factors
    # hold four arrays of about 2N entries (scale_in, turn, carry_back and
    # the Sherman-Morrison z; one spinor field each), and the first solve
    # peaks at 14 spinor fields, build included.  A dense inverse per chain
    # would hold 2 * 16 * 125^2 entries, 125 spinor fields; plain GMRES's
    # Krylov basis alone holds restart + 1 = 31
    cfg, ws = preset_workspace("exp4", "paper")
    f = half_potential_step(initial_condition(cfg, ws.grid), ws, "lead")
    tracemalloc.start()
    try:
        cn_transport_step(f, ws, cfg.krylov)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cayley_preconditioner(ws).K == 16
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
    out = poly_axis_step(f, 0, ws)
    assert np.max(np.abs(out.values - f.values)) < 1e-14


def test_the_removed_poly2_sweep_only_raises():
    # the name stays for the benchmark's trace, which wraps it by name
    g = make_grid(1, 5.0, 64)
    ws = StepWorkspace(FLAT0, g, 0.3)
    with pytest.raises(ConfigurationError, match=r"\('cn', 'poly1'\)"):
        propagators.poly_axis_step2(gaussian_field(g), 0, ws)
    with pytest.raises(ConfigurationError, match="scheme"):
        strang_step(gaussian_field(g), "poly2", ws)
    assert propagators.SCHEMES == ("cn", "poly1")


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
def test_poly_sweep_matches_the_eigenbasis_formula(rng, S):
    # Xi = Pi F^-1[exp(-i dt Lam xi) F Pi^dagger psi], blended with a
    m = MetricModel("static2d", spinor_dim=S, mass=1.0, phi=ScalarForm("gauss", (1.0, 0.5)),
                    psi=ScalarForm("gauss", (1.0, 0.3)))
    g = make_grid(2, (3.0, 2.0), (16, 12))
    ws = StepWorkspace(m, g, 0.05)
    shape = (S,) + g.shape
    f = SpinorField(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), g)
    for axis in range(2):
        lam, Pi = alpha_eigenbasis(axis + 1, S)
        phi = np.fft.fft(np.einsum("ba,b...->a...", Pi.conj(), f.values), axis=1 + axis)
        phase = np.exp(-1j * ws.dt * np.outer(lam, g.freqs[axis]))
        phase = phase.reshape((S,) + tuple(g.N[axis] if i == axis else 1 for i in range(2)))
        xi = np.einsum("ab,b...->a...", Pi, np.fft.ifft(phase * phi, axis=1 + axis))
        a = ws.a_eff[axis]
        ref = a * xi + (1 - a) * f.values
        out = poly_axis_step(f, axis, ws)
        assert np.linalg.norm(out.values - ref) <= 1e-13 * np.linalg.norm(ref)


def whole_array_sweep(f, axis, ws):
    """`poly_axis_step` with whole-array transforms along axis 1 + axis: the
    shift acts on the transform with that axis moved last."""
    shift, weight = propagators._sweep_factors(ws, axis)
    ax = 1 + axis
    spec = np.moveaxis(np.fft.fft(f.values, axis=ax), ax, -1)
    shift(spec, np.empty((2,) + spec.shape[1:], dtype=np.complex128))
    inc = np.fft.ifft(np.moveaxis(spec, -1, ax), axis=ax)
    return inc * weight + f.values


@pytest.mark.parametrize("S", [2, 4])
def test_poly_sweep_equals_the_whole_array_transform(rng, S):
    # 96 x 200 nodes: the axis-0 sweep runs in blocks of 85 columns, the last
    # one ragged; max a = 1.5 puts poly1 on its ahat scaling
    m = MetricModel("static2d", spinor_dim=S, mass=1.0, phi=ScalarForm("gauss", (0.2, 0.5)),
                    psi=ScalarForm("gauss", (-0.2, 0.3)))
    g = make_grid(2, (3.0, 5.0), (96, 200))
    ws = StepWorkspace(m, g, 0.01)
    assert 1.2 < np.max(ws.a_eff[0]) < 2.0
    shape = (S,) + g.shape
    f = SpinorField(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), g)
    for axis in range(2):
        assert np.array_equal(poly_axis_step(f, axis, ws).values, whole_array_sweep(f, axis, ws))
    # one buffer of S + 2 planes of a block of 85 columns of 96 nodes
    assert ws.shared["blocks"].shape == (S + 2, 85 * 96)


@pytest.mark.parametrize("S", [2, 4])
@pytest.mark.parametrize("shape", [(300,), (37, 300), (100, 700)], ids=str)
def test_in_place_sweep_matches_a_fresh_output_on_ragged_chunks(rng, S, shape):
    # (37, 300): blocks of 221 columns end in one of 79, slabs of 27 rows
    # in one of 10; (100, 700): blocks of 81 columns end in one of 52, slabs
    # of 11 rows in one of 1; max a = 1.5 puts poly1 on its ahat scaling
    d = len(shape)
    m = MetricModel("static1d" if d == 1 else "static2d", spinor_dim=S, mass=1.0,
                    phi=ScalarForm("gauss", (0.2, 0.5)), psi=ScalarForm("gauss", (-0.2, 0.3)))
    g = make_grid(d, (3.0, 5.0)[:d], shape)
    ws = StepWorkspace(m, g, 0.01)
    assert 1.2 < np.max(ws.a_eff[0]) < 2.0
    for axis in range(d):
        assert d == 1 or shape[1 - axis] % chunk_lines(shape, axis)
    f = SpinorField(rng.standard_normal((S,) + shape) + 1j * rng.standard_normal((S,) + shape), g)
    for axis in range(d):
        fresh = poly_axis_step(f, axis, ws).values
        assert np.array_equal(fresh, whole_array_sweep(f, axis, ws))
        inplace = f.values.copy()
        out = poly_axis_step(SpinorField(inplace, g), axis, ws, out=inplace)
        assert out.values is inplace and np.array_equal(inplace, fresh)


def test_poly_axis_norm_nonexpansive_for_unit_bounded_velocity():
    g = make_grid(1, 5.0, 256)
    ws = StepWorkspace(WELL, g, 5e-4)
    f = gaussian_field(g)
    out = poly_axis_step(f, 0, ws)
    assert vec_norm(out) <= vec_norm(f) * (1 + 1e-12)


def test_poly_single_step_richardson_order_two():
    """Against exact constant-velocity transport the directional step is
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
        out = poly_axis_step(f, 0, ws)
        errs.append(np.linalg.norm(out.values - exact(dt)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 1.7
    assert max(orders) < 2.6


# ------------------------------------------------------------ strang steps


def test_strang_identity_for_zero_hamiltonian():
    g = make_grid(1, 5.0, 64)
    ws = StepWorkspace(FLAT0, g, 0.7)
    for i in range(g.d):
        ws.a_eff[i] = np.zeros(g.N[0])  # zero velocity: H vanishes entirely
    f = gaussian_field(g)
    for scheme in ("cn", "poly1"):
        out = strang_step(f, scheme, ws, KrylovOptions())
        assert np.max(np.abs(out.values - f.values)) < 1e-12


@pytest.mark.parametrize("name,scheme", [("exp1", "cn"), ("exp3", "poly1"), ("exp5", "cn")],
                         ids=["exp1-cn", "exp3-poly1", "exp5-cn"])
def test_a_step_reaches_the_spin_kernel_through_the_module_globals(monkeypatch, name, scheme):
    # bench/tracing.py times the pointwise stages and the spin kernel by
    # wrapping these module attributes; a step that reached them some other
    # way would read zero there
    calls = collections.Counter()
    for attr in ("_spin_matmul", "half_potential_step"):
        original = getattr(propagators, attr)

        def counted(*args, attr=attr, original=original, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(propagators, attr, counted)
    cfg, ws = preset_workspace(name, "ci")
    assert cfg.scheme == scheme
    # a gauge on the static metrics, an alpha^1 coupling on exp5
    assert (ws.sample.gauge is None) == (ws.lead[1] is not None) == (name == "exp5")
    propagators.strang_step(initial_condition(cfg, ws.grid), scheme, ws, cfg.krylov)
    assert calls == {"_spin_matmul": 2, "half_potential_step": 2}


def local_half_oracle(model, grid, dt):
    """(lead, trail) = (e^{F/2} H, e^{-F/2} H), H = exp(-i dt/2 M) node by
    node with `expm_small`, as dense (S, S, *grid) matrix fields."""
    S = model.spinor_dim
    sample = sample_metric(model, grid)

    def field(mat, x):
        return mat[..., None] * np.ravel(np.broadcast_to(x, grid.shape))

    gen = 1j * (field(beta_matrix(S), sample.G) + field(np.eye(S), sample.scalar))
    if sample.g is not None:
        gen = gen + 1j * field(alpha_matrix(1, S), sample.g)
    H = np.stack([expm_small(-0.5 * dt * gen[..., k]) for k in range(gen.shape[-1])], axis=-1)
    H = H.reshape((S, S) + grid.shape)
    F = 0.0 if sample.gauge is None else sample.gauge
    return np.exp(0.5 * F) * H, np.exp(-0.5 * F) * H


# flat space with A_x and V: a = 1, M = beta m + V - alpha^1 A_x
FLAT_AV = MetricModel("flat", mass=0.8, ax_pot=ScalarForm("gauss", (2.5, 0.3)),
                      v_pot=ScalarForm("well", (1.5, 0.2)))
LOCAL_MODELS = {
    "static1d": (EXP1, (5.0,), (48,)),
    "static2d": (EXP3, (5.0, 5.0), (16, 12)),
    "flat1d": (FLAT_AV, (5.0,), (48,)),
    "flat2d": (FLAT_AV, (4.0, 5.0), (16, 12)),
    "exp4": (preset_config("exp4").metric, (10.0,), (64,)),
    "exp5": (preset_config("exp5").metric, (10.0,), (64,)),
}


@pytest.mark.parametrize("S", [2, 4])
@pytest.mark.parametrize("kind", LOCAL_MODELS)
def test_local_factor_matches_the_dense_exponential(kind, S):
    model, a, N = LOCAL_MODELS[kind]
    model = dataclasses.replace(model, spinor_dim=S)
    grid = make_grid(len(N), a, N)
    # each factor is its S diagonal planes, and an alpha^1 coupling plane
    # where the model has A_x.  Round-off in the phase tau r, with +-r the
    # eigenvalues of beta G + alpha^1 g, grows with it on both sides: the
    # bound is 1e-13 per unit of tau r above 1 (exp5 reaches tau r = 444 at
    # dt = 0.3)
    has_ax = model.ax_pot.name != "zero"
    for dt in (1e-3, 0.3):
        ws = StepWorkspace(model, grid, dt)
        sample = ws.sample
        r = np.hypot(sample.G, 0.0 if sample.g is None else sample.g)
        tol = 1e-13 * np.maximum(1.0, 0.5 * dt * r)
        for got, want in zip((ws.lead, ws.trail), local_half_oracle(model, grid, dt)):
            planes, coupling = got
            assert planes.shape == (S,) + grid.shape
            assert (coupling is not None) == has_ax
            assert coupling is None or coupling.shape == grid.shape
            assert np.all(np.abs(dense_factor(got, S) - want) < tol)


def oracle_strang_step(f, scheme, ws, model, krylov):
    """trail T lead with the factors built node by node by `local_half_oracle`."""
    lead, trail = local_half_oracle(model, ws.grid, ws.dt)
    # the gauge is on: the two factors differ
    assert np.max(np.abs(lead - trail)) > 1e-6

    def apply(factor, field):
        return SpinorField(np.einsum("ab...,b...->a...", factor, field.values), ws.grid)

    f = apply(lead, f)
    if scheme == "cn":
        f = cn_transport_step(f, ws, krylov)
    else:
        for axis in range(ws.grid.d):
            f = poly_axis_step(f, axis, ws)
    return apply(trail, f)


@pytest.mark.parametrize("name,scheme", [("exp3", "poly1"), ("exp1", "cn")])
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
    # exp3 at 256^2: the build peaks at 1.9 matrix fields (S, S, *grid); no
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
    for planes, coupling in (ws.lead, ws.trail):
        assert planes.shape == (S,) + grid.shape and coupling is None
    assert peak < 3.5 * field_bytes


def held_arrays(obj):
    """Every numpy array reachable from obj through attributes, lists,
    tuples and dicts, each once."""
    found, stack, seen = [], [obj], set()
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            found.append(x)
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
        elif isinstance(x, dict):
            stack.extend(x.values())
        elif hasattr(x, "__dict__"):
            stack.extend(vars(x).values())
    return found


def test_workspace_keeps_only_its_factors_and_the_sample():
    # exp3 at 256^2: the built workspace holds no (S, S, *grid) matrix
    # field, only its two pointwise factors, S = 2 diagonal planes each (half
    # a matrix field), and beside them the kept sample's velocity, G and
    # gauge exponent, 1/8 of a field each: 1.375 fields.  An all-zero scalar
    # potential kept as well would read 1.5.
    cfg, field_bytes = exp3_matrix_field_bytes()
    StepWorkspace(cfg.metric, cfg.grid(), cfg.dt, cfg.pml)   # imports numpy.fft first
    tracemalloc.start()
    try:
        ws = StepWorkspace(cfg.metric, cfg.grid(), cfg.dt, cfg.pml)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    held = held_arrays(ws)
    assert not [a for a in held if a.shape == (ws.S, ws.S) + ws.grid.shape]
    planes = [a for a in held if a.shape == (ws.S,) + ws.grid.shape]
    assert len(planes) == 2 and {id(a) for a in planes} == {id(ws.lead[0]), id(ws.trail[0])}
    assert ws.lead[1] is None and ws.trail[1] is None
    sample = ws.sample
    coefficients = {id(a): a.nbytes for a in [*sample.velocity, sample.G, sample.gauge]}
    factors = ws.lead[0].nbytes + ws.trail[0].nbytes
    assert kept <= factors + sum(coefficients.values()) + 0.01 * field_bytes


@pytest.mark.parametrize("layer", [False, True], ids=["bare", "layer"])
@pytest.mark.parametrize("name", ["exp1", "exp3", "exp5"])   # circulant, 2-D, band
@pytest.mark.parametrize("scheme", ["cn", "poly1"])
def test_with_step_matches_a_fresh_workspace(name, scheme, layer):
    # a workspace derived for another step size shares the model part and
    # steps bit for bit as one built for that size; the parent, whose step
    # part is already built, keeps stepping as before
    cfg = preset_config(name, "ci")
    pml = PmlConfig(True, "I", 3.0, 0.3, 0.1) if layer else PmlConfig()
    grid, h = cfg.grid(), 0.37 * cfg.dt
    ws = StepWorkspace(cfg.metric, grid, cfg.dt, pml)
    f = initial_condition(cfg, grid)
    first = strang_step(f, scheme, ws, cfg.krylov)
    derived = ws.with_step(h)
    fresh = StepWorkspace(cfg.metric, grid, h, pml)
    assert derived.dt == h and derived.sample is ws.sample and derived.a_eff is ws.a_eff
    for side in ("lead", "trail"):
        for got, want in zip(getattr(derived, side), getattr(fresh, side)):
            assert (got is None and want is None) or got.tobytes() == want.tobytes()
    got, want = (strang_step(f, scheme, w, cfg.krylov) for w in (derived, fresh))
    assert got.values.tobytes() == want.values.tobytes()
    assert derived.last_krylov == fresh.last_krylov
    assert strang_step(f, scheme, ws, cfg.krylov).values.tobytes() == first.values.tobytes()


def test_a_non_finite_half_step_is_rejected_at_build():
    # a mass of 1e308 is finite, and so is G = m e^Phi <= 1.65e308; dt/2 G
    # stays finite at dt = 0.01 and overflows at dt = 4, where its cos and
    # sin are NaN
    m = MetricModel("static1d", mass=1e308, phi=ScalarForm("gauss", (0.5, 1.0)))
    ws = StepWorkspace(m, make_grid(1, 5.0, 64), 0.01)
    for build in (lambda: ws.with_step(4.0), lambda: StepWorkspace(m, ws.grid, 4.0)):
        with pytest.raises(GeometryError, match="lead half step factor is not finite"):
            build()
    # the gauge at the box edge x = -5, node 0: Phi = -58 x^2 makes e^{Phi/2}
    # = e^{-725} > 0, whose reciprocal in the trail factor overflows, and
    # Phi = -70 x^2 makes it underflow to 0
    for c, match in ((-58.0, r"trail half step factor is not finite at node \(0,\)"),
                     (-70.0, r"gauge e\^\{F/2\} is not positive at node \(0,\)")):
        m = MetricModel("static1d", phi=ScalarForm("quadratic", (c,)))
        with pytest.raises(GeometryError, match=match):
            StepWorkspace(m, ws.grid, 0.01)


# ------------------------------------------------------------ buffered explicit step


@pytest.mark.parametrize("scheme", ["poly1"])
def test_explicit_step_keeps_only_the_block_buffer_resident(scheme):
    # exp3 at 256^2: a step updates its result in place, so the workspace
    # keeps no full field, only S + 2 planes of one chunk of SLAB nodes
    cfg = preset_config("exp3", "ci").replace(N=(256, 256))
    grid = cfg.grid()
    ws = StepWorkspace(cfg.metric, grid, cfg.dt, cfg.pml)
    f = initial_condition(cfg, grid)
    first = strang_step(f, scheme, ws)
    second = strang_step(first, scheme, ws)
    kept = f.values.copy(), first.values.copy(), second.values.copy()
    third = strang_step(second, scheme, ws)
    for field, values in zip((f, first, second), kept):
        assert np.array_equal(field.values, values)
    bufs = [v for v in ws.shared.values() if isinstance(v, np.ndarray)]
    assert bufs and sum(b.size for b in bufs) <= (ws.S + 2) * SLAB
    for out in (first, second, third):
        assert not any(np.shares_memory(out.values, buf) for buf in bufs)


@pytest.mark.parametrize("scheme", ["poly1"])
def test_explicit_step_allocates_only_its_result(scheme):
    # exp3 at 256^2: after one warm-up step a step allocates its result (1
    # spinor field); the unbuffered step peaked at 4.06
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


@pytest.mark.parametrize("scheme", ["poly1"])
def test_sweep_factors_are_built_once_at_first_use(scheme):
    cfg, ws = preset_workspace("exp3", "ci")
    assert not ws.built and not ws.shared
    f = strang_step(initial_condition(cfg, ws.grid), scheme, ws)
    keys = [("sweep", axis) for axis in range(2)]
    factors = [ws.built[k] for k in keys] + [ws.shared["blocks"]]
    strang_step(f, scheme, ws)
    assert all(ws.built[k] is v for k, v in zip(keys, factors))
    assert ws.shared["blocks"] is factors[-1]


@pytest.mark.parametrize("scheme", ["poly1"])
def test_reused_explicit_workspace_matches_a_fresh_one(scheme):
    cfg, ws = preset_workspace("exp3", "ci")
    fresh = StepWorkspace(cfg.metric, ws.grid, cfg.dt)
    for w in (ws, fresh):
        w.a_eff[0] = 1.5 * w.a_eff[0]   # max a 1.5: poly1 shifts by dt ahat xi
    f = strang_step(initial_condition(cfg, ws.grid), scheme, ws)
    assert np.array_equal(strang_step(f, scheme, ws).values, strang_step(f, scheme, fresh).values)


@pytest.mark.parametrize("scheme,pairs", [("poly1", 2)])
def test_two_dimensional_explicit_step_fft_pairs(monkeypatch, scheme, pairs):
    # one pair per axis, counted in whole fields: each call transforms one
    # block of columns or one slab of rows
    cfg, ws = preset_workspace("exp3", "ci")
    f = initial_condition(cfg, ws.grid)
    strang_step(f, scheme, ws)
    calls, fields = collections.Counter(), collections.Counter()

    def counted(name, fn):
        def call(a, *args, **kwargs):
            calls[name] += 1
            fields[name] += a.size / f.values.size
            return fn(a, *args, **kwargs)
        return call

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    strang_step(f, scheme, ws)
    assert fields == {"fft": pairs, "ifft": pairs}
    # exp3 ci is 128 x 128: the axis-0 pair goes in two blocks of 64 columns
    # and the axis-1 pair in two slabs of 64 rows
    assert calls == {"fft": 2 * pairs, "ifft": 2 * pairs}


@pytest.mark.parametrize("name", ["exp3", "exp5"])
def test_workspace_build_samples_the_metric_once(monkeypatch, name):
    # each closed form's value, and the graphene strain, are evaluated at
    # most once per build
    calls = collections.Counter()

    def counted(key, fn):
        def wrapper(*args):
            calls[key(*args)] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ScalarForm, "value", counted(lambda form, *x: str(form), ScalarForm.value))
    monkeypatch.setattr(geometry, "graphene_f", counted(lambda *a: "strain", geometry.graphene_f))
    cfg = preset_config(name, "ci")
    StepWorkspace(cfg.metric, cfg.grid(), cfg.dt, cfg.pml)
    if name == "exp3":
        phi, psi = str(cfg.metric.phi), str(cfg.metric.psi)
        assert {phi, psi} <= set(calls)
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


@pytest.mark.parametrize("scheme,tol", [("cn", 3e-6), ("poly1", 3e-6)])
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


@pytest.mark.parametrize("scheme,lo,hi", [("cn", 1.8, 2.3), ("poly1", 0.85, 1.4)])
def test_temporal_orders(scheme, lo, hi):
    cfg = RunConfig(d=1, a=5.0, N=256, metric=WELL, scheme=scheme, dt=1e-3, T=0.1,
                    ic_kind="gaussian_wavepacket", ic_k0=3.0)
    rows = convergence_sweep(cfg, "dt", [4e-3, 2e-3, 1e-3, 5e-4], refine=4)
    slope = loglog_slope([p for p, _ in rows], [e for _, e in rows])
    assert lo <= slope <= hi


def test_preconditioned_cn_keeps_the_plain_temporal_errors(monkeypatch):
    # test_temporal_orders' cn case, which takes the circulant, against
    # forced plain GMRES
    cfg = RunConfig(d=1, a=5.0, N=256, metric=WELL, scheme="cn", dt=1e-3, T=0.1,
                    ic_kind="gaussian_wavepacket", ic_k0=3.0)
    dts = [4e-3, 2e-3, 1e-3, 5e-4]
    pre = [e for _, e in convergence_sweep(cfg, "dt", dts, refine=4)]
    monkeypatch.setattr(propagators, "cayley_preconditioner", lambda ws: None)
    plain = [e for _, e in convergence_sweep(cfg, "dt", dts, refine=4)]
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
    m2, m4 = EXP3, dataclasses.replace(EXP3, spinor_dim=4)
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
    # graphene with A_x: exp(-i dt/2 M) as diagonal planes and an alpha^1
    # coupling, also the trail
    planes, coupling = ws.lead
    assert ws.lead is ws.trail and planes.shape == (2,) + g.shape and coupling.shape == g.shape
    E = dense_factor(ws.lead, 2)
    prod = np.einsum("ab...,cb...->ac...", E, E.conj())
    eye = np.eye(2)[:, :, None]
    assert np.max(np.abs(prod - eye)) < 1e-12
