import numpy as np
import pytest

from conftest import flat_exact_evolution, loglog_slope

from curvedirac.errors import ConfigurationError, StepFailureError
from curvedirac.geometry import MetricModel, ScalarForm
from curvedirac.grid_spectral import SpinorField, make_grid
from curvedirac.harness import RunConfig, convergence_sweep, run_simulation
from curvedirac.krylov import KrylovOptions
from curvedirac.propagators import (
    StepWorkspace,
    cn_operator_apply,
    cn_transport_step,
    half_potential_step,
    poly_axis_step,
    poly_axis_step2,
    strang_step,
)
from curvedirac.spinor_algebra import alpha_matrix, diagonalize_alpha

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
    out = cn_operator_apply(f, ws, +1)
    assert np.max(np.abs(out.values - f.values)) < 1e-15


def test_cn_apply_plane_wave_formula():
    g = make_grid(1, np.pi, 64)
    dt = 0.1
    ws = StepWorkspace(FLAT0, g, dt)
    xi = 3.0
    u = np.array([1.0, 0.5 + 0.2j])
    wave = np.exp(1j * xi * g.axes[0])
    f = SpinorField(np.stack([u[0] * wave, u[1] * wave]), g)
    for sign in (+1, -1):
        out = cn_operator_apply(f, ws, sign)
        expect = (np.eye(2) + sign * 1j * dt * xi / 2 * alpha_matrix(1, 2)) @ u
        assert np.max(np.abs(out.values - expect[:, None] * wave)) < 1e-13


def test_cn_apply_linear(rng):
    g = make_grid(1, 5.0, 48)
    ws = StepWorkspace(EXP1, g, 3e-3)
    u = SpinorField(rng.standard_normal((2, 48)) + 1j * rng.standard_normal((2, 48)), g)
    v = SpinorField(rng.standard_normal((2, 48)) + 1j * rng.standard_normal((2, 48)), g)
    a, b = 0.3 - 1.1j, 2.0
    lhs = cn_operator_apply(SpinorField(a * u.values + b * v.values, g), ws, +1)
    rhs = a * cn_operator_apply(u, ws, +1).values + b * cn_operator_apply(v, ws, +1).values
    assert np.max(np.abs(lhs.values - rhs)) < 1e-13


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
    # with frozen potentials, the inverse of every factor is its dt -> -dt version
    g = make_grid(1, 5.0, 128)
    fwd = StepWorkspace(EXP1, g, 1e-3)
    bwd = StepWorkspace(EXP1, g, 1e-3)
    bwd.dt = -1e-3
    bwd.exp_half = np.conj(fwd.exp_half.transpose(1, 0, 2))
    if fwd.conn_half is not None:
        bwd.conn_half = np.linalg.inv(fwd.conn_half.transpose(2, 0, 1)).transpose(1, 2, 0)
    f0 = gaussian_field(g)
    f1 = strang_step(f0, "cn", fwd, KrylovOptions(tol=1e-13))
    f2 = strang_step(f1, "cn", bwd, KrylovOptions(tol=1e-13))
    assert np.max(np.abs(f2.values - f0.values)) < 1e-11


# ------------------------------------------------------------ poly steps


def test_poly_axis_identity_branch_when_velocity_zero():
    g = make_grid(1, 5.0, 64)
    ws = StepWorkspace(FLAT0, g, 0.3)
    ws.a_eff[0] = np.zeros(64)  # force the a = 0 branch of the blend
    f = gaussian_field(g)
    for step in (poly_axis_step, poly_axis_step2):
        out = step(f, 0, ws)
        assert np.max(np.abs(out.values - f.values)) < 1e-14


def test_poly_axis_unit_velocity_is_exact_shift():
    g = make_grid(1, 8.0, 256)
    dt = 0.125
    ws = StepWorkspace(FLAT0, g, dt)
    x = g.axes[0]
    d = diagonalize_alpha(1, 2)
    gauss = np.exp(-x ** 2 / 2)
    plus = SpinorField(np.stack([d.Pi[0, 0] * gauss, d.Pi[1, 0] * gauss]), g)
    out = poly_axis_step(plus, 0, ws)
    phi = np.einsum("ba,b...->a...", d.Pi.conj(), out.values)
    assert np.max(np.abs(phi[0] - np.exp(-((x - dt) ** 2) / 2))) < 1e-10
    assert np.max(np.abs(phi[1])) < 1e-13


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
    d = diagonalize_alpha(1, 2)

    def exact(dt):
        phi = np.einsum("ba,b...->a...", d.Pi.conj(), f.values)
        ph = np.exp(-1j * aconst * dt * np.outer(d.Lam, g.freqs[0]))
        out = np.fft.ifft(ph * np.fft.fft(phi, axis=1), axis=1)
        return np.einsum("ab,b...->a...", d.Pi, out)

    errs = []
    for dt in (0.02, 0.01, 0.005):
        ws = StepWorkspace(m, g, dt)
        out = stepper(f, 0, ws)
        errs.append(np.linalg.norm(out.values - exact(dt)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 1.7
    assert max(orders) < 2.6


def test_poly2_explicit_correction_has_cfl_restriction():
    # dt * xi_max > sqrt(2) amplifies the highest modes; below it stays bounded
    ximax = 256 / 2 * np.pi / 5.0
    cfg = RunConfig(d=1, a=5.0, N=256, metric=WELL, scheme="poly2", dt=0.02, T=2.0,
                    ic_kind="gaussian_wavepacket", ic_k0=3.0)
    assert cfg.dt * ximax > np.sqrt(2)
    res = run_simulation(cfg)
    grown = [r.l2 for r in res.diagnostics][-1]
    assert grown > 1e3 * res.diagnostics[0].l2
    cfg_ok = cfg.replace(dt=0.01, T=1.0)
    assert cfg_ok.dt * ximax < np.sqrt(2)
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


@pytest.mark.parametrize("scheme,lo,hi", [("cn", 1.8, 2.3), ("poly1", 0.85, 1.4), ("poly2", 0.85, 1.4)])
def test_temporal_orders(scheme, lo, hi):
    cfg = RunConfig(d=1, a=5.0, N=256, metric=WELL, scheme=scheme, dt=1e-3, T=0.1,
                    ic_kind="gaussian_wavepacket", ic_k0=3.0)
    rows = convergence_sweep(cfg, "dt", [4e-3, 2e-3, 1e-3, 5e-4], refine=4)
    slope = loglog_slope([p for p, _ in rows], [e for _, e in rows])
    assert lo <= slope <= hi


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
    from curvedirac.harness import preset_config
    from curvedirac.oracle import reference_run, restrict_to_coarse

    cfg = preset_config("exp1", "ci")
    res = run_simulation(cfg)
    assert res.diagnostics[-1].step == 1000
    ref = reference_run(cfg, refine=2)
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
    E = ws.exp_half
    prod = np.einsum("ab...,cb...->ac...", E, E.conj())
    eye = np.eye(2)[:, :, None]
    assert np.max(np.abs(prod - eye)) < 1e-12
