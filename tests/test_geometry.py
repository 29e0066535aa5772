import dataclasses
import re

import numpy as np
import pytest

from conftest import mesh_value
from curvedirac.errors import ConfigurationError, GeometryError
from curvedirac.geometry import (
    MetricModel,
    ScalarForm,
    gamma_weight,
    graphene_f,
    parse_form,
    sample_metric,
)
from curvedirac.grid_spectral import SpinorField, make_grid, spectral_derivative
from curvedirac.harness import (
    RunConfig, gamma_norm, initial_condition, preset_config, run_simulation,
)
from curvedirac.pml import PmlConfig, stretch_factor
from curvedirac.spinor_algebra import SIGMA1, SIGMA3, alpha_matrix, beta_matrix


EXP1 = preset_config("exp1").metric
EXP3 = preset_config("exp3").metric
EXP4 = preset_config("exp4").metric
EXP6 = preset_config("exp6").metric   # graphene without potentials
ZERO = ScalarForm("zero")


def potential_matrix(sample, S):
    """The dense (S, S, *grid) potential beta G + alpha . Gvec + scalar I of a sample."""
    shape = np.shape(sample.G)
    lift = lambda m: m.reshape((S, S) + (1,) * len(shape))
    out = lift(beta_matrix(S)) * sample.G + lift(np.eye(S)) * sample.scalar
    for i, g in enumerate(sample.Gvec):
        if np.ndim(g) or g:  # S = 2 has two alpha matrices: skip a zero third
            out = out + lift(alpha_matrix(i + 1, S)) * np.asarray(g)
    return np.broadcast_to(out, (S, S) + shape)


# ----------------------------------------------------------------- forms


def test_parse_form_round_trip():
    for text in ("zero", "gauss(1.0,0.005)", "cosgauss(1.0,0.1,0.01)", "linear(5.0)"):
        f = parse_form(text)
        assert parse_form(str(f)) == f


@pytest.mark.parametrize("text", ["zero", "const(0.7)", "gauss(1.3,0.2)", "well(0.8,0.1)"])
def test_forms_take_open_coordinates(text):
    form = parse_form(text)
    g = make_grid(2, (3.0, 2.0), (24, 18))
    meshes = g.meshes()
    open_coords = np.ix_(*g.axes)
    got = form.value(*open_coords)
    assert got.shape == g.shape
    assert got.flags.writeable and got.flags.c_contiguous
    for want in (form.value(*meshes), mesh_value(form, *meshes)):
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("text", ["cosgauss(1.0,0.7,0.05)", "linear(5.0)", "quadratic(2.0)",
                                  "inv_abs_one(1.0)"])
def test_one_dimensional_forms_reject_two_coordinates(text):
    form = parse_form(text)
    x, y = np.ix_(np.linspace(-1.0, 1.0, 5), np.linspace(-2.0, 2.0, 4))
    with pytest.raises(ConfigurationError, match="one-dimensional"):
        form.value(x, y)


def test_unknown_form_rejected():
    with pytest.raises(ConfigurationError):
        parse_form("sombrero(1.0)")
    with pytest.raises(ConfigurationError):
        parse_form("gauss(1.0)")  # wrong arity


# ----------------------------------------------------------------- velocities


def test_flat_velocity_is_one():
    g = make_grid(2, (3.0, 3.0), (8, 8))
    vel = sample_metric(MetricModel("flat"), g).velocity
    assert len(vel) == 2
    for a in vel:
        assert a.shape == g.shape and np.all(a == 1.0)


def test_exp1_velocity_at_origin_is_one():
    g = make_grid(1, 5.0, 100)  # h = 0.1 puts a node exactly at x = 0
    a = sample_metric(EXP1, g).velocity[0]
    k0 = np.argmin(np.abs(g.axes[0]))
    assert abs(g.axes[0][k0]) < 1e-12
    assert abs(a[k0] - 1.0) < 1e-14


def test_graphene_velocity_at_origin_is_one():
    g = make_grid(1, 10.0, 2000)
    a = sample_metric(EXP6, g).velocity[0]
    k0 = np.argmin(np.abs(g.axes[0]))
    assert abs(g.axes[0][k0]) < 1e-12
    assert abs(a[k0] - 1.0) < 1e-14


def test_graphene_f_values():
    assert graphene_f(0.0, 0.4, 2.0, 5.0) == 0.0
    # max over x sits where sin^2 = 1
    fmax = 2 * np.pi ** 2 * 0.4 ** 2 * 2.0 ** 2 / 5.0 ** 2
    x = np.linspace(-10, 10, 200001)
    assert abs(np.max(graphene_f(x, 0.4, 2.0, 5.0)) - fmax) < 1e-10
    assert fmax == pytest.approx(0.5053237, abs=1e-6)
    fmax5 = 2 * np.pi ** 2 * 0.4 ** 2 * 5.0 ** 2 / 10.0 ** 2
    assert fmax5 == pytest.approx(0.7895684, abs=1e-6)
    assert fmax5 < 1.0  # metric stays non-degenerate


# per kind, a field it does not read set away from its default
UNREAD_FIELDS = {
    "flat": [("phi", ScalarForm("gauss", (3.0, 0.1))), ("psi", ScalarForm("const", (0.2,))),
             ("a0", 0.4), ("k0", 2.0), ("ell", 5.0)],
    "graphene": [("phi", ScalarForm("gauss", (3.0, 0.1))), ("psi", ScalarForm("const", (0.2,)))],
    "static1d": [("a0", 0.4), ("k0", 2.0), ("ell", 5.0)],
    "static2d": [("a0", 0.4), ("k0", 2.0), ("ell", 5.0)],
}


@pytest.mark.parametrize("kind", UNREAD_FIELDS)
def test_a_field_its_kind_never_reads_is_rejected(kind):
    for name, value in UNREAD_FIELDS[kind]:
        with pytest.raises(ConfigurationError, match="does not read metric") as err:
            MetricModel(kind, **{name: value})
        assert err.value.field == name
    # the defaults themselves stay legal
    defaults = {name: getattr(MetricModel, name) for name, _ in UNREAD_FIELDS[kind]}
    assert MetricModel(kind, **defaults) == MetricModel(kind)


def test_graphene_degeneracy_raises():
    g = make_grid(1, 10.0, 256)
    with pytest.raises(GeometryError):
        sample_metric(MetricModel("graphene", a0=1.0, k0=2.0, ell=5.0), g)
    # finite parameters whose strain overflows: inf at most nodes, NaN (inf * 0)
    # at x = 0, so the largest strain reads NaN
    huge = MetricModel("graphene", a0=1e150, k0=1e150, ell=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(np.max(graphene_f(g.axes[0], huge.a0, huge.k0, huge.ell)))
        with pytest.raises(GeometryError, match="max f = nan"):
            sample_metric(huge, g)


@pytest.mark.parametrize("field", [gamma_weight, sample_metric])
def test_other_graphene_fields_reject_a_degenerate_metric(field):
    g = make_grid(1, 10.0, 256)
    with pytest.raises(GeometryError, match="degenerate graphene metric"):
        field(MetricModel("graphene", a0=1.0, k0=2.0, ell=5.0), g)



@pytest.mark.parametrize("phi,psi,name", [
    (ScalarForm("gauss", (1.0, -0.5)), ZERO, "velocity a^1"),    # exp(Phi - Psi)
    (ZERO, ScalarForm("gauss", (1.0, -0.5)), "covariant weight"),  # exp(2 Psi)
])
def test_overflowing_coefficients_raise_naming_the_first_bad_node(phi, psi, name):
    # growing forms that ScalarForm accepts: the coefficient overflows at the
    # box's edges, x = -5 first, and no numpy warning escapes
    g = make_grid(1, 5.0, 64)
    model = MetricModel("static1d", mass=1.0, phi=phi, psi=psi)
    field = gamma_weight if name == "covariant weight" else sample_metric
    with pytest.raises(GeometryError, match=re.escape(f"{name} is not finite at node (0,), x = (-5)")):
        field(model, g)


def test_velocity_bound_reports_supremum():
    g = make_grid(1, 5.0, 512)
    amax = max(float(np.max(a)) for a in sample_metric(EXP1, g).velocity)
    assert amax == pytest.approx(np.e ** (np.exp(-0.125) - np.exp(-0.25)), rel=1e-3)
    assert amax > 1.0  # the bump profiles make this metric superluminal-free but > 1


# ----------------------------------------------------------------- potentials


def test_flat_potential_mass_only():
    g = make_grid(1, 5.0, 16)
    M = potential_matrix(sample_metric(MetricModel("flat", mass=1.0), g), 2)
    for k in range(16):
        assert np.allclose(M[:, :, k], SIGMA3)


def test_graphene_potential_example_at_x_one():
    g = make_grid(1, 10.0, 2000)  # h = 0.01 puts a node exactly at x = 1
    k = np.argmin(np.abs(g.axes[0] - 1.0))
    assert abs(g.axes[0][k] - 1.0) < 1e-12
    f1 = graphene_f(1.0, 0.4, 2.0, 5.0)
    expected = -(1.0 / (1.0 - f1)) * 5.0 * SIGMA1 - 5.0 * SIGMA3
    M = potential_matrix(sample_metric(EXP4, g), 2)
    assert np.max(np.abs(M[:, :, k] - expected)) < 1e-12


@pytest.mark.parametrize("model,d,a,N", [
    (MetricModel("flat", mass=1.0), 1, 5.0, 64),
    (EXP1, 1, 5.0, 64),
    (EXP4, 1, 10.0, 128),
    (EXP3, 2, (5.0, 5.0), (16, 16)),
])
def test_potential_hermitian_everywhere(model, d, a, N):
    g = make_grid(d, a, N)
    M = potential_matrix(sample_metric(model, g), model.spinor_dim)
    swap = M.conj().transpose((1, 0) + tuple(range(2, M.ndim)))
    assert np.max(np.abs(M - swap)) < 1e-13


def _node(g, *x):
    """Grid index of the node at coordinates x, which must be a node."""
    k = tuple(int(np.argmin(np.abs(ax - xi))) for ax, xi in zip(g.axes, x))
    assert all(abs(ax[i] - xi) < 1e-12 for ax, i, xi in zip(g.axes, k, x))
    return k


@pytest.mark.parametrize("kind", ["flat", "static1d", "static2d", "graphene"])
def test_sample_matches_the_readme_table_at_a_node(kind):
    """velocity, gauge exponent and potential matrix of each kind at one
    node, from the closed forms of the README's table (S = 2: beta = sigma3,
    alpha = (sigma1, sigma2))."""
    m, r_phi, r_psi = 0.7, 1e-2, 5e-3
    phi, psi = ScalarForm("gauss", (1.0, r_phi)), ScalarForm("gauss", (1.0, r_psi))
    if kind == "flat":  # a = 1, M = beta m + I V - alpha . A
        model = MetricModel("flat", mass=m, v_pot=ScalarForm("linear", (3.0,)),
                            ax_pot=ScalarForm("quadratic", (2.0,)))
        g, x = make_grid(1, 10.0, 2000), (1.0,)
        vel, gauge = [1.0], None
        M = m * SIGMA3 + 3.0 * np.eye(2) - 2.0 * SIGMA1
    elif kind == "graphene":  # a = 1/(1 - f), M = -a A_x sigma1 + sigma3 (m - V)
        model = dataclasses.replace(EXP4, mass=m)
        g, x = make_grid(1, 10.0, 2000), (1.0,)
        a = 1.0 / (1.0 - graphene_f(1.0, 0.4, 2.0, 5.0))
        vel, gauge = [a], None
        M = -a * 5.0 * SIGMA1 + (m - 5.0) * SIGMA3
    else:  # a = e^(Phi - Psi), F = Phi (c^i = d_i Phi / 2), M = e^Phi sigma3 m
        model = MetricModel(kind, mass=m, phi=phi, psi=psi)
        if kind == "static1d":
            g, x = make_grid(1, 5.0, 100), (1.0,)
        else:
            g, x = make_grid(2, (5.0, 5.0), (100, 100)), (1.0, -2.0)
        rho2 = sum(xi * xi for xi in x)
        P = np.exp(-r_phi * rho2)
        vel = [np.exp(P - np.exp(-r_psi * rho2))] * len(x)
        gauge = P
        M = np.exp(P) * m * SIGMA3
    sample = sample_metric(model, g)
    k = _node(g, *x)
    assert len(sample.velocity) == g.d
    for got, want in zip(sample.velocity, vel):
        assert got[k] == pytest.approx(want, rel=1e-14)
    if gauge is None:
        assert sample.gauge is None
    else:
        assert sample.gauge[k] == pytest.approx(gauge, rel=1e-14)
    assert np.max(np.abs(potential_matrix(sample, 2)[(slice(None),) * 2 + k] - M)) < 1e-12


def test_potential_sampling_is_pure():
    def same(x, y):
        return np.asarray(x).tobytes() == np.asarray(y).tobytes()

    for model, g in ((EXP4, make_grid(1, 10.0, 64)), (EXP1, make_grid(1, 5.0, 64))):
        A, B = sample_metric(model, g), sample_metric(model, g)
        assert same(A.G, B.G) and same(A.scalar, B.scalar)
        assert (A.gauge is None) == (B.gauge is None)
        assert A.gauge is None or same(A.gauge, B.gauge)
        for name in ("velocity", "Gvec"):  # per-axis sequences
            a, b = getattr(A, name), getattr(B, name)
            assert len(a) == len(b)
            assert all(same(x, y) for x, y in zip(a, b)), name
        assert same(potential_matrix(A, 2), potential_matrix(B, 2))


# ----------------------------------------------------------------- connection


def test_connection_zero_for_flat_and_graphene():
    # no connection: no gauge exponent
    g = make_grid(1, 10.0, 64)
    assert sample_metric(MetricModel("flat"), g).gauge is None
    assert sample_metric(EXP4, g).gauge is None
    # a constant Phi has no gradient, so no connection either
    const = MetricModel("static1d", mass=1.0, phi=ScalarForm("const", (0.3,)),
                        psi=ScalarForm("gauss", (1.0, 1e-2)))
    assert sample_metric(const, g).gauge is None
    for model in (EXP1, EXP3):
        g = make_grid(model.dimension, 5.0, (32,) * model.dimension)
        assert np.array_equal(sample_metric(model, g).gauge, model.phi.value(*g.meshes()))


def test_connection_matches_analytic_phi_derivative():
    # the gauge applies the connection Phi'/2 of the analytic derivative:
    # e^{-F/2} a alpha [[d]] (e^{F/2} psi) = a alpha ([[d]] + Phi'/2) psi,
    # F = Phi, up to the spectral error of [[d]] on e^{F/2} psi, which falls
    # with N to round-off on a smooth Phi
    model = MetricModel("static1d", mass=1.0, phi=ScalarForm("gauss", (0.8, 0.5)),
                        psi=ScalarForm("gauss", (0.3, 0.8)))
    alpha = alpha_matrix(1, 2)
    gaps = []
    for N in (32, 48, 64, 96):
        g = make_grid(1, 6.0, N)
        x = g.axes[0]
        sample = sample_metric(model, g)
        a, e = sample.velocity[0], np.exp(0.5 * sample.gauge)
        psi = np.stack([np.exp(-x ** 2 + 2j * x), 0.5 * np.exp(-(x - 0.5) ** 2)])

        def d(v):
            return spectral_derivative(SpinorField(v, g), 0).values

        gauged = a * (alpha @ d(e * psi)) / e
        dphi = -2.0 * 0.5 * 0.8 * x * np.exp(-0.5 * x ** 2)
        shifted = a * (alpha @ (d(psi) + 0.5 * dphi * psi))
        gaps.append(np.max(np.abs(gauged - shifted)) / np.max(np.abs(shifted)))
    assert all(b < 1e-2 * a for a, b in zip(gaps[:2], gaps[1:3])), gaps
    assert gaps[0] > 1e-4 and gaps[-1] < 1e-14, gaps


# ----------------------------------------------------------------- weights


def test_gamma_weight_values():
    g = make_grid(1, 10.0, 4001)
    assert np.all(gamma_weight(MetricModel("flat"), g) == 1.0)
    w = gamma_weight(EXP6, g)
    assert abs(np.min(w) - (1.0 - 0.5053237)) < 1e-6
    x = g.axes[0]
    w1 = gamma_weight(EXP1, g)
    assert np.max(np.abs(w1 - np.exp(np.exp(-1e-2 * x ** 2)))) < 1e-12


def test_graphene_weight_inverts_velocity():
    g = make_grid(1, 10.0, 512)
    m = EXP6
    assert np.max(np.abs(gamma_weight(m, g) * sample_metric(m, g).velocity[0] - 1.0)) < 1e-14


def test_static2d_weight_is_exp_two_psi():
    m = MetricModel("static2d", phi=ScalarForm("zero"), psi=ScalarForm("gauss", (1.0, 5e-3)))
    g = make_grid(2, (5.0, 5.0), (8, 8))
    X, Y = g.meshes()
    assert np.max(np.abs(gamma_weight(m, g) - np.exp(2 * np.exp(-5e-3 * (X**2 + Y**2))))) < 1e-12


# ------------------------------------------------- conservation oracle


def test_static1d_weighted_norm_conserved_by_fine_run():
    """Validates the e^(d psi) weight: the weighted norm must be conserved by
    the dynamics (the plain l2 norm is not)."""
    cfg = RunConfig(d=1, a=5.0, N=1024, metric=EXP1, scheme="cn", dt=1e-4, T=0.1,
                    ic_kind="gaussian_wavepacket", ic_k0=5.0)
    res = run_simulation(cfg)
    l2g = np.array([r.l2_gamma for r in res.diagnostics])
    l2 = np.array([r.l2 for r in res.diagnostics])
    assert np.max(np.abs(l2g - l2g[0])) / l2g[0] < 1e-6
    # the unweighted norm moves by orders of magnitude more
    assert np.max(np.abs(l2 - l2[0])) / l2[0] > 1e2 * np.max(np.abs(l2g - l2g[0])) / l2g[0]


STRONG = MetricModel("static1d", mass=1.0, phi=ScalarForm("gauss", (0.8, 0.5)),
                     psi=ScalarForm("gauss", (0.3, 0.8)))


def test_static1d_strong_gradients_hold_the_covariant_norm_under_cn():
    # with the connection applied as a gauge a cn step conserves
    # int e^{Psi} |psi|^2 to the solver tolerance at every dt, however
    # strong the gradients; folded into a non-unitary pointwise factor it
    # drifted 2.2e-3 and 5.5e-4 here, as dt^2
    for dt in (0.032, 0.016):
        cfg = RunConfig(d=1, a=8.0, N=256, metric=STRONG, scheme="cn", dt=dt, T=2.0,
                        ic_kind="gaussian_wavepacket", ic_k0=3.0)
        res = run_simulation(cfg)
        l2g = np.array([r.l2_gamma for r in res.diagnostics])
        l2 = np.array([r.l2 for r in res.diagnostics])
        assert np.max(np.abs(l2g - l2g[0])) / l2g[0] < 1e-8, dt
        assert np.max(np.abs(l2 - l2[0])) / l2[0] > 0.05


def test_static1d_real_stretch_holds_the_stretched_covariant_norm():
    # C10a's law on a static metric: under a theta = 0 layer the stretch
    # acts on the covariant derivative as a whole, so a cn step conserves
    # int Re S e^{Psi} |psi|^2 while the packet enters the layer and the
    # plain covariant norm moves
    pml = PmlConfig(True, "I", 2.0, 0.0, 0.4)
    for dt in (0.032, 0.016):
        cfg = RunConfig(d=1, a=6.0, N=192, metric=STRONG, scheme="cn", dt=dt, T=2.0,
                        ic_kind="gaussian_wavepacket", ic_k0=3.0, pml=pml)
        res = run_simulation(cfg)
        grid = res.final.grid
        stretched = gamma_weight(STRONG, grid) * stretch_factor(pml, 0, grid).real
        n0 = gamma_norm(initial_condition(cfg, grid), stretched)
        assert abs(gamma_norm(res.final, stretched) - n0) / n0 < 1e-8, dt
        l2g = np.array([r.l2_gamma for r in res.diagnostics])
        assert np.max(np.abs(l2g - l2g[0])) / l2g[0] > 1e-4


def test_weighted_norm_drift_shrinks_with_dt():
    """Scheme-independent check of the weight: the explicit scheme's weighted-norm
    drift vanishes as dt -> 0 (here first order, so halving dt halves it)."""
    drifts = []
    for dt in (2e-4, 1e-4):
        cfg = RunConfig(d=1, a=5.0, N=512, metric=EXP1, scheme="poly1", dt=dt, T=0.02,
                        ic_kind="gaussian_wavepacket", ic_k0=5.0)
        res = run_simulation(cfg)
        l2g = np.array([r.l2_gamma for r in res.diagnostics])
        drifts.append(np.max(np.abs(l2g - l2g[0])) / l2g[0])
    assert drifts[1] < 0.7 * drifts[0]
    assert drifts[1] < 1e-4
