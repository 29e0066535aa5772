import numpy as np
import pytest

from curvedirac.errors import ConfigurationError, GeometryError
from curvedirac.geometry import (
    MetricModel,
    ScalarForm,
    connection_fields,
    gamma_weight,
    graphene_f,
    parse_form,
    potential_field,
    velocity_bound,
    velocity_fields,
)
from curvedirac.grid_spectral import make_grid
from curvedirac.harness import RunConfig, run_simulation
from curvedirac.spinor_algebra import SIGMA1, SIGMA3


EXP1 = MetricModel("static1d", mass=1.0,
                   phi=ScalarForm("gauss", (1.0, 5e-3)),
                   psi=ScalarForm("gauss", (1.0, 1e-2)))
EXP4 = MetricModel("graphene", mass=0.0, a0=0.4, k0=2.0, ell=5.0,
                   ax_pot=ScalarForm("linear", (5.0,)),
                   v_pot=ScalarForm("linear", (5.0,)))


# ----------------------------------------------------------------- forms


def test_parse_form_round_trip():
    for text in ("zero", "gauss(1.0,0.005)", "cosgauss(1.0,0.1,0.01)", "linear(5.0)"):
        f = parse_form(text)
        assert parse_form(str(f)) == f


def test_form_gradients_match_finite_differences(rng):
    x = rng.uniform(-4, 4, size=50)
    eps = 1e-6
    for f in (ScalarForm("gauss", (1.3, 0.2)), ScalarForm("well", (0.8, 0.1)),
              ScalarForm("cosgauss", (1.0, 0.7, 0.05)), ScalarForm("quadratic", (2.0,))):
        g = f.grad(x)[0]
        fd = (f.value(x + eps) - f.value(x - eps)) / (2 * eps)
        assert np.max(np.abs(g - fd)) < 1e-7


def test_unknown_form_rejected():
    with pytest.raises(ConfigurationError):
        parse_form("sombrero(1.0)")
    with pytest.raises(ConfigurationError):
        parse_form("gauss(1.0)")  # wrong arity


# ----------------------------------------------------------------- velocities


def test_flat_velocity_is_one():
    g = make_grid(2, (3.0, 3.0), (8, 8))
    for a in velocity_fields(MetricModel("flat"), g):
        assert np.all(a == 1.0)


def test_exp1_velocity_at_origin_is_one():
    g = make_grid(1, 5.0, 100)  # h = 0.1 puts a node exactly at x = 0
    a = velocity_fields(EXP1, g)[0]
    k0 = np.argmin(np.abs(g.axes[0]))
    assert abs(g.axes[0][k0]) < 1e-12
    assert abs(a[k0] - 1.0) < 1e-14


def test_graphene_velocity_at_origin_is_one():
    g = make_grid(1, 10.0, 2000)
    a = velocity_fields(MetricModel("graphene", a0=0.4, k0=2.0, ell=5.0), g)[0]
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


def test_graphene_degeneracy_raises():
    g = make_grid(1, 10.0, 256)
    with pytest.raises(GeometryError):
        velocity_fields(MetricModel("graphene", a0=1.0, k0=2.0, ell=5.0), g)


@pytest.mark.parametrize("field", [gamma_weight, potential_field])
def test_other_graphene_fields_reject_a_degenerate_metric(field):
    g = make_grid(1, 10.0, 256)
    with pytest.raises(GeometryError, match="degenerate graphene metric"):
        field(MetricModel("graphene", a0=1.0, k0=2.0, ell=5.0), g)


def test_velocity_bound_reports_supremum():
    g = make_grid(1, 5.0, 512)
    assert velocity_bound(EXP1, g) == pytest.approx(np.e ** (np.exp(-0.125) - np.exp(-0.25)), rel=1e-3)
    assert velocity_bound(EXP1, g) > 1.0  # the bump profiles make this metric superluminal-free but > 1


# ----------------------------------------------------------------- potentials


def test_flat_potential_mass_only():
    g = make_grid(1, 5.0, 16)
    M = potential_field(MetricModel("flat", mass=1.0), g).matrix()
    for k in range(16):
        assert np.allclose(M[:, :, k], SIGMA3)


def test_graphene_potential_example_at_x_one():
    g = make_grid(1, 10.0, 2000)  # h = 0.01 puts a node exactly at x = 1
    k = np.argmin(np.abs(g.axes[0] - 1.0))
    assert abs(g.axes[0][k] - 1.0) < 1e-12
    f1 = graphene_f(1.0, 0.4, 2.0, 5.0)
    expected = -(1.0 / (1.0 - f1)) * 5.0 * SIGMA1 - 5.0 * SIGMA3
    M = potential_field(EXP4, g).matrix()
    assert np.max(np.abs(M[:, :, k] - expected)) < 1e-12


@pytest.mark.parametrize("model,d,a,N", [
    (MetricModel("flat", mass=1.0), 1, 5.0, 64),
    (EXP1, 1, 5.0, 64),
    (EXP4, 1, 10.0, 128),
    (MetricModel("static2d", mass=1.0, phi=ScalarForm("gauss", (1.0, 1e-2)),
                 psi=ScalarForm("gauss", (1.0, 5e-3))), 2, (5.0, 5.0), (16, 16)),
])
def test_potential_hermitian_everywhere(model, d, a, N):
    g = make_grid(d, a, N)
    M = potential_field(model, g).matrix()
    swap = M.conj().transpose((1, 0) + tuple(range(2, M.ndim)))
    assert np.max(np.abs(M - swap)) < 1e-13


def test_potential_sampling_is_pure():
    g = make_grid(1, 10.0, 64)
    A = potential_field(EXP4, g).matrix()
    B = potential_field(EXP4, g).matrix()
    assert A.tobytes() == B.tobytes()


# ----------------------------------------------------------------- connection


def test_connection_zero_for_flat_and_graphene():
    g = make_grid(1, 10.0, 64)
    assert not np.any(connection_fields(MetricModel("flat"), g)[0])
    assert not np.any(connection_fields(EXP4, g)[0])


def test_connection_matches_analytic_phi_derivative():
    g = make_grid(1, 5.0, 256)
    c = connection_fields(EXP1, g)[0]
    x = g.axes[0]
    analytic = 0.5 * (-2 * 5e-3 * x * np.exp(-5e-3 * x ** 2))
    assert np.max(np.abs(c - analytic)) < 1e-14
    assert abs(c[np.argmin(np.abs(x))]) < 1e-14


# ----------------------------------------------------------------- weights


def test_gamma_weight_values():
    g = make_grid(1, 10.0, 4001)
    assert np.all(gamma_weight(MetricModel("flat"), g) == 1.0)
    w = gamma_weight(MetricModel("graphene", a0=0.4, k0=2.0, ell=5.0), g)
    assert abs(np.min(w) - (1.0 - 0.5053237)) < 1e-6
    x = g.axes[0]
    w1 = gamma_weight(EXP1, g)
    assert np.max(np.abs(w1 - np.exp(np.exp(-1e-2 * x ** 2)))) < 1e-12


def test_graphene_weight_inverts_velocity():
    g = make_grid(1, 10.0, 512)
    m = MetricModel("graphene", a0=0.4, k0=2.0, ell=5.0)
    assert np.max(np.abs(gamma_weight(m, g) * velocity_fields(m, g)[0] - 1.0)) < 1e-14


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
