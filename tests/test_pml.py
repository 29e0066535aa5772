import numpy as np
import pytest

from curvedirac.errors import ConfigurationError
from curvedirac.geometry import MetricModel
from curvedirac.grid_spectral import make_grid
from curvedirac.harness import RunConfig, initial_condition, run_simulation
from curvedirac.pml import PROFILES, PmlConfig, apply_pml, sigma_profile, stretch_factor
from curvedirac.propagators import StepWorkspace, strang_step


EXP6_GEOM = dict(lstar=4.05, l=4.5)  # 10% layer on [-4.5, 4.5]


def test_config_validation():
    with pytest.raises(ConfigurationError):
        PmlConfig(profile="VII")
    with pytest.raises(ConfigurationError):
        PmlConfig(sigma0=-1.0)
    with pytest.raises(ConfigurationError):
        PmlConfig(theta=np.pi / 2)
    with pytest.raises(ConfigurationError):
        PmlConfig(fraction=1.5)


def test_sigma_zero_in_physical_region():
    x = np.linspace(-4.0, 4.0, 101)
    for prof in PROFILES:
        assert not np.any(sigma_profile(prof, 1.0, x, **EXP6_GEOM))


def test_sigma_type_one_values():
    # continuous at the interface, quadratic inside the layer
    assert sigma_profile("I", 1.0, 4.05, **EXP6_GEOM) == pytest.approx(0.0, abs=1e-15)
    assert sigma_profile("I", 1.0, 4.275, **EXP6_GEOM) == pytest.approx(0.050625, abs=1e-12)
    assert sigma_profile("I", 1.0, -4.275, **EXP6_GEOM) == pytest.approx(0.050625, abs=1e-12)


def test_sigma_all_types_nonnegative_on_layer():
    # sampled on the shipped layer geometry, each profile is an absorbing ramp
    x = np.linspace(4.0500001, 4.4999, 997)
    for prof in PROFILES:
        vals = sigma_profile(prof, 1.0, x, **EXP6_GEOM)
        assert np.all(vals >= -1e-12), prof


def test_sigma_singular_types_clamped_at_outer_boundary():
    for prof in ("III", "IV", "V", "VI"):
        v = sigma_profile(prof, 1.0, 4.5, h=0.01, **EXP6_GEOM)
        ref = sigma_profile(prof, 1.0, 4.49, h=0.01, **EXP6_GEOM)
        assert np.isfinite(v) and v == pytest.approx(ref, rel=1e-12)


def test_stretch_factor_values():
    g = make_grid(1, 4.5, 360)  # h = 0.025 puts a node exactly at x = 4.275
    cfg = PmlConfig(True, "I", 1.0, 0.0, 0.1)
    S = stretch_factor(cfg, 0, g)
    assert not np.iscomplexobj(S)
    phys = np.abs(g.axes[0]) < 4.05
    assert np.all(S[phys] == 1.0)
    k = np.argmin(np.abs(g.axes[0] - 4.275))
    assert abs(g.axes[0][k] - 4.275) < 1e-12
    assert S[k] == pytest.approx(1.050625, abs=1e-12)
    # rotated stretch: S = 1 + e^{i theta} Sigma
    S4 = stretch_factor(PmlConfig(True, "I", 1.0, np.pi / 4, 0.1), 0, g)
    assert np.iscomplexobj(S4)
    val = S4[k] - 1.0
    assert np.angle(val) == pytest.approx(np.pi / 4, abs=1e-12)
    # unit ramp value: S = 1 + (sqrt(2)/2)(1 + i)
    h = np.sqrt(2) / 2
    assert 1.0 + np.exp(1j * np.pi / 4) * 1.0 == pytest.approx((1 + h) + 1j * h, abs=1e-15)


def test_apply_pml_unit_stretch_is_identity(rng):
    a = rng.random((3, 7))
    out = apply_pml(a, np.ones(7), 1)
    assert np.array_equal(out, a)


def test_stretch_disabled_is_one():
    g = make_grid(1, 4.5, 64)
    assert np.all(stretch_factor(PmlConfig(), 0, g) == 1.0)


def test_apply_pml_values():
    a = np.ones(8)
    S = np.ones(8)
    S[6] = 1.050625
    out = apply_pml(a, S, 0)
    assert out[6] == pytest.approx(1.0 / 1.050625, abs=1e-12)
    assert out[6] == pytest.approx(0.9518153, abs=1e-6)
    # untouched nodes are bit-identical
    assert np.all(out[:6] == a[:6])


def test_apply_pml_broadcast_axis():
    a = np.ones((4, 6))
    S = np.array([1.0, 2.0, 1.0, 1.0, 1.0, 4.0])
    out = apply_pml(a, S, 1)
    assert out.shape == (4, 6)
    assert np.all(out[:, 1] == 0.5) and np.all(out[:, 5] == 0.25)


def test_disabled_pml_bit_identical_to_bypassed():
    cfg = RunConfig(d=1, a=4.5, N=128, metric=MetricModel("graphene", a0=0.4, k0=2.0, ell=5.0),
                    scheme="poly1", dt=1e-2, T=0.0, ic_kind="graphene_pair", ic_beta=2.0)
    g = cfg.grid()
    psi = initial_condition(cfg, g)
    ws_none = StepWorkspace(cfg.metric, g, 1e-2, pml=None)
    ws_off = StepWorkspace(cfg.metric, g, 1e-2, pml=PmlConfig(enabled=False))
    out_a = strang_step(psi, "poly1", ws_none)
    out_b = strang_step(psi, "poly1", ws_off)
    assert out_a.values.tobytes() == out_b.values.tobytes()


def test_rightward_packet_loses_norm_monotonically_inside_layer():
    """The layer is widened to half the domain so a narrow boosted packet fits
    fully inside; while it decelerates through the ramp the l2 norm must
    decrease at every step."""
    cfg = RunConfig(
        d=1, a=4.5, N=900, metric=MetricModel("flat", mass=0.0),
        scheme="cn", dt=1e-2, T=2.4,
        pml=PmlConfig(True, "I", 1.0, 0.0, 0.5),
        ic_kind="gaussian_wavepacket", ic_k0=12.0, ic_x0=1.0, ic_width=0.3,
    )
    res = run_simulation(cfg)
    l2 = np.array([r.l2 for r in res.diagnostics])
    # packet center enters the ramp (x = 2.25) around t ~ 0.9; sample well after
    window = l2[150:240]
    assert np.all(np.diff(window) < 0.0)
    assert window[-1] < 0.985 * window[0]
