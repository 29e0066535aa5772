import codecs
import dataclasses
import hashlib
import math
import os
import re
import tracemalloc
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from conftest import mesh_gamma_weight, mesh_initial_condition, mesh_sample_metric
from curvedirac.errors import ConfigurationError, GeometryError, SimulationError
from curvedirac import propagators
from curvedirac.geometry import MetricModel, ScalarForm, gamma_weight, sample_metric
from curvedirac.grid_spectral import SpinorField, make_grid
from curvedirac.krylov import KrylovOptions
from curvedirac.pml import PmlConfig
from curvedirac.propagators import StepWorkspace, _half_factors, strang_step
from curvedirac import harness
from curvedirac.harness import (
    PRESET_NAMES,
    RunConfig,
    convergence_sweep,
    density,
    gamma_norm,
    initial_condition,
    l2_norm,
    parse_config,
    preset_config,
    read_snapshot,
    run_simulation,
    serialize_config,
    write_diagnostics,
    write_snapshot,
)
from curvedirac import cli

MINIMAL = """
grid.d = 1
grid.a = 5.0
grid.N = 64
metric.kind = flat
metric.m = 1.0
scheme.kind = cn
scheme.dt = 1e-3
scheme.T = 0.01
ic.kind = gaussian_wavepacket
ic.k0 = 5.0
"""


# ----------------------------------------------------------------- parsing


def test_empty_config_reports_first_missing_key():
    with pytest.raises(ConfigurationError, match="missing required key grid.d"):
        parse_config("")


def test_unknown_key_is_an_error_with_line_number():
    text = MINIMAL + "grid.spacing = 0.1\n"
    with pytest.raises(ConfigurationError, match=r"line \d+: unknown key 'grid.spacing'"):
        parse_config(text)


def test_negative_dt_rejected():
    with pytest.raises(ConfigurationError, match="scheme.dt"):
        parse_config(MINIMAL.replace("scheme.dt = 1e-3", "scheme.dt = -1"))


def test_duplicate_key_rejected():
    with pytest.raises(ConfigurationError, match="duplicate"):
        parse_config(MINIMAL + "scheme.dt = 1e-3\n")


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# header\n\n" + MINIMAL + "   # trailing comment line\n")
    assert cfg.N == (64,) and cfg.scheme == "cn"


def test_hash_inside_a_value_is_not_a_comment():
    text = MINIMAL + "output.dir = /data/run#3.csv  # trailing comment\n"
    cfg = parse_config(text + "output.stride = 5\t# tab before the comment\n")
    assert cfg.out_dir == "/data/run#3.csv" and cfg.stride == 5
    assert parse_config(serialize_config(cfg)) == cfg
    with pytest.raises(ConfigurationError, match="output.dir"):
        serialize_config(cfg.replace(out_dir="/data/run #3"))


def test_wrong_tuple_arity_rejected():
    with pytest.raises(ConfigurationError, match="comma-separated"):
        parse_config(MINIMAL.replace("grid.a = 5.0", "grid.a = 1,2,3"))


def test_bad_pml_profile_rejected():
    with pytest.raises(ConfigurationError, match="profile"):
        parse_config(MINIMAL + "pml.enabled = true\npml.type = Z\n")


def test_four_component_run_from_config():
    cfg = parse_config(MINIMAL + "metric.S = 4\n").replace(T=3e-3)
    res = run_simulation(cfg)
    assert res.final.spinor_dim == 4
    assert res.final.is_finite()
    l2 = [r.l2 for r in res.diagnostics]
    assert abs(l2[-1] - l2[0]) < 1e-8 * l2[0]  # flat 4-spinor stays unitary


def test_metric_grid_dimension_mismatch():
    bad = MINIMAL.replace("metric.kind = flat", "metric.kind = static2d")
    with pytest.raises(ConfigurationError, match="grid.d = 2"):
        parse_config(bad)


def test_static_metric_rejects_external_potentials():
    bad = MINIMAL.replace("metric.kind = flat", "metric.kind = static1d") + "metric.Ax = linear(5.0)\n"
    with pytest.raises(ConfigurationError, match="potential"):
        parse_config(bad)


def test_a_metric_field_its_kind_never_reads_is_reported_at_its_line():
    bad = MINIMAL.replace("metric.kind = flat", "metric.kind = graphene") + "metric.Phi = gauss(3,0.1)\n"
    line = bad.splitlines().index("metric.Phi = gauss(3,0.1)") + 1
    with pytest.raises(ConfigurationError, match=f"^line {line}: .*does not read metric.Phi"):
        parse_config(bad)


def test_cli_run_of_a_file_that_is_not_utf8_is_an_error_not_a_traceback(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_bytes(MINIMAL.encode() + b"# \xff\n")
    assert cli.main(["run", str(cfgfile)]) == 1
    assert f"error: {cfgfile}: not UTF-8 text" in capsys.readouterr().err


def test_graphene_pair_needs_two_components():
    bad = (MINIMAL.replace("ic.kind = gaussian_wavepacket", "ic.kind = graphene_pair")
           + "metric.S = 4\n")
    with pytest.raises(ConfigurationError, match="S = 2"):
        parse_config(bad)


@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("scale", ["ci", "paper"])
def test_config_round_trip(name, scale):
    cfg = preset_config(name, scale)
    assert parse_config(serialize_config(cfg)) == cfg


FLAT = RunConfig(d=1, a=5.0, N=64, metric=MetricModel("flat", mass=1.0),
                 scheme="cn", dt=1e-3, T=0.01)


def test_numpy_scalars_serialize_as_plain_numbers():
    cfg = FLAT.replace(dt=np.float64(1e-3), T=np.float32(0.5), stride=np.int64(5),
                       metric=MetricModel("flat", mass=np.float64(1.0)))
    text = serialize_config(cfg)
    assert "scheme.dt = 0.001\n" in text and "output.stride = 5\n" in text
    assert parse_config(text) == cfg

# each builds a config in Python the parser would reject; (field named, builder)
BAD_PYTHON_CONFIGS = {
    "unknown_ic_kind": ("ic_kind", lambda: FLAT.replace(ic_kind="bogus")),
    "negative_T": ("T", lambda: FLAT.replace(T=-1.0)),
    "infinite_T": ("T", lambda: FLAT.replace(T=float("inf"))),  # steps() would overflow
    "infinite_dt": ("dt", lambda: FLAT.replace(dt=float("inf"))),  # would take no step
    "zero_ic_width": ("ic_width", lambda: FLAT.replace(ic_width=0.0)),
    "krylov_restart_0": ("restart", lambda: KrylovOptions(restart=0)),  # built, never run
    "graphene_pair_S4": ("ic_kind", lambda: FLAT.replace(
        metric=MetricModel("flat", spinor_dim=4), ic_kind="graphene_pair")),
    "static1d_with_V": ("v_pot", lambda: MetricModel(
        "static1d", v_pot=ScalarForm("linear", (5.0,)))),
    "static2d_on_1d_grid": ("d", lambda: FLAT.replace(metric=MetricModel("static2d"))),
    "custom_without_path": ("ic_kind", lambda: FLAT.replace(ic_kind="custom")),
    "two_points": ("N", lambda: FLAT.replace(N=2)),
    "infinite_ic_width": ("ic_width", lambda: FLAT.replace(ic_width=float("inf"))),
    "negative_ic_beta": ("ic_beta", lambda: FLAT.replace(ic_beta=-1.0)),  # exp(+x^2/2)
    "zero_ic_beta": ("ic_beta", lambda: FLAT.replace(ic_beta=0.0)),  # a zero field
    "nan_ic_k0": ("ic_k0", lambda: FLAT.replace(ic_k0=float("nan"))),
    "infinite_ic_x0": ("ic_x0", lambda: FLAT.replace(ic_x0=float("-inf"))),
    "negative_stride": ("stride", lambda: FLAT.replace(stride=-3)),  # no snapshot
    "fractional_N": ("N", lambda: FLAT.replace(N=64.9)),  # int() would take 64
}


@pytest.mark.parametrize("case", BAD_PYTHON_CONFIGS)
def test_python_built_configs_get_the_parsers_checks(case):
    field, build = BAD_PYTHON_CONFIGS[case]
    with pytest.raises(ConfigurationError) as err:
        build()
    assert err.value.field == field


def test_integral_float_grid_sizes_are_taken_as_ints():
    cfg = preset_config("exp3", "ci")
    same = cfg.replace(d=2.0, N=64.0)
    assert same == cfg.replace(d=2, N=64)
    assert type(same.d) is int and all(type(n) is int for n in same.N)
    assert serialize_config(same) == serialize_config(cfg.replace(N=64))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_shipped_preset_files_round_trip_byte_for_byte(name):
    text = (resources.files("curvedirac") / "presets" / f"{name}.cfg").read_text()
    assert serialize_config(parse_config(text)) == text


def test_every_dataclass_field_has_one_schema_row():
    rows = [(owner, field) for _, owner, field, _, _ in harness._SCHEMA]
    assert len(rows) == len(set(rows)) == len({row[0] for row in harness._SCHEMA})
    parts = {"metric", "pml", "krylov"}  # RunConfig fields holding the other owners
    fields = {(owner, f.name) for owner in (RunConfig, MetricModel, PmlConfig, KrylovOptions)
              for f in dataclasses.fields(owner) if f.init and f.name not in parts}
    assert set(rows) == fields
    # a key without a dataclass default must be given in the file
    for key, owner, field, _, required in harness._SCHEMA:
        f = next(f for f in dataclasses.fields(owner) if f.name == field)
        if f.default is dataclasses.MISSING:
            assert required, key


def test_parse_errors_from_dataclass_checks_name_the_line():
    bad = MINIMAL.replace("scheme.T = 0.01", "scheme.T = -1")
    with pytest.raises(ConfigurationError, match=r"^line 9: scheme.T must be >= 0"):
        parse_config(bad)
    with pytest.raises(ConfigurationError, match=r"^line 12: krylov restart must be >= 1"):
        parse_config(MINIMAL + "krylov.restart = 0\n")
    with pytest.raises(ConfigurationError, match=r"^line 4: point count N\[0\] must be >= 4"):
        parse_config(MINIMAL.replace("grid.N = 64", "grid.N = 2"))


# (preset, key, value): a model or layer parameter that is not finite
NON_FINITE = [
    ("exp5", "metric.m", "nan"),
    ("exp4", "metric.a0", "inf"),
    ("exp4", "metric.k0", "nan"),
    ("exp4", "metric.ell", "inf"),
    ("exp1", "metric.Phi", "gauss(nan,0.005)"),
    ("exp4", "metric.V", "linear(inf)"),
    ("exp6", "pml.sigma0", "nan"),
    ("exp6", "pml.sigma0", "inf"),
    ("exp5", "ic.beta", "inf"),
    ("exp5", "ic.k0", "nan"),
    ("exp1", "ic.x0", "inf"),
    ("exp1", "ic.width", "inf"),
]


@pytest.mark.parametrize("name,key,value", NON_FINITE)
def test_non_finite_parameters_are_rejected_at_their_line(name, key, value):
    lines = serialize_config(preset_config(name, "ci")).splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith(f"{key} ="))
    lines[k] = f"{key} = {value}"
    with pytest.raises(ConfigurationError, match=rf"^line {k + 1}: .*finite"):
        parse_config("\n".join(lines))


# (scheme, dt, N paper, N ci, T paper, T ci) as the paper runs them
PRESET_TABLE = {
    "exp1": ("cn", 5e-4, (18027,), (512,), 0.5, 0.5),
    "exp2": ("cn", 5e-4, (20001,), (512,), 1.0, 0.5),
    "exp3": ("poly1", 1.14e-4, (512, 512), (128, 128), 4.56e-2, 1.14e-2),
    "exp4": ("cn", 1e-2, (2000,), (1000,), 1.6, 1.6),
    "exp5": ("cn", 1e-2, (1000,), (1000,), 0.8, 0.8),
    "exp6": ("cn", 1e-2, (900,), (900,), 4.0, 4.0),
}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_shipped_preset_files_parse_to_paper_scale(name):
    scheme, dt, n_paper, n_ci, t_paper, t_ci = PRESET_TABLE[name]
    text = (resources.files("curvedirac") / "presets" / f"{name}.cfg").read_text()
    cfg = parse_config(text)
    assert (cfg.scheme, cfg.N, cfg.dt, cfg.T) == (scheme, n_paper, dt, t_paper)
    cfg = preset_config(name, "ci")
    assert (cfg.scheme, cfg.N, cfg.dt, cfg.T) == (scheme, n_ci, dt, t_ci)


def test_preset_names_are_the_shipped_files():
    shipped = {p.name[:-4] for p in (resources.files("curvedirac") / "presets").iterdir()
               if p.name.endswith(".cfg")}
    assert shipped == set(PRESET_NAMES) == set(PRESET_TABLE)
    with pytest.raises(ConfigurationError, match="unknown preset"):
        preset_config("exp7")
    with pytest.raises(ConfigurationError, match="scale"):
        preset_config("exp1", "huge")


# ----------------------------------------------------------------- initial data


def test_gaussian_wavepacket_amplitude_at_origin():
    cfg = parse_config(MINIMAL).replace(N=(100,))
    g = cfg.grid()
    f = initial_condition(cfg, g)
    k = np.argmin(np.abs(g.axes[0]))
    assert abs(g.axes[0][k]) < 1e-12
    assert abs(f.values[0, k] - 1.0) < 1e-12
    assert not np.any(f.values[1])


def test_graphene_pair_norm_matches_gaussian_integral():
    cfg = RunConfig(d=1, a=10.0, N=2000, metric=preset_config("exp6").metric,
                    scheme="cn", dt=1e-2, T=0.0, ic_kind="graphene_pair", ic_beta=2.0)
    f = initial_condition(cfg, cfg.grid())
    # integral of 2 beta^2 exp(-beta x^2) / (4 pi) dx = beta^(3/2) / (2 sqrt(pi))
    expect = 2.0 ** 1.5 / (2.0 * np.sqrt(np.pi))
    assert l2_norm(f) ** 2 == pytest.approx(expect, abs=1e-12)
    assert np.allclose(f.values[1], 1j * f.values[0])


def test_wavepacket_2d_at_origin():
    cfg = RunConfig(d=2, a=(5.0, 5.0), N=(100, 100),
                    metric=MetricModel("static2d", mass=1.0,
                                       phi=ScalarForm("gauss", (1.0, 1e-2)),
                                       psi=ScalarForm("gauss", (1.0, 5e-3))),
                    scheme="poly1", dt=1e-4, T=0.0,
                    ic_kind="gaussian_wavepacket", ic_k0=(5.0, 5.0))
    g = cfg.grid()
    f = initial_condition(cfg, g)
    i = np.argmin(np.abs(g.axes[0]))
    j = np.argmin(np.abs(g.axes[1]))
    assert abs(f.values[0, i, j] - 1.0) < 1e-12


def test_density_values():
    cfg = RunConfig(d=1, a=10.0, N=2000, metric=preset_config("exp6").metric,
                    scheme="cn", dt=1e-2, T=0.0, ic_kind="graphene_pair", ic_beta=2.0)
    g = cfg.grid()
    f = initial_condition(cfg, g)
    rho = density(f)
    k = np.argmin(np.abs(g.axes[0]))
    assert rho[k] == pytest.approx(2.0 / np.pi, abs=1e-12)
    assert g.cell_volume() * np.sum(rho) == pytest.approx(l2_norm(f) ** 2, rel=1e-14)
    zero = SpinorField(np.zeros((2, 2000), dtype=complex), g)
    assert not np.any(density(zero))


@pytest.mark.parametrize("S,shape", [(2, (48,)), (4, (12, 10))], ids=["1d-S2", "2d-S4"])
def test_norms_match_the_weighted_sums(rng, S, shape):
    g = make_grid(len(shape), (3.0,) * len(shape), shape)
    f = SpinorField(rng.standard_normal((S,) + shape) + 1j * rng.standard_normal((S,) + shape), g)
    weight = rng.random(shape)
    rho = np.sum(np.abs(f.values) ** 2, axis=0)
    assert l2_norm(f) == pytest.approx(np.sqrt(g.cell_volume() * np.sum(rho)), rel=1e-14)
    assert gamma_norm(f, weight) == pytest.approx(np.sqrt(g.cell_volume() * np.sum(weight * rho)), rel=1e-14)
    # the density from two einsums over the strided real and imaginary parts
    re, im = f.values.real, f.values.imag
    dens = np.einsum("k...,k...->...", re, re) + np.einsum("k...,k...->...", im, im)
    parts = np.sqrt(g.cell_volume() * np.dot(weight.ravel(), dens.ravel()))
    assert gamma_norm(f, weight) == pytest.approx(parts, rel=1e-15)
    spin_last = SpinorField(np.moveaxis(np.moveaxis(f.values, 0, -1).copy(), -1, 0), g)
    assert not spin_last.values.flags.c_contiguous
    assert gamma_norm(spin_last, weight) == gamma_norm(f, weight)


def _setup_fields(cfg, mesh):
    """The set-up build's fields by name: initial data, covariant weight,
    every field of the metric sample and the two pointwise half step
    factors, from the package or (mesh) from the full-mesh formulas."""
    grid = cfg.grid()
    if mesh:
        psi, sample = mesh_initial_condition(cfg, grid), mesh_sample_metric(cfg.metric, grid)
        weight = mesh_gamma_weight(cfg.metric, grid)
        gauge = None if sample.gauge is None else np.exp(0.5 * sample.gauge)
        lead, trail = _half_factors(sample, 0.5 * cfg.dt, cfg.metric.spinor_dim, gauge)
    else:
        psi, sample = initial_condition(cfg, grid), sample_metric(cfg.metric, grid)
        weight = gamma_weight(cfg.metric, grid)
        ws = StepWorkspace(cfg.metric, grid, cfg.dt, cfg.pml)
        lead, trail = ws.lead, ws.trail
    fields = {"ic": psi.values, "weight": weight, "G": sample.G,
              "scalar": np.asarray(sample.scalar)}
    fields.update((f"velocity{i}", v) for i, v in enumerate(sample.velocity))
    named = {"gauge": sample.gauge, "g": sample.g, "lead": lead[0], "lead coupling": lead[1],
             "trail": trail[0], "trail coupling": trail[1]}
    fields.update((key, v) for key, v in named.items() if v is not None)
    return fields


@pytest.mark.parametrize("scale", ["ci", "paper"])
@pytest.mark.parametrize("name", ["exp1", "exp4", "exp5", "exp6"])
def test_1d_setup_is_byte_equal_to_the_full_mesh_formulas(name, scale):
    cfg = preset_config(name, scale)
    got, want = _setup_fields(cfg, False), _setup_fields(cfg, True)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].dtype == want[key].dtype and got[key].shape == want[key].shape, key
        assert got[key].tobytes() == want[key].tobytes(), key


@pytest.mark.parametrize("scale", ["ci", "paper"])
def test_2d_setup_sampled_per_axis_matches_the_full_mesh_formulas(scale):
    cfg = preset_config("exp3", scale)
    got, want = _setup_fields(cfg, False), _setup_fields(cfg, True)
    assert got.keys() == want.keys()
    for key in want:
        g, w = got[key], want[key]
        assert g.shape == w.shape, key
        if g.ndim:  # the scalar potential is the number 0.0
            assert g.shape[-2:] == cfg.grid().shape, key
            assert g.flags.c_contiguous and g.flags.writeable, key
        assert np.max(np.abs(g - w)) <= 1e-15 * np.max(np.abs(w)), key


def test_2d_run_from_the_per_axis_setup_matches_the_full_mesh_run(monkeypatch):
    cfg = preset_config("exp3", "ci")
    cfg = cfg.replace(T=10 * cfg.dt)
    assert cfg.steps() == 10
    got = run_simulation(cfg).final.values
    monkeypatch.setattr(harness, "initial_condition", mesh_initial_condition)
    monkeypatch.setattr(harness, "gamma_weight", mesh_gamma_weight)
    monkeypatch.setattr(propagators, "sample_metric", mesh_sample_metric)
    want = run_simulation(cfg).final.values
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_2d_initial_condition_allocates_only_its_field():
    cfg = preset_config("exp3", "paper")
    grid = cfg.grid()
    field_bytes = cfg.metric.spinor_dim * math.prod(grid.shape) * np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        f = initial_condition(cfg, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.values.shape == (cfg.metric.spinor_dim,) + grid.shape
    assert peak <= 1.25 * field_bytes


# ----------------------------------------------------------------- simulation


def test_zero_horizon_returns_initial_condition():
    cfg = parse_config(MINIMAL).replace(T=0.0)
    res = run_simulation(cfg)
    assert len(res.diagnostics) == 1
    f0 = initial_condition(cfg, cfg.grid())
    assert np.array_equal(res.final.values, f0.values)


def test_final_step_shortened_to_hit_horizon():
    cfg = parse_config(MINIMAL).replace(T=0.0025, dt=1e-3)
    res = run_simulation(cfg)
    assert res.diagnostics[-1].step == 3
    assert res.diagnostics[-1].t == pytest.approx(0.0025, rel=1e-12)
    # the shortened step is bit for bit one from a workspace built for it
    rem = cfg.T - 2 * cfg.dt
    before = run_simulation(cfg.replace(T=2 * cfg.dt)).final
    want = strang_step(before, cfg.scheme, StepWorkspace(cfg.metric, cfg.grid(), rem, cfg.pml),
                       cfg.krylov)
    assert res.final.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("scheme", ["cn", "poly1"])
def test_a_run_samples_the_metric_once(monkeypatch, scheme):
    # three steps, the last one shortened
    calls = []

    def counted(*args):
        calls.append(args)
        return sample_metric(*args)

    monkeypatch.setattr(propagators, "sample_metric", counted)
    res = run_simulation(parse_config(MINIMAL).replace(scheme=scheme, T=0.0025, dt=1e-3))
    assert res.diagnostics[-1].t == pytest.approx(0.0025, rel=1e-12)
    assert len(res.diagnostics) == 4 and len(calls) == 1


def test_overflowing_metric_is_rejected_before_any_file(tmp_path):
    # exp1 with Phi = exp(x^2 / 2), a growing form that ScalarForm accepts:
    # exp(Phi - Psi) overflows at the box's edges.  It used to warn, and then
    # halt at step 1 on a non-finite operator.
    cfg = preset_config("exp1", "ci")
    out = tmp_path / "out"
    out.mkdir()
    cfg = cfg.replace(metric=dataclasses.replace(cfg.metric, phi=ScalarForm("gauss", (1.0, -0.5))),
                      out_dir=str(out))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match=r"velocity a\^1 is not finite at node \(0,\), x = \(-5\)"):
            StepWorkspace(cfg.metric, cfg.grid(), cfg.dt, cfg.pml)
        with pytest.raises(GeometryError, match=r"velocity a\^1"):
            run_simulation(cfg)
    assert not any(out.iterdir())


def test_simulation_deterministic():
    cfg = preset_config("exp5", "ci").replace(T=0.1)
    a = run_simulation(cfg)
    b = run_simulation(cfg)
    assert a.final.values.tobytes() == b.final.values.tobytes()


def test_simulation_halts_on_krylov_failure():
    from curvedirac.krylov import KrylovOptions

    cfg = parse_config(MINIMAL).replace(
        metric=preset_config("exp1").metric,
        dt=0.5, T=2.0, krylov=KrylovOptions(tol=1e-14, restart=2, maxit=2))
    with pytest.raises(SimulationError) as err:
        run_simulation(cfg)
    assert err.value.step == 0
    assert len(err.value.diagnostics) == 1


@pytest.mark.parametrize("scheme", ["cn", "poly1"])
def test_nan_in_initial_field_halts_with_diagnostics(tmp_path, scheme):
    # the initial field is checked before step 1, so neither scheme steps
    cfg = preset_config("exp5", "ci").replace(scheme=scheme, stride=0)
    f0 = initial_condition(cfg, cfg.grid())
    f0.values[0, 500] = np.nan
    ic = write_snapshot(f0, str(tmp_path / "ic.csv"))
    out = tmp_path / "out"
    cfg = cfg.replace(ic_kind="custom", ic_path=ic, out_dir=str(out))
    with pytest.raises(SimulationError, match="step 0: initial field is not finite") as err:
        run_simulation(cfg)
    assert err.value.step == 0
    assert err.value.__cause__ is None
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0,0.0,nan,nan,")


@pytest.mark.filterwarnings("ignore:overflow")
def test_simulation_halts_on_blowup(monkeypatch):
    # a field that turns non-finite -> halt.  A field that grows until its
    # norm overflows now meets the growth bound first, so a step that sets
    # one value to inf at step 15 stands in for it
    cfg = RunConfig(d=1, a=5.0, N=256,
                    metric=MetricModel("static1d", mass=0.0, phi=ScalarForm("zero"),
                                       psi=ScalarForm("well", (1.0, 5e-3))),
                    scheme="poly1", dt=0.005, T=1.0,
                    ic_kind="gaussian_wavepacket", ic_k0=3.0)
    step = harness.strang_step
    calls = []

    def overflowing_step(f, *a, **k):
        out = step(f, *a, **k)
        calls.append(1)
        if len(calls) == 15:
            out.values[0, 0] = np.inf
        return out

    monkeypatch.setattr(harness, "strang_step", overflowing_step)
    with pytest.raises(SimulationError, match="non-finite") as err:
        run_simulation(cfg)
    assert err.value.step == 14
    assert_names_time_and_last_good_norms(err.value, cfg.dt)


def assert_names_time_and_last_good_norms(error, dt):
    # the failed step's time, then the last good step's time and norms
    last = error.diagnostics[-1]
    assert last.step == error.step
    assert str(error).startswith(f"step {error.step + 1}: ")
    assert str(error).endswith(
        f" at t = {last.t + dt:.9g}; last good: step {last.step}, t = {last.t:.9g}, "
        f"l2 = {last.l2:.9e}, l2_gamma = {last.l2_gamma:.9e}")


def test_simulation_halts_on_growth_before_overflow(tmp_path):
    # exp6 with a rotated layer (theta = 1.2) grows l2_gamma by 1e24 over
    # its 400 steps; the run halts at the first step past GROWTH_BOUND
    cfg = preset_config("exp6", "paper").replace(
        pml=PmlConfig(True, "I", 3.0, 1.2, 0.1), out_dir=str(tmp_path), stride=0)
    with pytest.raises(SimulationError, match="l2_gamma grew") as err:
        run_simulation(cfg)
    step, ratio = re.match(r"step (\d+): l2_gamma grew to ([\d.]+) times", str(err.value)).groups()
    assert err.value.step == int(step) - 1 < cfg.steps()
    assert harness.GROWTH_BOUND < float(ratio) < 2 * harness.GROWTH_BOUND
    records = err.value.diagnostics
    assert records[-1].step == err.value.step
    assert max(r.l2_gamma for r in records) <= harness.GROWTH_BOUND * records[0].l2_gamma
    written = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert len(written) == 1 + len(records)
    assert_names_time_and_last_good_norms(err.value, cfg.dt)


def test_krylov_iterations_recorded_only_for_cn():
    cfg = preset_config("exp4", "ci").replace(T=0.05)
    res = run_simulation(cfg)
    assert all(r.krylov_iters is not None for r in res.diagnostics[1:])
    assert all(0 < r.krylov_residual <= cfg.krylov.tol for r in res.diagnostics[1:])
    # the band path: GMRES's first residual check is its one product
    assert all(r.krylov_products == 1 for r in res.diagnostics[1:])
    cfg = preset_config("exp3", "ci").replace(T=5 * 1.14e-4)
    res = run_simulation(cfg)
    assert all(r.krylov_iters is None for r in res.diagnostics[1:])
    assert all(r.krylov_residual is None for r in res.diagnostics[1:])
    assert all(r.krylov_products is None for r in res.diagnostics[1:])


# ----------------------------------------------------------------- files


def test_snapshot_csv_format(tmp_path):
    g = make_grid(1, 2.0, 4)
    f = SpinorField(np.arange(8).reshape(2, 4) * (1 + 2j), g)
    p = write_snapshot(f, str(tmp_path / "snap.csv"))
    lines = open(p).read().splitlines()
    assert lines[0] == "x,re0,im0,re1,im1"
    assert len(lines) == 5
    back = read_snapshot(p, g, 2)
    assert np.max(np.abs(back.values - f.values)) < 1e-15


def test_snapshot_csv_2d_header_and_order(tmp_path):
    g = make_grid(2, (1.0, 1.0), (4, 4))
    v = np.zeros((2, 4, 4), dtype=complex)
    v[0, 1, 2] = 3.5 - 1j
    f = SpinorField(v, g)
    p = write_snapshot(f, str(tmp_path / "snap.csv"))
    lines = open(p).read().splitlines()
    assert lines[0] == "x,y,re0,im0,re1,im1"
    assert len(lines) == 17
    # row-major: node (1, 2) sits at row 1 + 1*4 + 2
    row = lines[1 + 1 * 4 + 2].split(",")
    assert float(row[0]) == g.axes[0][1] and float(row[1]) == g.axes[1][2]
    assert float(row[2]) == 3.5 and float(row[3]) == -1.0


def test_snapshot_bit_stable(tmp_path):
    g = make_grid(1, 3.0, 32)
    rng = np.random.default_rng(3)
    f = SpinorField(rng.standard_normal((2, 32)) + 1j * rng.standard_normal((2, 32)), g)
    p1 = write_snapshot(f, str(tmp_path / "a.csv"))
    p2 = write_snapshot(f, str(tmp_path / "b.csv"))
    assert open(p1, "rb").read() == open(p2, "rb").read()



def test_snapshot_saved_with_a_byte_order_mark_reads_back(tmp_path):
    # spreadsheet "CSV UTF-8" exports put a BOM before the header
    g = make_grid(1, 3.0, 32)
    rng = np.random.default_rng(3)
    f = SpinorField(rng.standard_normal((2, 32)) + 1j * rng.standard_normal((2, 32)), g)
    p = Path(write_snapshot(f, str(tmp_path / "bom.csv")))
    p.write_bytes(codecs.BOM_UTF8 + p.read_bytes())
    assert read_snapshot(str(p), g, 2).values.tobytes() == f.values.tobytes()


# The expected bytes below were written by the per-node writer that the
# streamed one replaced: the files must not change.
TINY_S4_CSV = """\
x,y,re0,im0,re1,im1,re2,im2,re3,im3
-1.0,-2.0,-0.0,5e-324,-2.5,1.25,0.0,0.0,2.5,-1.25
-1.0,-1.2,-4.875,2.4375,-2.375,1.1875,0.125,-0.0625,2.625,-1.3125
-1.0,-0.3999999999999999,-4.75,2.375,-2.25,1.125,0.25,-0.125,2.75,-1.375
-1.0,0.40000000000000036,-4.625,2.3125,-2.125,1.0625,0.375,-0.1875,2.875,-1.4375
-1.0,1.2000000000000002,-4.5,2.25,-2.0,1.0,0.5,-0.25,3.0,-1.5
-0.5,-2.0,-4.375,2.1875,-1.875,0.9375,0.625,-0.3125,3.125,-1.5625
-0.5,-1.2,-4.25,2.125,-1.75,0.875,0.75,-0.375,3.25,-1.625
-0.5,-0.3999999999999999,-4.125,2.0625,-1.625,0.8125,0.875,-0.4375,3.375,-1.6875
-0.5,0.40000000000000036,-4.0,2.0,-1.5,0.75,1.0,-0.5,3.5,-1.75
-0.5,1.2000000000000002,-3.875,1.9375,-1.375,0.6875,1.125,-0.5625,3.625,-1.8125
0.0,-2.0,-3.75,1.875,-1.25,0.625,1.25,-0.625,3.75,-1.875
0.0,-1.2,-3.625,1.8125,-1.125,0.5625,1.375,-0.6875,3.875,-1.9375
0.0,-0.3999999999999999,-3.5,1.75,-1.0,0.5,1.5,-0.75,4.0,-2.0
0.0,0.40000000000000036,-3.375,1.6875,-0.875,0.4375,1.625,-0.8125,4.125,-2.0625
0.0,1.2000000000000002,-3.25,1.625,-0.75,0.375,1.75,-0.875,4.25,-2.125
0.5,-2.0,-3.125,1.5625,-0.625,0.3125,1.875,-0.9375,4.375,-2.1875
0.5,-1.2,-3.0,1.5,-0.5,0.25,2.0,-1.0,4.5,-2.25
0.5,-0.3999999999999999,-2.875,1.4375,-0.375,0.1875,2.125,-1.0625,4.625,-2.3125
0.5,0.40000000000000036,-2.75,1.375,-0.25,0.125,2.25,-1.125,4.75,-2.375
0.5,1.2000000000000002,-2.625,1.3125,-0.125,0.0625,2.375,-1.1875,1e+300,-1e-300
"""


def test_snapshot_golden_tiny_2d_s4(tmp_path):
    g = make_grid(2, (1.0, 2.0), (4, 5))
    v = (np.arange(80).reshape(4, 4, 5) - 40) / 8.0 * (1 - 0.5j)
    v[0, 0, 0] = complex(-0.0, 5e-324)
    v[3, 3, 4] = complex(1e300, -1e-300)
    p = write_snapshot(SpinorField(v, g), str(tmp_path / "tiny.csv"))
    assert Path(p).read_bytes() == TINY_S4_CSV.encode()


GOLDEN_SPECIALS = [-0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1e-300, -1e-300, 0.1]

# name: (d, N, S, sha256 of the spinor file);
# the 'slabs' grids end part-way through a slab of rows
GOLDEN_CASES = {
    "1d-s2-odd": (1, (37,), 2,
                  "e2ee9b5fa6fd85d012cfeb6465aa4328283333175b9400a4dc4ea8118b41b227"),
    "1d-s4-slabs": (1, (5001,), 4,
                    "ebe9ba00312d1169947a0b0f94a977e0559c075bda2b5728a0e0a51ca231a064"),
    "2d-s2-odd": (2, (9, 7), 2,
                  "61583987bc49e0d668088b29664545e03750a696c6f50827a1afc2f362bd6252"),
    "2d-s4-slabs": (2, (67, 129), 4,
                    "c7361b4b86fac9768db29f9d44be8344cd5325f6449b302b78d9229154a6e39f"),
}


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("seed,name", list(enumerate(GOLDEN_CASES)))
def test_snapshot_golden_digests(tmp_path, seed, name):
    d, N, S, spinor_digest = GOLDEN_CASES[name]
    g = make_grid(d, (2.5, 1.5)[:d], N)
    rng = np.random.default_rng(seed)
    shape = (2, S) + g.shape
    parts = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    flat = parts.reshape(2, -1)
    flat[:, :len(GOLDEN_SPECIALS)] = GOLDEN_SPECIALS
    flat[:, -len(GOLDEN_SPECIALS):] = GOLDEN_SPECIALS[::-1]
    v = parts[0] + 1j * parts[1]
    assert _sha256(write_snapshot(SpinorField(v, g), str(tmp_path / "f.csv"))) == spinor_digest


def test_snapshot_csv_is_streamed(tmp_path):
    g = make_grid(2, (3.0, 2.0), (256, 256))
    rng = np.random.default_rng(0)
    f = SpinorField(rng.standard_normal((4, 256, 256)) + 1j * rng.standard_normal((4, 256, 256)), g)
    tracemalloc.start()
    try:
        p = write_snapshot(f, str(tmp_path / "big.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.endswith(".csv")
    assert peak < os.path.getsize(p) / 4


def test_read_snapshot_rejects_another_half_width(tmp_path):
    f = SpinorField(np.ones((2, 64), dtype=complex), make_grid(1, 5.0, 64))
    p = write_snapshot(f, str(tmp_path / "a5.csv"))
    with pytest.raises(ConfigurationError, match="a5.csv: column x"):
        read_snapshot(p, make_grid(1, 10.0, 64), 2)


def test_read_snapshot_rejects_another_grid_shape(tmp_path):
    f = SpinorField(np.ones((2, 8, 8), dtype=complex), make_grid(2, (1.0, 1.0), (8, 8)))
    p = write_snapshot(f, str(tmp_path / "g8x8.csv"))
    with pytest.raises(ConfigurationError, match="g8x8.csv: column x"):
        read_snapshot(p, make_grid(2, (1.0, 1.0), (16, 4)), 2)


def test_read_snapshot_rejects_another_header(tmp_path):
    g = make_grid(1, 5.0, 64)
    p = str(tmp_path / "rho.csv")
    Path(p).write_text("x,density\n" + "".join(f"{x!r},1.0\n" for x in g.axes[0].tolist()))
    with pytest.raises(ConfigurationError, match="rho.csv: header 'x,density' is not 'x,re0"):
        read_snapshot(p, g, 2)


def test_large_2d_snapshot_goes_binary(tmp_path):
    g = make_grid(2, (1.0, 1.0), (260, 260))
    v = np.zeros((2, 260, 260), dtype=complex)
    v[0] = np.exp(1j * np.add.outer(g.axes[0], g.axes[1]))
    f = SpinorField(v, g)
    tracemalloc.start()
    try:
        p = write_snapshot(f, str(tmp_path / "big.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.endswith(".dcrv")
    with open(p, "rb") as fh:
        assert fh.read(4) == b"DCRV"
    assert peak <= 1.5 * v.nbytes  # the f64 payload is as large as the complex field
    back = read_snapshot(p, g, 2)
    assert np.array_equal(back.values, f.values)


def _broken_snapshot(tmp_path, case):
    """A snapshot file of grid g, broken as `case` says; returns (path, g)."""
    if case.startswith("dcrv"):
        g = make_grid(2, (1.0, 1.0), (260, 260))
        p = write_snapshot(SpinorField(np.ones((2,) + g.shape, dtype=complex), g),
                           str(tmp_path / "big.csv"))
        blob = Path(p).read_bytes()
        # cut inside the dims, inside the payload, or at a whole float short
        keep = {"dcrv_header": 10, "dcrv_payload": len(blob) - 12,
                "dcrv_payload_float": len(blob) - 8}[case]
        Path(p).write_bytes(blob[:keep])
        return p, g
    g = make_grid(1, 2.0, 8)
    p = write_snapshot(SpinorField(np.ones((2, 8), dtype=complex), g), str(tmp_path / "ic.csv"))
    lines = Path(p).read_text().splitlines()
    if case == "csv_ragged":
        lines[3] = lines[3].rsplit(",", 1)[0]
    else:  # csv_text
        lines[3] = lines[3].replace("1.0", "one", 1)
    Path(p).write_text("\n".join(lines) + "\n")
    return p, g


@pytest.mark.parametrize("case", ["dcrv_header", "dcrv_payload", "dcrv_payload_float",
                                  "csv_ragged", "csv_text"])
def test_read_snapshot_reports_a_broken_file_by_its_path(tmp_path, case):
    p, g = _broken_snapshot(tmp_path, case)
    with pytest.raises(ConfigurationError, match=f"^{re.escape(p)}: "):
        read_snapshot(p, g, 2)


def test_cli_run_from_a_ragged_snapshot_is_an_error_not_a_traceback(tmp_path, capsys):
    p, g = _broken_snapshot(tmp_path, "csv_ragged")
    cfgfile = tmp_path / "custom.cfg"
    cfgfile.write_text(serialize_config(RunConfig(
        d=1, a=2.0, N=8, metric=MetricModel("flat"), scheme="cn", dt=1e-3, T=0.01,
        ic_kind="custom", ic_path=p)))
    assert cli.main(["run", str(cfgfile)]) == 1
    assert f"error: {p}: " in capsys.readouterr().err


def test_custom_initial_condition_from_snapshot(tmp_path):
    cfg = parse_config(MINIMAL).replace(T=0.0)
    g = cfg.grid()
    f0 = initial_condition(cfg, g)
    p = write_snapshot(f0, str(tmp_path / "ic.csv"))
    cfg2 = cfg.replace(ic_kind="custom", ic_path=p)
    f1 = initial_condition(cfg2, g)
    assert np.max(np.abs(f1.values - f0.values)) < 1e-15


def test_diagnostics_csv_format(tmp_path):
    cfg = preset_config("exp3", "ci").replace(T=2 * 1.14e-4)
    res = run_simulation(cfg)
    p = write_diagnostics(res.diagnostics, str(tmp_path / "d.csv"))
    lines = open(p).read().splitlines()
    assert lines[0] == "step,t,l2,l2_gamma,krylov_iters,krylov_residual,krylov_products"
    assert lines[1].startswith("0,0.0,")
    assert lines[-1].endswith(",,,")  # explicit scheme: empty krylov columns


def test_run_writes_outputs(tmp_path):
    cfg = parse_config(MINIMAL).replace(out_dir=str(tmp_path / "out"), stride=5)
    res = run_simulation(cfg)
    assert os.path.exists(tmp_path / "out" / "diagnostics.csv")
    assert any(p.endswith("snapshot_000000.csv") for p in res.snapshots)
    assert any(p.endswith("snapshot_000010.csv") for p in res.snapshots)
    assert not any(name.startswith("density_") for name in os.listdir(tmp_path / "out"))


def test_stride_run_writes_one_spinor_file_per_snapshot_step(tmp_path):
    # 10 steps at stride 4: step 0, every 4th step and the last step
    out = tmp_path / "out"
    res = run_simulation(parse_config(MINIMAL).replace(out_dir=str(out), stride=4))
    files = [f"snapshot_{n:06d}.csv" for n in (0, 4, 8, 10)]
    assert sorted(os.listdir(out)) == ["diagnostics.csv"] + files
    assert res.snapshots == [str(out / name) for name in files]


@pytest.mark.parametrize("ext", ["csv", "dcrv"])
def test_density_reads_back_bit_for_bit_from_the_last_snapshot(tmp_path, ext):
    if ext == "csv":
        cfg = parse_config(MINIMAL).replace(stride=5)
    else:  # 2-D above 256^2 goes to the binary container
        cfg = preset_config("exp3", "ci")
        cfg = cfg.replace(N=(260, 260), T=3 * cfg.dt, stride=2)
    res = run_simulation(cfg.replace(out_dir=str(tmp_path)))
    assert res.snapshots[-1].endswith("." + ext)
    back = read_snapshot(res.snapshots[-1], res.final.grid, cfg.metric.spinor_dim)
    assert np.array_equal(density(back), density(res.final))


# ----------------------------------------------------------------- convergence


def test_sweep_reference_resolution_has_zero_error():
    cfg = RunConfig(d=1, a=5.0, N=64, metric=MetricModel("flat", mass=1.0),
                    scheme="cn", dt=2e-3, T=0.02, ic_kind="gaussian_wavepacket", ic_k0=3.0)
    rows = convergence_sweep(cfg, "h", [2 * 5.0 / 64], refine=1)
    assert rows[0][1] < 1e-12


@pytest.mark.parametrize("refine", [0, -2, 1.5, 2.0, True])
def test_sweep_requires_a_whole_refinement_of_at_least_one(monkeypatch, refine):
    runs = []
    monkeypatch.setattr(harness, "run_simulation", lambda cfg: runs.append(cfg))
    cfg = parse_config(MINIMAL)
    for sweep, values in (("dt", [2e-3, 1e-3]), ("h", [2 * 5.0 / 64])):
        with pytest.raises(ConfigurationError, match="refine"):
            convergence_sweep(cfg, sweep, values, refine=refine)
    assert runs == []


def test_sweep_requires_descending_values():
    cfg = parse_config(MINIMAL)
    with pytest.raises(ConfigurationError):
        convergence_sweep(cfg, "dt", [1e-3, 2e-3])
    with pytest.raises(ConfigurationError):
        convergence_sweep(cfg, "x", [1e-3])


@pytest.mark.parametrize("values", [[math.nan], [0.2, math.nan], [math.inf, 0.1], [0.0]])
def test_sweep_rejects_non_finite_or_zero_spacings(values):
    # each used to end in a ValueError or ZeroDivisionError from the grid sizing
    with pytest.raises(ConfigurationError, match="sweep values must be positive and finite"):
        convergence_sweep(parse_config(MINIMAL), "h", values)


def test_sweep_rejects_grids_that_do_not_nest_before_any_run(monkeypatch):
    # h = 0.1 and 0.08 on a = 5 give N = 100 and 125: 100 does not divide the
    # reference N = 250, which used to fail in restrict_to_coarse after two runs
    runs = []
    monkeypatch.setattr(harness, "run_simulation", lambda cfg: runs.append(cfg))
    with pytest.raises(ConfigurationError, match=r"spacing 0.1 \(N = \(100,\)\) does not nest"):
        convergence_sweep(parse_config(MINIMAL), "h", [0.1, 0.08])
    assert runs == []


def test_cli_sweep_over_grids_that_do_not_nest_is_an_error(monkeypatch, tmp_path, capsys):
    runs = []
    monkeypatch.setattr(harness, "run_simulation", lambda cfg: runs.append(cfg))
    cfgfile = tmp_path / "flat.cfg"
    cfgfile.write_text(MINIMAL)
    assert cli.main(["converge", str(cfgfile), "--sweep", "h", "--values", "0.1,0.08"]) == 1
    assert "error: spacing 0.1" in capsys.readouterr().err
    assert runs == []


def test_sweep_writes_csv(tmp_path):
    cfg = RunConfig(d=1, a=5.0, N=128, metric=MetricModel("flat", mass=1.0),
                    scheme="cn", dt=1e-3, T=0.02, ic_kind="gaussian_wavepacket", ic_k0=3.0)
    p = str(tmp_path / "conv.csv")
    rows = convergence_sweep(cfg, "dt", [4e-3, 2e-3], refine=2, out_path=p)
    lines = open(p).read().splitlines()
    assert lines[0] == "param,error"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == rows[0][1]


# ----------------------------------------------------------------- presets, CLI


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_ci_presets_validate_and_start(name):
    cfg = preset_config(name, "ci")
    assert cfg.steps() > 0
    short = cfg.replace(T=cfg.dt * 2)
    res = run_simulation(short)
    assert res.final.is_finite()


def test_all_ci_presets_complete_within_budget():
    import time

    t0 = time.perf_counter()
    for name in PRESET_NAMES:
        res = run_simulation(preset_config(name, "ci"))
        assert res.final.is_finite()
        assert res.diagnostics[-1].step == preset_config(name, "ci").steps()
    assert time.perf_counter() - t0 < 300.0


def test_exp6_layer_transit_dips_the_norm():
    # with the shipped real stretch the packet decelerates and compresses in
    # the layer: the norm dips measurably while it is inside, then recovers
    # (the layer is elastic at these parameters, not dissipative)
    res = run_simulation(preset_config("exp6", "paper"))
    l2 = np.array([r.l2 for r in res.diagnostics])
    assert np.min(l2) < l2[0] * (1 - 5e-6)
    assert l2[-1] > 0.9 * l2[0]


def test_cli_preset_and_norms(tmp_path, capsys):
    rc = cli.main(["preset", "exp5", "--scale", "ci", "--out", str(tmp_path / "o")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "l2_gamma" in out
    assert os.path.exists(tmp_path / "o" / "diagnostics.csv")


def test_cli_summary_names_the_largest_krylov_iterations_and_residual(tmp_path, capsys):
    assert cli.main(["preset", "exp5", "--scale", "ci", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = (tmp_path / "diagnostics.csv").read_text().splitlines()[2:]   # header, step 0
    iters = max(int(r.split(",")[4]) for r in rows)
    residual = max(float(r.split(",")[5]) for r in rows)
    assert f"krylov:   max {iters} iterations, max residual {residual:.3e}" in lines
    assert len(rows) == 80 and iters == 0 and 0 < residual <= 1e-10
    # an explicit scheme makes no Krylov solve and prints no such line
    cfgfile = tmp_path / "poly.cfg"
    cfgfile.write_text(MINIMAL.replace("scheme.kind = cn", "scheme.kind = poly1"))
    assert cli.main(["run", str(cfgfile)]) == 0
    assert "krylov" not in capsys.readouterr().out


def test_cli_summary_names_the_mean_krylov_iterations(tmp_path, capsys):
    # exp6 is the preset whose GMRES still iterates (its layer keeps it off
    # the band): the mean sits below the maximum
    assert cli.main(["preset", "exp6", "--scale", "ci", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = (tmp_path / "diagnostics.csv").read_text().splitlines()[2:]
    iters = [int(r.split(",")[4]) for r in rows]
    products = [int(r.split(",")[6]) for r in rows]
    assert (f"krylov:   mean {np.mean(iters):.2f} iterations, "
            f"{np.mean(products):.2f} operator products a step") in lines
    assert len(iters) == 400 and np.mean(iters) < max(iters)


def test_cli_run_and_converge(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(MINIMAL)
    assert cli.main(["run", str(cfgfile)]) == 0
    assert cli.main(["converge", str(cfgfile), "--sweep", "dt",
                     "--values", "4e-3,2e-3", "--out", str(tmp_path / "c.csv")]) == 0
    out = capsys.readouterr().out
    assert "param,error" in out
    assert (tmp_path / "c.csv").exists()
    assert cli.main(["norms", str(cfgfile)]) == 0
    assert "step,t,l2" in capsys.readouterr().out


def test_cli_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    poly2 = MINIMAL.replace("scheme.kind = cn", "scheme.kind = poly2")
    line = poly2.splitlines().index("scheme.kind = poly2") + 1
    removed = f"line {line}: scheme.kind must be one of ('cn', 'poly1'), got 'poly2'"
    with pytest.raises(ConfigurationError, match=re.escape(removed)):
        parse_config(poly2)
    for text, error in (("grid.d = 7\n", "error:"), (poly2, f"error: {removed}")):
        bad.write_text(text)
        assert cli.main(["run", str(bad)]) == 1
        assert error in capsys.readouterr().err


def test_cli_degenerate_graphene_is_an_error_not_a_traceback(tmp_path, capsys):
    cfgfile = tmp_path / "graphene.cfg"
    # a0 = 5, k0 = 3, ell = 1 puts the strain f far above 1
    graphene = "metric.kind = graphene\nmetric.a0 = 5.0\nmetric.k0 = 3.0\nmetric.ell = 1.0"
    cfgfile.write_text(MINIMAL.replace("metric.kind = flat", graphene))
    assert cli.main(["run", str(cfgfile)]) == 1
    assert "error: degenerate graphene metric" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_degenerate_graphene_stops_before_any_norm():
    cfg = parse_config(MINIMAL).replace(metric=MetricModel("graphene", a0=5.0, k0=3.0, ell=1.0))
    with pytest.raises(GeometryError, match="degenerate graphene metric"):
        run_simulation(cfg)


def test_cli_rejects_malformed_sweep_values(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(MINIMAL)
    with pytest.raises(SystemExit) as exc:
        cli.main(["converge", str(cfgfile), "--sweep", "dt", "--values", "0.01,abc"])
    assert exc.value.code == 2
    assert "--values: expected comma-separated numbers, got '0.01,abc'" in capsys.readouterr().err
