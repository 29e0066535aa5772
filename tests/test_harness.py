import os
from importlib import resources

import numpy as np
import pytest

from curvedirac.errors import ConfigurationError, SimulationError
from curvedirac.geometry import MetricModel, ScalarForm
from curvedirac.grid_spectral import SpinorField, make_grid
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
    cfg = RunConfig(d=1, a=10.0, N=2000, metric=MetricModel("graphene", a0=0.4, k0=2.0, ell=5.0),
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
    cfg = RunConfig(d=1, a=10.0, N=2000, metric=MetricModel("graphene", a0=0.4, k0=2.0, ell=5.0),
                    scheme="cn", dt=1e-2, T=0.0, ic_kind="graphene_pair", ic_beta=2.0)
    g = cfg.grid()
    f = initial_condition(cfg, g)
    rho = density(f)
    k = np.argmin(np.abs(g.axes[0]))
    assert rho[k] == pytest.approx(2.0 / np.pi, abs=1e-12)
    assert g.cell_volume() * np.sum(rho) == pytest.approx(l2_norm(f) ** 2, rel=1e-14)
    zero = SpinorField(np.zeros((2, 2000), dtype=complex), g)
    assert not np.any(density(zero))


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


def test_simulation_deterministic():
    cfg = preset_config("exp5", "ci").replace(T=0.1)
    a = run_simulation(cfg)
    b = run_simulation(cfg)
    assert a.final.values.tobytes() == b.final.values.tobytes()


def test_simulation_halts_on_krylov_failure():
    from curvedirac.krylov import KrylovOptions

    cfg = parse_config(MINIMAL).replace(
        metric=MetricModel("static1d", mass=1.0,
                           phi=ScalarForm("gauss", (1.0, 5e-3)),
                           psi=ScalarForm("gauss", (1.0, 1e-2))),
        dt=0.5, T=2.0, krylov=KrylovOptions(tol=1e-14, restart=2, maxit=2))
    with pytest.raises(SimulationError) as err:
        run_simulation(cfg)
    assert err.value.step == 0
    assert len(err.value.diagnostics) == 1


@pytest.mark.parametrize("scheme", ["cn", "poly1"])
def test_nan_in_initial_field_halts_with_diagnostics(tmp_path, scheme):
    # cn meets the NaN inside GMRES, poly1 in the field norm after the step
    cfg = preset_config("exp5", "ci").replace(scheme=scheme, stride=0)
    f0 = initial_condition(cfg, cfg.grid())
    f0.values[0, 500] = np.nan
    ic = write_snapshot(f0, str(tmp_path / "ic.csv"))
    out = tmp_path / "out"
    cfg = cfg.replace(ic_kind="custom", ic_path=ic, out_dir=str(out))
    with pytest.raises(SimulationError) as err:
        run_simulation(cfg)
    assert err.value.step == 0
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0,0.0,nan,nan,")


@pytest.mark.filterwarnings("ignore:overflow")
def test_simulation_halts_on_blowup():
    # explicit dt^2 correction beyond its stability range overflows -> halt
    cfg = RunConfig(d=1, a=5.0, N=256,
                    metric=MetricModel("static1d", mass=0.0, phi=ScalarForm("zero"),
                                       psi=ScalarForm("well", (1.0, 5e-3))),
                    scheme="poly2", dt=0.05, T=50.0,
                    ic_kind="gaussian_wavepacket", ic_k0=3.0)
    with pytest.raises(SimulationError, match="non-finite"):
        run_simulation(cfg)


def test_krylov_iterations_recorded_only_for_cn():
    cfg = preset_config("exp4", "ci").replace(T=0.05)
    res = run_simulation(cfg)
    assert all(r.krylov_iters is not None for r in res.diagnostics[1:])
    cfg = preset_config("exp3", "ci").replace(T=5 * 1.14e-4)
    res = run_simulation(cfg)
    assert all(r.krylov_iters is None for r in res.diagnostics[1:])


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


def test_snapshot_density_and_roundtrip_floats(tmp_path):
    g = make_grid(1, 1.0, 8)
    rho = np.linspace(0.1, 0.9, 8) * np.pi
    p = write_snapshot(rho, str(tmp_path / "rho.csv"), g)
    lines = open(p).read().splitlines()
    assert lines[0] == "x,density"
    vals = np.array([float(l.split(",")[1]) for l in lines[1:]])
    assert np.array_equal(vals, rho)  # shortest round-trip decimals reparse exactly


def test_large_2d_snapshot_goes_binary(tmp_path):
    g = make_grid(2, (1.0, 1.0), (260, 260))
    v = np.zeros((2, 260, 260), dtype=complex)
    v[0] = np.exp(1j * np.add.outer(g.axes[0], g.axes[1]))
    f = SpinorField(v, g)
    p = write_snapshot(f, str(tmp_path / "big.csv"))
    assert p.endswith(".dcrv")
    with open(p, "rb") as fh:
        assert fh.read(4) == b"DCRV"
    back = read_snapshot(p, g, 2)
    assert np.max(np.abs(back.values - f.values)) < 1e-15


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
    assert lines[0] == "step,t,l2,l2_gamma,krylov_iters"
    assert lines[1].startswith("0,0.0,")
    assert lines[-1].endswith(",")  # explicit scheme: empty krylov column


def test_run_writes_outputs(tmp_path):
    cfg = parse_config(MINIMAL).replace(out_dir=str(tmp_path / "out"), stride=5)
    res = run_simulation(cfg)
    assert os.path.exists(tmp_path / "out" / "diagnostics.csv")
    assert any(p.endswith("snapshot_000000.csv") for p in res.snapshots)
    assert any(p.endswith("density_000010.csv") for p in res.snapshots)


# ----------------------------------------------------------------- convergence


def test_sweep_reference_resolution_has_zero_error():
    cfg = RunConfig(d=1, a=5.0, N=64, metric=MetricModel("flat", mass=1.0),
                    scheme="cn", dt=2e-3, T=0.02, ic_kind="gaussian_wavepacket", ic_k0=3.0)
    rows = convergence_sweep(cfg, "h", [2 * 5.0 / 64], refine=1)
    assert rows[0][1] < 1e-12


def test_sweep_requires_descending_values():
    cfg = parse_config(MINIMAL)
    with pytest.raises(ConfigurationError):
        convergence_sweep(cfg, "dt", [1e-3, 2e-3])
    with pytest.raises(ConfigurationError):
        convergence_sweep(cfg, "x", [1e-3])


def test_sweep_writes_csv(tmp_path):
    cfg = RunConfig(d=1, a=5.0, N=128, metric=MetricModel("flat", mass=1.0),
                    scheme="cn", dt=1e-3, T=0.02, ic_kind="gaussian_wavepacket", ic_k0=3.0)
    p = str(tmp_path / "conv.csv")
    rows = convergence_sweep(cfg, "dt", [4e-3, 2e-3], refine=2, out_path=p)
    lines = open(p).read().splitlines()
    assert lines[0] == "param,error"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == rows[0][1]


def test_sweep_budget_guard():
    from curvedirac.errors import BudgetError

    cfg = parse_config(MINIMAL)
    with pytest.raises(BudgetError):
        convergence_sweep(cfg, "dt", [1e-3, 5e-4], budget=10)


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
    bad.write_text("grid.d = 7\n")
    assert cli.main(["run", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
