"""Checks of the benchmark itself: every accuracy gate trips on a corrupted
result, seeds perturb only the packet, the trace survives a missing name, and
the JSON line carries exactly the metrics BENCHMARK.json declares.

Run from the repository root with ``python -m pytest bench``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from curvedirac import harness, propagators  # noqa: E402
from curvedirac.grid_spectral import SpinorField  # noqa: E402
from curvedirac.harness import SimulationResult, run_simulation  # noqa: E402

import run  # noqa: E402
from tracing import ROOT as ROOT_SPAN, Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    CENTRE_SPREAD,
    WIDTH_SPREAD,
    WORKLOADS,
    oracle_gate,
    oracle_step,
    snapshot_gate,
)


def short_config(name, steps, seed=1):
    cfg = WORKLOADS[name].config(seed)
    return cfg.replace(T=steps * cfg.dt)


def corrupt(field, kind):
    values = field.values.copy()
    if kind == "nan":
        values[(0,) * values.ndim] = np.nan
    else:
        values *= 1.01
    return SpinorField(values, field.grid)


def with_final(result, final):
    return SimulationResult(final, result.diagnostics, result.snapshots)


@pytest.mark.parametrize("name,steps", [
    ("exp1-fft", 1), ("exp5-krylov", 2), ("exp3-sweep2d", 1)])
def test_norm_gates_trip_on_corrupted_results(name, steps):
    workload, cfg = WORKLOADS[name], short_config(name, steps)
    result = run_simulation(cfg)
    assert workload.gate(cfg, result) is None
    for kind in ("nan", "scale"):
        assert workload.gate(cfg, with_final(result, corrupt(result.final, kind))) is not None


def test_snapshot_gate_trips_on_corrupted_results(tmp_path):
    workload = WORKLOADS["exp3-snapshots"]
    cfg = short_config("exp3-snapshots", 4).replace(stride=2, out_dir=str(tmp_path))
    result = run_simulation(cfg)
    assert workload.gate(cfg, result) is None
    for kind in ("nan", "scale"):
        bad = with_final(result, corrupt(result.final, kind))
        assert snapshot_gate(bad, cfg.metric.spinor_dim) is not None
        assert workload.gate(cfg, bad) is not None


def test_oracle_gate_trips_on_corrupted_results():
    matrix_free, dense = oracle_step(WORKLOADS["exp5-krylov"].config(1))
    assert oracle_gate(matrix_free, dense) is None
    for kind in ("nan", "scale"):
        assert oracle_gate(corrupt(matrix_free, kind), dense) is not None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_perturbs_only_the_packet(name):
    workload = WORKLOADS[name]
    a, b = workload.config(1), workload.config(2)
    assert a == workload.config(1)
    assert a != b
    preset = workload.config(0).replace(ic_x0=a.ic_x0, ic_width=a.ic_width, ic_beta=a.ic_beta)
    assert preset == a
    base = harness.preset_config(workload.preset, workload.scale)
    assert np.all(np.abs(np.subtract(a.ic_x0, base.ic_x0)) <= CENTRE_SPREAD)
    if a.ic_kind == "graphene_pair":
        assert abs(np.sqrt(base.ic_beta / a.ic_beta) - 1) <= WIDTH_SPREAD
    else:
        assert abs(a.ic_width / base.ic_width - 1) <= WIDTH_SPREAD


def test_trace_reports_a_missing_name_as_absent(monkeypatch):
    monkeypatch.delattr(propagators, "poly_axis_step2")
    original = propagators.poly_axis_step
    tracer = Tracer()
    with tracer:
        harness.run_simulation(short_config("exp3-snapshots", 3))
    assert propagators.poly_axis_step is original
    assert tracer.absent == ["curvedirac.propagators.poly_axis_step2"]
    summary = tracer.take()
    assert summary["count"]["propagators.transport"] == 3 * 2
    assert sum(summary["self"].values()) == pytest.approx(summary["total"][ROOT_SPAN], rel=1e-9)


def test_matvec_count_exceeds_iterations_by_two_in_one_cycle():
    tracer = Tracer()
    with tracer:
        harness.run_simulation(short_config("exp1-fft", 2))
    metrics = layer_metrics(tracer.take())
    assert metrics["krylov.iters_per_solve"] < 30   # a single restart cycle
    # the initial residual and the final true residual; the right-hand side
    # product is made by cn_transport_step outside gmres
    assert metrics["krylov.matvec_overhead_per_solve"] == 2
    assert metrics["grid_spectral.fft_pairs_per_step"] == metrics["krylov.matvecs_per_solve"] + 1


def run_main(capsys, monkeypatch, trace):
    """The JSON line of one short run of exp1-fft."""
    monkeypatch.setattr(run, "MIN_RUNS", 1)
    for var in run.BLAS_VARS:   # main() pins them; restore them afterwards
        monkeypatch.setenv(var, "1")
    run.main(["--workload", "exp1-fft", "--seed", "1", "--seconds", "0", "--trace", str(trace)])
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_json_line_carries_exactly_the_declared_metrics(capsys, monkeypatch, trace, kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    result = run_main(capsys, monkeypatch, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec[kind]}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("trace", [0, 1])
def test_json_line_reports_runs_that_all_fail_their_gate(capsys, monkeypatch, trace):
    monkeypatch.setattr(type(WORKLOADS["exp1-fft"]), "gate", lambda *_: "corrupted")
    result = run_main(capsys, monkeypatch, trace)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_reference_covers_every_workload_without_the_solver(tmp_path):
    import ast
    import reference

    assert set(reference.RECIPES) == set(WORKLOADS)
    tree = ast.parse(Path(reference.__file__).read_text())
    modules = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    modules |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert not any(m.startswith("curvedirac") for m in modules)
    for recipe in reference.RECIPES.values():
        assert recipe.nominal_s > 0
        reference.Reference(recipe, str(tmp_path))()
