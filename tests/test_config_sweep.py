"""A seeded sweep over random run configurations.

Each draw builds a configuration from a fixed-seed numpy Generator: the
metric kind, the grid, S, the closed forms, the graphene strain, the scheme,
an absorbing layer (rotated ones included), dt and the step count.  Every
draw must end in one of three ways:

* rejected before step 1: a ConfigurationError or GeometryError, with no
  diagnostics file written;
* completed, with finite diagnostics and a finite final field;
* halted by a SimulationError, with the diagnostics file already written.

Any other exception, and any RuntimeWarning, fails the test.
"""

import collections
import math
import os
import warnings

import numpy as np
import pytest

from curvedirac.errors import ConfigurationError, GeometryError, SimulationError
from curvedirac.geometry import MetricModel, ScalarForm
from curvedirac.harness import RunConfig, run_simulation
from curvedirac.pml import PROFILES, PmlConfig
from curvedirac.propagators import SCHEMES, StepWorkspace, cayley_preconditioner

DRAWS = 300
# closed forms and their coefficient counts; the last four take one coordinate
FORMS = {"zero": 0, "const": 1, "gauss": 2, "well": 2,
         "cosgauss": 3, "linear": 1, "quadratic": 1, "inv_abs_one": 1}
FORMS_2D = ("zero", "const", "gauss", "well")


def draw_form(rng, d):
    name = str(rng.choice(tuple(FORMS) if d == 1 else FORMS_2D))
    return ScalarForm(name, tuple(float(c) for c in rng.uniform(-1.5, 1.5, FORMS[name])))


def draw_config(rng, out_dir):
    """One random RunConfig; the draws are made before it is built, so a
    rejected draw leaves the generator where a built one would."""
    kind = str(rng.choice(("flat", "static1d", "static2d", "graphene")))
    d = {"static1d": 1, "static2d": 2, "graphene": 1}.get(kind) or int(rng.integers(1, 3))
    if d == 1:
        a, N = float(rng.uniform(2.0, 8.0)), int(rng.integers(16, 401))
    else:
        a = tuple(float(x) for x in rng.uniform(2.0, 6.0, 2))
        N = tuple(int(n) for n in rng.integers(8, 34, 2))
    S = int(rng.choice((2, 4)))
    metric = {"kind": kind, "spinor_dim": S, "mass": float(rng.uniform(0.0, 2.0))}
    forms = [draw_form(rng, d) for _ in range(2)]
    strain = rng.uniform((0.0, 0.0, 1.0), (0.6, 5.0, 10.0))
    if kind.startswith("static"):
        metric.update(phi=forms[0], psi=forms[1])
    else:
        metric.update(ax_pot=forms[0], v_pot=forms[1])
    if kind == "graphene":
        metric.update(a0=float(strain[0]), k0=float(strain[1]), ell=float(strain[2]))
    layered = rng.random() < 0.4
    theta = float(rng.uniform(0.0, 1.4)) if rng.random() < 0.5 else 0.0
    pml = PmlConfig(enabled=layered, profile=str(rng.choice(PROFILES)),
                    sigma0=float(rng.uniform(0.0, 5.0)), theta=theta,
                    fraction=float(rng.uniform(0.05, 0.5)))
    scheme = str(rng.choice(SCHEMES))
    dt = float(10.0 ** rng.uniform(-3.0, math.log10(0.3)))
    steps = int(rng.integers(1, 30))
    T = dt * (steps - 0.5 * int(rng.integers(0, 2)))   # some runs end on a short step
    ic_kind = "graphene_pair" if rng.random() < 0.2 else "gaussian_wavepacket"
    ic = dict(ic_k0=float(rng.uniform(-5.0, 5.0)), ic_x0=float(rng.uniform(-1.0, 1.0)),
              ic_width=float(rng.uniform(0.3, 2.0)), ic_beta=float(rng.uniform(0.5, 2.0)))
    stride = int(rng.integers(0, 4))
    return lambda: RunConfig(d=d, a=a, N=N, metric=MetricModel(**metric), scheme=scheme,
                             dt=dt, T=T, pml=pml, ic_kind=ic_kind, out_dir=out_dir,
                             stride=stride, **ic)


def outcome(build, out_dir):
    """'rejected', 'completed' or 'halted'; any other end raises."""
    diagnostics = os.path.join(out_dir, "diagnostics.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            res = run_simulation(build())
        except (ConfigurationError, GeometryError):
            assert not os.path.exists(diagnostics)
            return "rejected"
        except SimulationError as exc:
            assert os.path.exists(diagnostics), exc
            return "halted"
    assert all(math.isfinite(r.l2) and math.isfinite(r.l2_gamma) for r in res.diagnostics)
    assert res.final.is_finite()
    return "completed"


@pytest.mark.parametrize("seed", [1, 7])
def test_random_configurations_are_rejected_completed_or_halted(tmp_path, seed):
    rng = np.random.default_rng(seed)
    ends = collections.Counter()
    for k in range(DRAWS):
        out_dir = str(tmp_path / str(k))
        build = draw_config(rng, out_dir)
        try:
            ends[outcome(build, out_dir)] += 1
        except Exception as exc:
            raise AssertionError(f"draw {k} of seed {seed}") from exc
    # the sweep reaches past the checks: most draws run
    assert ends["completed"] > DRAWS // 2, ends


def replay(seed, k, out_dir):
    """The build of draw k of seed's sweep: the draws before it are made and
    dropped, which leaves the generator where the sweep has it."""
    rng = np.random.default_rng(seed)
    for _ in range(k):
        draw_config(rng, out_dir)
    return draw_config(rng, out_dir)


def test_stiff_1d_cn_metrics_take_plain_gmres_and_complete(tmp_path):
    # 1-D cn draws whose w = 1/a spreads by 3.9e6 (seed 7 draw 172) up to
    # 7.9e74 (seed 1 draw 237): on the circulant their solve stalled at
    # step 1.  Seed 7 draw 12 spreads by 1.1e5 and completes on the
    # circulant, which it keeps.
    for seed, k, circulant in [(1, 0, False), (1, 237, False), (7, 167, False),
                               (7, 172, False), (7, 12, True)]:
        out_dir = str(tmp_path / f"{seed}-{k}")
        build = replay(seed, k, out_dir)
        cfg = build()
        assert cfg.scheme == "cn" and cfg.d == 1
        pre = cayley_preconditioner(StepWorkspace(cfg.metric, cfg.grid(), cfg.dt, cfg.pml))
        assert (pre is not None and pre.K == 0) == circulant, (seed, k)
        assert outcome(build, out_dir) == "completed", (seed, k)


def test_static_metric_growth_halts_complete_or_are_rejected(tmp_path):
    # static-metric draws that halted for growth while the spin connection
    # was a non-unitary pointwise factor (cn: seed 7 draws 197 and 280;
    # poly1 under a real-stretch layer: seed 7 draw 235) complete with it
    # applied as a gauge.  Seed 1 draw 81's e^{Phi/2} underflows to 0 at the
    # box edge: it is rejected at build.
    for seed, k in [(7, 197), (7, 235), (7, 280)]:
        out_dir = str(tmp_path / f"{seed}-{k}")
        build = replay(seed, k, out_dir)
        assert build().metric.kind == "static1d"
        assert outcome(build, out_dir) == "completed", (seed, k)
    out_dir = str(tmp_path / "1-81")
    build = replay(1, 81, out_dir)
    with pytest.raises(GeometryError, match=r"gauge e\^\{F/2\} is not positive"):
        run_simulation(build())
    assert outcome(build, out_dir) == "rejected"
    # seed 7 draw 64 was rejected at build by that factor's overflow.  Its
    # velocity reaches 1.5e197, so now its first Cayley solve overflows: it
    # halts on gmres's non-finite norm, without a warning (see `outcome`)
    out_dir = str(tmp_path / "7-64")
    assert outcome(replay(7, 64, out_dir), out_dir) == "halted"
