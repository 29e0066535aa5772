"""Benchmark workloads: preset-derived configurations, seeded packets and
the accuracy gates checked beside every timing.

Each workload is a shipped preset with only its step count and output
settings changed.  The seed perturbs the initial packet alone (its centre and
its width), inside ranges that keep the workload in its regime: exp1 keeps
11 GMRES iterations per step, exp5 keeps about 130.

A gate returns None when the result passes and a one-line reason when it
fails; the runner counts failures in ``failed_frac``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from curvedirac.grid_spectral import SpinorField
from curvedirac.harness import (
    RunConfig,
    gamma_norm,
    initial_condition,
    l2_norm,
    preset_config,
    read_snapshot,
)
from curvedirac.geometry import gamma_weight
from curvedirac.oracle import dense_cn_step
from curvedirac.propagators import StepWorkspace, cn_transport_step

# Seeded packet perturbation.  Wider ranges move exp1's GMRES count between
# 9 and 14 iterations per step (k0 +-0.02 alone does), which would make the
# seed, not the code, decide the FFT share.
CENTRE_SPREAD = 0.03
WIDTH_SPREAD = 0.01

# Largest conserved-norm drift measured on the seeded workloads is 1.3e-9
# (exp5, 80 steps); a 1% error in the field shows as 1e-2.
GAMMA_DRIFT_BOUND = 1e-6
# C12's bound, max l2 <= 1.01 l2(0), lets a field scaled by 1.01 through
# whenever the norm has dipped, which it does at 512^2 (l2 ratio 1 - 4e-9
# after 3 steps).  The tighter drift bound is about 100 times the largest
# drift measured on exp3 (1.0e-6 at 128^2, 100 steps).
C12_GROWTH_BOUND = 1.01
L2_DRIFT_BOUND = 1e-4
# C04's bound for the matrix-free step against the dense LU step.
ORACLE_REL_BOUND = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    scale: str
    steps: int | None       # None keeps the preset's horizon
    snapshots: bool         # write snapshots to a fresh directory
    oracle: bool = False    # also check one cn step against the dense LU step

    def config(self, seed: int) -> RunConfig:
        """The preset with this workload's step count, output and seeded packet."""
        base = preset_config(self.preset, self.scale)
        if self.steps is not None:
            base = base.replace(T=self.steps * base.dt)
        if not self.snapshots:
            base = base.replace(stride=0, out_dir="")
        return perturb_packet(base, seed)

    def gate(self, cfg: RunConfig, result) -> str | None:
        """Accuracy gate for one run of this workload."""
        if not result.final.is_finite():
            return "final field is not finite"
        if cfg.scheme == "cn":
            weight = gamma_weight(cfg.metric, result.final.grid)
            return conserved_norm_gate(result, weight)
        reason = flat_norm_gate(result)
        if reason is None and self.snapshots:
            reason = snapshot_gate(result, cfg.metric.spinor_dim)
        return reason


WORKLOADS = {
    w.name: w for w in (
        Workload("exp1-fft", "exp1", "paper", 10, False),
        Workload("exp5-krylov", "exp5", "ci", None, False, oracle=True),
        Workload("exp3-sweep2d", "exp3", "paper", 10, False),
        Workload("exp3-snapshots", "exp3", "ci", None, True),
    )
}


def perturb_packet(cfg: RunConfig, seed: int) -> RunConfig:
    """Shift the packet centre and scale its width; nothing else changes."""
    rng = np.random.default_rng(seed)
    x0 = tuple(x + rng.uniform(-CENTRE_SPREAD, CENTRE_SPREAD) for x in cfg.ic_x0)
    scale = 1.0 + rng.uniform(-WIDTH_SPREAD, WIDTH_SPREAD)
    if cfg.ic_kind == "graphene_pair":
        # beta is an inverse squared width in the graphene_pair envelope
        return cfg.replace(ic_x0=x0, ic_beta=cfg.ic_beta / scale ** 2)
    return cfg.replace(ic_x0=x0, ic_width=cfg.ic_width * scale)


def _drift(values):
    values = np.asarray(values)
    return float(np.max(np.abs(values / values[0] - 1.0)))


def conserved_norm_gate(result, weight) -> str | None:
    """Drift of l2_gamma over the run, the final field's norm recomputed."""
    norms = [r.l2_gamma for r in result.diagnostics] + [gamma_norm(result.final, weight)]
    if not np.all(np.isfinite(norms)):
        return "l2_gamma is not finite"
    drift = _drift(norms)
    if drift > GAMMA_DRIFT_BOUND:
        return f"l2_gamma drift {drift:.3e} > {GAMMA_DRIFT_BOUND:.0e}"
    return None


def flat_norm_gate(result) -> str | None:
    """C12's growth bound plus a drift bound on the plain l2 norm."""
    norms = [r.l2 for r in result.diagnostics] + [l2_norm(result.final)]
    if not np.all(np.isfinite(norms)):
        return "l2 is not finite"
    if max(norms) > C12_GROWTH_BOUND * norms[0]:
        return f"max l2 {max(norms):.6e} > {C12_GROWTH_BOUND} l2(0)"
    drift = _drift(norms)
    if drift > L2_DRIFT_BOUND:
        return f"l2 drift {drift:.3e} > {L2_DRIFT_BOUND:.0e}"
    return None


def snapshot_gate(result, spinor_dim: int) -> str | None:
    """The last spinor snapshot reads back as the final field, bit for bit."""
    fields = [p for p in result.snapshots if os.path.basename(p).startswith("snapshot_")]
    if not fields:
        return "no spinor snapshot was written"
    back = read_snapshot(fields[-1], result.final.grid, spinor_dim)
    if not np.array_equal(back.values, result.final.values):
        return f"{os.path.basename(fields[-1])} does not read back as the final field"
    return None


def oracle_gate(matrix_free: SpinorField, dense: SpinorField) -> str | None:
    """C04's relative agreement of the GMRES step with the dense LU step."""
    if not matrix_free.is_finite():
        return "matrix-free step is not finite"
    rel = np.linalg.norm(matrix_free.values - dense.values) / np.linalg.norm(dense.values)
    if not rel <= ORACLE_REL_BOUND:
        return f"oracle disagreement {rel:.3e} > {ORACLE_REL_BOUND:.0e}"
    return None


def oracle_step(cfg: RunConfig):
    """One cn transport step from the initial field, matrix-free and dense."""
    grid = cfg.grid()
    f = initial_condition(cfg, grid)
    ws = StepWorkspace(cfg.metric, grid, cfg.dt, cfg.pml)
    return cn_transport_step(f, ws, cfg.krylov), dense_cn_step(f, ws)


def build_setup(cfg: RunConfig):
    """What run_simulation builds before step 1, through the public builders."""
    grid = cfg.grid()
    psi = initial_condition(cfg, grid)
    weight = gamma_weight(cfg.metric, grid)
    ws = StepWorkspace(cfg.metric, grid, cfg.dt, cfg.pml)
    return psi, weight, ws
