"""Slow, obviously-correct references used by the tests and convergence runs.

* dense assembly of the Cayley transport matrix and a direct LU step, checked
  against the matrix-free GMRES path;
* fine-resolution self-reference runs (h/refine, dt/refine^2) with exact
  index-subsampling restriction onto the coarse grid.

Everything here carries hard size guards: the dense matrix costs O(n^2) memory
and the reference runs are budgeted, so the oracles can never dominate a test
run by accident.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetError
from .grid_spectral import Grid, SpinorField, dense_diff_matrix
from .propagators import StepWorkspace

MAX_DENSE_UNKNOWNS = 16384
DEFAULT_NODE_STEP_BUDGET = 2_000_000_000


def _dense_axis_operator(ws: StepWorkspace, axis: int) -> np.ndarray:
    """(a^i/S^i) alpha^i A^i as a dense matrix on the flattened (S, N1[, N2]) layout."""
    grid = ws.grid
    A = dense_diff_matrix(grid.N[axis], grid.a[axis])
    if grid.d == 1:
        spatial = A
    elif axis == 0:
        spatial = np.kron(A, np.eye(grid.N[1]))
    else:
        spatial = np.kron(np.eye(grid.N[0]), A)
    scaled = ws.a_eff[axis].ravel()[:, None] * spatial
    return np.kron(ws.alpha[axis], scaled)


def build_dense_G(ws: StepWorkspace) -> np.ndarray:
    """Dense matrix of I + (dt/2) sum_i (a^i/S^i) alpha^i [[d_i]].

    Equals `cn_operator_apply(.., +1)` on flattened fields; intended for
    cross-checks at small N only.
    """
    grid = ws.grid
    n = ws.S * int(np.prod(grid.N))
    if n > MAX_DENSE_UNKNOWNS:
        raise BudgetError(
            f"dense operator would have {n} unknowns (> {MAX_DENSE_UNKNOWNS}); "
            "the O(n^2) assembly is reserved for oracle-sized problems"
        )
    G = np.eye(n, dtype=np.complex128)
    for axis in range(grid.d):
        G += 0.5 * ws.dt * _dense_axis_operator(ws, axis)
    return G


def dense_cn_step(f: SpinorField, ws: StepWorkspace) -> SpinorField:
    """Direct LU solve of the Cayley system G psi* = G~ psi (G~ = 2I - G)."""
    G = build_dense_G(ws)
    flat = f.values.ravel()
    b = 2.0 * flat - G @ flat
    x = np.linalg.solve(G, b)
    return SpinorField(x.reshape(f.values.shape), f.grid)


def refine_config(cfg, refine: int):
    """Scaled copy of a run configuration: h -> h/refine, dt -> dt/refine^2."""
    if refine < 1 or int(refine) != refine:
        raise ValueError("refine must be a positive integer")
    refine = int(refine)
    return cfg.replace(
        N=tuple(n * refine for n in cfg.N),
        dt=cfg.dt / refine ** 2,
    )


def restrict_to_coarse(fine: SpinorField, coarse_grid: Grid) -> SpinorField:
    """Index-subsample a nested fine-grid field onto the coarse grid."""
    for i in range(coarse_grid.d):
        if fine.grid.N[i] % coarse_grid.N[i] != 0 or fine.grid.a[i] != coarse_grid.a[i]:
            raise ValueError("grids do not nest; restriction must be loss-free")
    steps = tuple(fine.grid.N[i] // coarse_grid.N[i] for i in range(coarse_grid.d))
    sl = (slice(None),) + tuple(slice(None, None, s) for s in steps)
    return SpinorField(fine.values[sl].copy(), coarse_grid)


def check_budget(cfg, budget: int | None):
    """Raise BudgetError when a run of cfg would exceed `budget` node-steps.

    The cost is max(1, steps) * prod(N); a budget of None disables the guard.
    """
    if budget is None:
        return
    cost = max(1, cfg.steps()) * int(np.prod(cfg.N))
    if cost > budget:
        raise BudgetError(
            f"reference run would cost {cost:.3g} node-steps (> budget {budget:.3g})"
        )


def reference_run(cfg, refine: int, budget: int = DEFAULT_NODE_STEP_BUDGET):
    """Run the same scheme on the refined configuration (self-reference).

    The total node-step count is guarded so an accidental full-scale refine
    cannot hang a test session.
    """
    from . import harness  # runtime import: harness drives the solver

    rcfg = refine_config(cfg, refine)
    check_budget(rcfg, budget)
    return harness.run_simulation(rcfg)
