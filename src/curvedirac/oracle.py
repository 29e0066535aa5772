"""Slow, obviously-correct reference for the matrix-free Cayley solve.

Dense assembly of the Cayley transport matrix and a direct LU step, checked
against the matrix-free GMRES path.  The dense matrix costs O(n^2) memory, so
the assembly carries a hard byte budget and can never dominate a test run by
accident.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetError
from .grid_spectral import SpinorField, dense_diff_matrix
from .propagators import StepWorkspace

# The byte budget of the n x n complex matrices the oracle holds at once, at
# most DENSE_MATRICES of them: the step's G and LAPACK's LU copy of it, or in
# 2-D the assembly's G, the second axis's term and its spatial factors.
MAX_DENSE_BYTES = 1 << 30
DENSE_MATRICES = 2.5


def dense_bytes(n: int) -> float:
    """The bytes that the oracle holds at once for n unknowns."""
    return DENSE_MATRICES * n * n * np.dtype(np.complex128).itemsize


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

    Equals `propagators.cn_apply_values` on flattened fields; intended
    for cross-checks at small N only.  Assembled in place: the first axis's
    product is scaled where it lies, the other axes are added to it and 1
    to its diagonal, so in 1-D the peak is about 1.5 n x n matrices.
    """
    grid = ws.grid
    n = ws.S * int(np.prod(grid.N))
    need = dense_bytes(n)
    if need > MAX_DENSE_BYTES:
        raise BudgetError(
            f"dense operator of {n} unknowns would hold {need / 2**30:.2f} GiB "
            f"(> {MAX_DENSE_BYTES / 2**30:g} GiB); "
            "the O(n^2) assembly is reserved for oracle-sized problems"
        )
    G = _dense_axis_operator(ws, 0)
    G *= 0.5 * ws.dt
    for axis in range(1, grid.d):
        term = _dense_axis_operator(ws, axis)
        term *= 0.5 * ws.dt
        G += term
    G.flat[::n + 1] += 1.0
    return G


def dense_cn_step(f: SpinorField, ws: StepWorkspace) -> SpinorField:
    """Direct LU solve of the Cayley system G psi* = G~ psi (G~ = 2I - G)."""
    G = build_dense_G(ws)
    flat = f.values.ravel()
    b = 2.0 * flat - G @ flat
    x = np.linalg.solve(G, b)
    return SpinorField(x.reshape(f.values.shape), f.grid)
