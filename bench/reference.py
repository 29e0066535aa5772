"""Machine-speed reference: a fixed numpy miniature of each workload.

On a shared host the speed of one vCPU swings within seconds and drifts
over minutes, in CPU time as well as in wall time, so a time measured in one
window cannot be compared with one measured in another.  Each workload
therefore has a reference: the same kinds of numpy operation at the same
array sizes as the workload, in roughly the same proportions, written here
with numpy alone.  The runner runs the reference between the workload's
steps, timed apart from them, and scales the workload's times by
``nominal_s`` over the reference's mean time; a compute-bound workload gets a compute-bound reference and a
memory-bound one a memory-bound reference, so each follows the changes of
speed its workload sees.

Nothing here imports the solver, so a change to the solver cannot move its
own reference.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

SPINOR_DIM = 2


@dataclass(frozen=True)
class Recipe:
    shape: tuple            # grid shape of the workload
    solves: int             # Arnoldi cycles, each a FFT-pair matvec per iteration
    iterations: int         # Arnoldi iterations per cycle
    sweeps: int             # FFT pair along every axis plus two spin-kernel products
    csv_rows: int           # rows of ``x[,y],re0,im0,re1,im1`` formatted with repr
    nominal_s: float        # typical CPU seconds of one call on the machine bench/README.md describes


RECIPES = {
    # part of a cn solve: matvecs through FFT pairs at 18027, MGS on 36054-vectors
    "exp1-fft": Recipe((18027,), 1, 3, 0, 0, 0.025),
    # a long GMRES cycle at a small smooth size: Python-level MGS dominates
    "exp5-krylov": Recipe((1000,), 1, 30, 0, 0, 0.012),
    # a 512^2 explicit sweep: memory-bound FFTs and spin kernels, no Krylov
    "exp3-sweep2d": Recipe((512, 512), 0, 0, 1, 0, 0.056),
    # the per-node CSV writer and a 128^2 sweep
    "exp3-snapshots": Recipe((128, 128), 0, 0, 2, 1024, 0.016),
}


class Reference:
    """One call runs the workload's miniature once."""

    def __init__(self, recipe: Recipe, scratch: str):
        self.recipe = recipe
        self.path = os.path.join(scratch, "reference.csv")
        rng = np.random.default_rng(0)
        size = (SPINOR_DIM,) + recipe.shape
        self.field = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        self.phase = np.exp(1j * rng.standard_normal(recipe.shape))
        self.matrix = rng.standard_normal((SPINOR_DIM, SPINOR_DIM) + recipe.shape) + 0j
        self.alpha = np.array([[0, 1], [1, 0]], dtype=complex)
        self.rows = rng.standard_normal((recipe.csv_rows, 2 * SPINOR_DIM + len(recipe.shape)))

    def __call__(self):
        r = self.recipe
        for _ in range(r.solves):
            self._arnoldi(r.iterations)
        for _ in range(r.sweeps):
            self._sweep()
        if r.csv_rows:
            self._csv()

    def _matvec(self, v):
        """An FFT-derivative operator, applied as the Crank-Nicolson transport applies its own."""
        w = v.reshape(self.field.shape)
        out = w.copy()
        for axis in range(1, w.ndim):
            dw = np.fft.ifft(self.phase * np.fft.fft(w, axis=axis), axis=axis)
            out += 0.5 * self.phase * np.einsum("ab,b...->a...", self.alpha, dw)
        if not np.all(np.isfinite(out)):
            raise FloatingPointError("reference matvec is not finite")
        return out.ravel()

    def _arnoldi(self, m):
        """m steps of modified Gram-Schmidt with Givens rotations on the
        Hessenberg column, one numpy scalar at a time, as GMRES does."""
        q = np.empty((m + 1, self.field.size), dtype=complex)
        h = np.zeros((m + 1, m), dtype=complex)
        cs = np.zeros(m, dtype=complex)
        sn = np.zeros(m, dtype=complex)
        q[0] = self.field.ravel() / np.linalg.norm(self.field)
        for k in range(m):
            w = self._matvec(q[k])
            for j in range(k + 1):
                h[j, k] = np.vdot(q[j], w)
                w -= h[j, k] * q[j]
            h[k + 1, k] = np.linalg.norm(w)
            for j in range(k):
                t = cs[j] * h[j, k] + sn[j] * h[j + 1, k]
                h[j + 1, k] = -np.conj(sn[j]) * h[j, k] + np.conj(cs[j]) * h[j + 1, k]
                h[j, k] = t
            denom = np.sqrt(np.abs(h[k, k]) ** 2 + np.abs(h[k + 1, k]) ** 2)
            cs[k], sn[k] = np.conj(h[k, k]) / denom, np.conj(h[k + 1, k]) / denom
            q[k + 1] = w / h[k + 1, k]
        return h

    def _sweep(self):
        w = self.field
        for axis in range(1, w.ndim):
            w = np.fft.ifft(np.fft.fft(w, axis=axis), axis=axis)
        w = np.einsum("ab...,b...->a...", self.matrix, w)
        return np.einsum("ab...,b...->a...", self.matrix, self.phase * w)

    def _csv(self):
        with open(self.path, "w", encoding="utf-8") as fh:
            for row in self.rows:
                fh.write(",".join(repr(float(x)) for x in row) + "\n")
