"""Shared oracles for the test suite.

These helpers are deliberately independent of the solver code paths they
check: brute-force mode sums, dense linear algebra, analytic dispersion, and
a general matrix exponential for the closed-form `exp_dirac`.
"""

import numpy as np
import pytest

from curvedirac.grid_spectral import SpinorField
from curvedirac.spinor_algebra import alpha_matrix, beta_matrix


def flat_exact_evolution(f: SpinorField, mass: float, t: float) -> SpinorField:
    """Exact flat-space evolution by per-mode diagonalization of alpha.xi + beta m.

    Works in any dimension; complexity O(S^3 N), independent of the split
    propagators under test.
    """
    grid = f.grid
    S = f.spinor_dim
    vhat = np.fft.fftn(f.values, axes=tuple(range(1, 1 + grid.d)))
    flat = vhat.reshape(S, -1)
    mesh = np.meshgrid(*grid.freqs, indexing="ij") if grid.d > 1 else [grid.freqs[0]]
    xis = [m.ravel() for m in mesh]
    beta = beta_matrix(S)
    out = np.empty_like(flat)
    for idx in range(flat.shape[1]):
        H = beta * mass
        for i, xi in enumerate(xis):
            H = H + alpha_matrix(i + 1, S) * xi[idx]
        w, V = np.linalg.eigh(H)
        out[:, idx] = (V * np.exp(-1j * w * t)) @ (V.conj().T @ flat[:, idx])
    out = out.reshape(vhat.shape)
    return SpinorField(np.fft.ifftn(out, axes=tuple(range(1, 1 + grid.d))), grid)


def expm_small(M: np.ndarray) -> np.ndarray:
    """Matrix exponential for a single S x S matrix (S <= 4).

    Hermitian / anti-Hermitian / normal inputs go through an eigendecomposition;
    anything else falls back to scaling-and-squaring on the Taylor series.
    """
    M = np.asarray(M, dtype=np.complex128)
    n = M.shape[0]
    nrm = np.linalg.norm(M)
    if nrm == 0.0:
        return np.eye(n, dtype=np.complex128)
    tol = 1e-13 * max(nrm, 1.0) ** 2
    if np.linalg.norm(M - M.conj().T) <= tol:
        w, V = np.linalg.eigh(M)
        return (V * np.exp(w)) @ V.conj().T
    if np.linalg.norm(M + M.conj().T) <= tol:
        w, V = np.linalg.eigh(-1j * M)
        return (V * np.exp(1j * w)) @ V.conj().T
    if np.linalg.norm(M @ M.conj().T - M.conj().T @ M) <= tol:
        w, V = np.linalg.eig(M)
        return (V * np.exp(w)) @ np.linalg.inv(V)
    # non-normal: scale so the series converges fast, square back
    s = max(0, int(np.ceil(np.log2(nrm))) + 1)
    T = M / (2.0 ** s)
    out = np.eye(n, dtype=np.complex128)
    term = np.eye(n, dtype=np.complex128)
    for j in range(1, 30):
        term = term @ T / j
        out = out + term
        if np.linalg.norm(term) < 1e-18:
            break
    for _ in range(s):
        out = out @ out
    return out


def loglog_slope(params, errors) -> float:
    return float(np.polyfit(np.log(params), np.log(errors), 1)[0])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
