"""Shared oracles for the test suite.

These helpers are deliberately independent of the solver code paths they
check: brute-force mode sums, dense linear algebra, analytic dispersion, and
a general matrix exponential for the closed-form `exp_dirac`, and the
full-mesh formulas of the set-up build (initial data, metric sample, covariant
weight), evaluated on `Grid.meshes()` copies as the package once did.
"""

import os

# One BLAS thread, set before numpy loads (as bench/run.py does): the suite's
# products are small, and on a 2-CPU host OpenBLAS's default threads took
# it from 56 s to 73 s.  The demos that test_demo_runs starts inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from curvedirac.errors import GeometryError
from curvedirac.geometry import MetricSample, graphene_f
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


def _rho2(coords):
    return sum(c * c for c in coords)


def _mesh_shape(coords):
    return np.broadcast_shapes(*(np.shape(x) for x in coords))


# value of the forms that take more than one coordinate, each written on
# full meshes with one radial exponential
_MESH_FORMS = {
    "zero": lambda p, c: np.zeros(_mesh_shape(c)),
    "const": lambda p, c: np.full(_mesh_shape(c), p[0]),
    "gauss": lambda p, c: p[0] * np.exp(-p[1] * _rho2(c)),
    "well": lambda p, c: p[0] * (1.0 - np.exp(-p[1] * _rho2(c))),
}


def mesh_value(form, *meshes):
    """form's value on full meshes; the one-coordinate forms are their own."""
    if form.name not in _MESH_FORMS:
        return form.value(*meshes)
    return _MESH_FORMS[form.name](form.params, meshes)


def _mesh_strain(model, grid):
    f = graphene_f(grid.meshes()[0], model.a0, model.k0, model.ell)
    if not float(np.max(f)) < 1.0:
        raise GeometryError("degenerate graphene metric")
    return f


def mesh_sample_metric(model, grid) -> MetricSample:
    """`geometry.sample_metric` with every form evaluated on full meshes."""
    coords = grid.meshes()
    if model.kind == "flat":
        G = np.full(grid.shape, float(model.mass))
        scal = mesh_value(model.v_pot, *coords) if model.v_pot.name != "zero" else 0.0
        gvec = (-mesh_value(model.ax_pot, *coords),) if model.ax_pot.name != "zero" else ()
        return MetricSample([np.ones(grid.shape)] * grid.d, None, G, gvec, scal)
    if model.kind == "graphene":
        x = coords[0]
        a = 1.0 / (1.0 - _mesh_strain(model, grid))
        v = mesh_value(model.v_pot, x) if model.v_pot.name != "zero" else np.zeros(grid.shape)
        gvec = (-a * mesh_value(model.ax_pot, x),) if model.ax_pot.name != "zero" else ()
        return MetricSample([a], None, model.mass - v, gvec, 0.0)
    phi = mesh_value(model.phi, *coords)
    a = np.exp(phi - mesh_value(model.psi, *coords))
    gauge = phi if np.ptp(phi) else None
    return MetricSample([a] * grid.d, gauge, np.exp(phi) * model.mass, (), 0.0)


def mesh_gamma_weight(model, grid) -> np.ndarray:
    """`geometry.gamma_weight` with Psi evaluated on full meshes."""
    if model.kind == "flat":
        return np.ones(grid.shape)
    if model.kind == "graphene":
        return 1.0 - _mesh_strain(model, grid)
    return np.exp(grid.d * mesh_value(model.psi, *grid.meshes()))


def mesh_initial_condition(cfg, grid) -> SpinorField:
    """`harness.initial_condition` of the two closed-form families, with one
    exponential over full meshes."""
    coords = grid.meshes()
    values = np.zeros((cfg.metric.spinor_dim,) + grid.shape, dtype=np.complex128)
    centered2 = sum((c - x0) ** 2 for c, x0 in zip(coords, cfg.ic_x0))
    if cfg.ic_kind == "gaussian_wavepacket":
        phase = sum(k * c for k, c in zip(cfg.ic_k0, coords))
        values[0] = np.exp(-centered2 / (2.0 * cfg.ic_width ** 2) + 1j * phase)
        return SpinorField(values, grid)
    envelope = cfg.ic_beta * np.exp(-cfg.ic_beta * centered2 / 2.0) / np.sqrt(4.0 * np.pi)
    values[0] = envelope
    values[1] = 1j * envelope
    return SpinorField(values, grid)


def loglog_slope(params, errors) -> float:
    return float(np.polyfit(np.log(params), np.log(errors), 1)[0])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
