"""Strang-split time steppers: Crank-Nicolson transport and directional
exponential-polynomial transport, shared half-potential stages.

One step advances psi by dt as

    half potential -> [connection factor] -> transport -> [connection factor] -> half potential

where the half-potential stage is the exact pointwise exponential
exp(-i dt/2 M(x)) (unitary whenever M is Hermitian) and the
connection factor exp(-dt/2 sum_i a c^i alpha^i) carries the anti-Hermitian
spin-connection term of the static metrics, split symmetrically so the overall
order-2 accuracy is preserved.

Transport variants:

* ``cn``    semi-implicit Cayley form: solve (I + dt/2 a.alpha.[[grad]]) psi* =
            (I - dt/2 a.alpha.[[grad]]) psi matrix-free with GMRES.
* ``poly1`` per-axis blend a * (exponentially shifted) + (1 - a) * unshifted,
            the shift taken in the alpha^i eigenbasis; explicit, one FFT pair
            per axis.
* ``poly2`` poly1 plus the explicit dt^2 a [[d_i^2]] correction applied to the
            shifted field.  Note the correction term is explicit, so unlike
            poly1 this variant is subject to a dt * xi_max < sqrt(2) restriction.

PML enters only through the transport stage: velocities are divided by the
complex stretch fields.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, StepFailureError
from .geometry import MetricModel, connection_fields, potential_field, velocity_fields
from .grid_spectral import Grid, SpinorField, derivative_multiplier, derivative_values
from .krylov import KrylovOptions, gmres
from .pml import PmlConfig, apply_pml, stretch_factor
from .spinor_algebra import alpha_matrix, diagonalize_alpha, exp_dirac

SCHEMES = ("cn", "poly1", "poly2")


def _spin_matmul(mat, values):
    """Apply an (S, S) or (S, S, *grid) matrix field on the spinor axis."""
    if mat.ndim == 2:
        return np.einsum("ab,b...->a...", mat, values)
    return np.einsum("ab...,b...->a...", mat, values)


class StepWorkspace:
    """Precomputed per-step data: potential exponentials, stretched velocities,
    alpha diagonalizations, directional phases, connection factors.

    Potentials of the built-in models are static, so one workspace serves
    every step of size dt.
    """

    def __init__(self, model: MetricModel, grid: Grid, dt: float,
                 pml: PmlConfig | None = None):
        model.check_grid(grid)
        self.grid = grid
        self.dt = float(dt)
        self.S = model.spinor_dim

        self.vel = velocity_fields(model, grid)
        if pml is not None and pml.enabled:
            self.stretch = [stretch_factor(pml, i, grid) for i in range(grid.d)]
            self.a_eff = [apply_pml(self.vel[i], self.stretch[i], i) for i in range(grid.d)]
        else:
            self.stretch = [np.ones(grid.N[i]) for i in range(grid.d)]
            self.a_eff = [a.copy() for a in self.vel]

        self.alpha = [alpha_matrix(i + 1, self.S) for i in range(grid.d)]
        self.diag = [diagonalize_alpha(i + 1, self.S) for i in range(grid.d)]
        self.d1_mult = [derivative_multiplier(grid, i, 1) for i in range(grid.d)]
        self.d2_mult = [derivative_multiplier(grid, i, 2) for i in range(grid.d)]
        # directional phases exp(-i dt lam_s xi_p), shape (S, N_i)
        self.poly_phase = [
            np.exp(-1j * self.dt * np.outer(self.diag[i].Lam, grid.freqs[i]))
            for i in range(grid.d)
        ]

        conn = connection_fields(model, grid)
        if any(np.any(c) for c in conn):
            u = [1j * 0.5 * self.dt * self.vel[i] * conn[i] for i in range(grid.d)]
            # exp(i alpha . (i u)) = exp(-(dt/2) sum a c^i alpha^i), real hyperbolic factor
            self.conn_half = exp_dirac(0.0, u, self.S)
        else:
            self.conn_half = None

        pot = potential_field(model, grid)
        tau = 0.5 * self.dt
        phase = np.exp(-1j * tau * np.asarray(pot.scalar))
        self.exp_half = exp_dirac(
            -tau * np.asarray(pot.G), [-tau * np.asarray(g) for g in pot.Gvec], self.S
        ) * phase
        self.last_krylov = None


def half_potential_step(f: SpinorField, ws: StepWorkspace) -> SpinorField:
    """Pointwise product with exp(-i dt/2 M) at every node."""
    return SpinorField(_spin_matmul(ws.exp_half, f.values), f.grid)


def cn_operator_apply(f: SpinorField, ws: StepWorkspace, sign: int) -> SpinorField:
    """Apply I + sign (dt/2) sum_i (a^i/S^i) alpha^i [[d_i]], matrix-free."""
    return SpinorField(_cn_apply_values(f.values, ws, sign), f.grid)


def _cn_apply_values(values, ws, sign):
    out = values.copy()
    coef = sign * 0.5 * ws.dt
    for i in range(ws.grid.d):
        dv = derivative_values(values, i, ws.d1_mult[i])
        out += coef * ws.a_eff[i] * _spin_matmul(ws.alpha[i], dv)
    return out


def cn_transport_step(f: SpinorField, ws: StepWorkspace,
                      opts: KrylovOptions | None = None) -> SpinorField:
    """Cayley transport: GMRES-solve G psi* = G~ psi with warm start psi."""
    opts = opts or KrylovOptions()
    b = _cn_apply_values(f.values, ws, -1)
    x, report = gmres(
        lambda v: _cn_apply_values(v, ws, +1),
        b, x0=f.values, tol=opts.tol, restart=opts.restart, maxit=opts.maxit,
    )
    ws.last_krylov = report
    if not report.converged:
        raise StepFailureError(
            f"transport solve stalled: residual {report.residual:.3e} "
            f"after {report.iterations} iterations", report)
    return SpinorField(x, f.grid)


def _poly_sweep(f: SpinorField, axis: int, ws: StepWorkspace, second_order: bool) -> SpinorField:
    """The directional sweep shared by poly1 and poly2:

        Xi = Pi F^-1[exp(-i dt Lam xi) F Pi^dagger psi],
        psi' = a Xi + (1 - a) psi [+ dt^2 a [[d_i^2]] Xi for poly2].
    """
    Pi = ws.diag[axis].Pi
    phi = _spin_matmul(Pi.conj().T, f.values)
    shape = [1] * phi.ndim
    shape[0] = ws.S
    shape[1 + axis] = ws.grid.N[axis]
    phase = ws.poly_phase[axis].reshape(shape)
    shifted = np.fft.ifft(phase * np.fft.fft(phi, axis=1 + axis), axis=1 + axis)
    xi = _spin_matmul(Pi, shifted)
    a = ws.a_eff[axis]
    out = a * xi + (1.0 - a) * f.values
    if second_order:
        out += (ws.dt ** 2) * a * derivative_values(xi, axis, ws.d2_mult[axis])
    return SpinorField(out, f.grid)


def poly_axis_step(f: SpinorField, axis: int, ws: StepWorkspace) -> SpinorField:
    """One directional step of the exponential blend scheme (poly1)."""
    return _poly_sweep(f, axis, ws, second_order=False)


def poly_axis_step2(f: SpinorField, axis: int, ws: StepWorkspace) -> SpinorField:
    """Directional step with the explicit dt^2 second-derivative correction (poly2)."""
    return _poly_sweep(f, axis, ws, second_order=True)


def strang_step(f: SpinorField, scheme: str, ws: StepWorkspace,
                krylov: KrylovOptions | None = None) -> SpinorField:
    """One full Strang step of size ws.dt with the named transport scheme.

    The Krylov report (cn only) lands on ws.last_krylov.
    """
    if scheme not in SCHEMES:
        raise ConfigurationError(f"scheme must be one of {SCHEMES}, got '{scheme}'")
    ws.last_krylov = None
    f = half_potential_step(f, ws)
    if ws.conn_half is not None:
        f = SpinorField(_spin_matmul(ws.conn_half, f.values), f.grid)
    if scheme == "cn":
        f = cn_transport_step(f, ws, krylov)
    else:
        step = poly_axis_step if scheme == "poly1" else poly_axis_step2
        for axis in range(ws.grid.d):
            f = step(f, axis, ws)
    if ws.conn_half is not None:
        f = SpinorField(_spin_matmul(ws.conn_half, f.values), f.grid)
    return half_potential_step(f, ws)
