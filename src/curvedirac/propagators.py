"""Strang-split time steppers: Crank-Nicolson transport and directional
exponential-polynomial transport, shared pointwise stages.

One step advances psi by dt as

    lead (pointwise) -> transport -> trail (pointwise)

The pointwise factors are exact exponentials evaluated at every node.  The
half potential E = exp(-i dt/2 M(x)) is unitary whenever M is Hermitian.  In
the static metrics, the connection factor C = exp(-dt/2 sum_i a c^i alpha^i)
carries the anti-Hermitian spin-connection term, split symmetrically about
the transport so the overall order-2 accuracy is preserved.  The workspace
folds the two into lead = C E and trail = E C, so a step applies one matrix
field on each side of the transport; without a connection lead = trail = E.

Transport variants:

* ``cn``    semi-implicit Cayley form: solve (I + dt/2 a.alpha.[[grad]]) psi* =
            (I - dt/2 a.alpha.[[grad]]) psi matrix-free with GMRES.  On 1-D
            grids the solve may be right-preconditioned by a circulant (see
            `cn_transport_step`); either way one GMRES iteration costs one
            FFT pair.
* ``poly1`` per-axis blend a * (exponentially shifted) + (1 - a) * unshifted,
            the shift exp(-i dt xi alpha^i) = cos(dt xi) - i sin(dt xi) alpha^i
            applied to the Fourier coefficients; explicit, one FFT pair per
            axis.
* ``poly2`` poly1 plus the explicit dt^2 a [[d_i^2]] correction applied to the
            shifted field.  Note the correction term is explicit, so unlike
            poly1 this variant is subject to a dt * xi_max < sqrt(2) restriction.

PML enters only through the transport stage: velocities are divided by the
complex stretch fields.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, StepFailureError
from .geometry import MetricModel, MetricSample, sample_metric
from .grid_spectral import Grid, SpinorField, derivative_multiplier, derivative_values
from .krylov import KrylovOptions, gmres
from .pml import PmlConfig, apply_pml, stretch_factor
from .spinor_algebra import alpha_matrix, exp_dirac

SCHEMES = ("cn", "poly1", "poly2")
# The circulant preconditioner is used when kappa > PRECONDITION_RATIO * q
# (see `cayley_preconditioner`).
PRECONDITION_RATIO = 10.0
# The preconditioned solve's Arnoldi estimate stops at this fraction of the
# Krylov tolerance: at the tolerance itself its per-step errors add up
# coherently over a run (cn's temporal order then drops from 2.00 to 1.76).
PRECONDITIONED_TOL_SHARE = 0.1


def _spin_matmul(mat, values):
    """Apply an (S, S) or (S, S, *grid) matrix field on the spinor axis."""
    if mat.ndim == 2:
        return (mat @ values.reshape(len(mat), -1)).reshape(values.shape)
    return np.einsum("ab...,b...->a...", mat, values)


def _field_product(A, B, out=None):
    """Pointwise S x S product A(x) B(x) of two (S, S, *grid) matrix fields,
    entry by entry.  With out=A the product overwrites A, each row formed in
    one scratch row first."""
    S = A.shape[0]
    if out is None:
        out = np.empty(A.shape, dtype=np.complex128)
    row = np.empty(A.shape[1:], dtype=np.complex128) if out is A else None
    term = np.empty(A.shape[2:], dtype=np.complex128)
    for a in range(S):
        dst = out[a] if row is None else row
        for b in range(S):
            np.multiply(A[a, 0], B[0, b], out=dst[b])
            for k in range(1, S):
                np.multiply(A[a, k], B[k, b], out=term)
                dst[b] += term
        if row is not None:
            out[a] = row
    return out


def _half_potential(sample: MetricSample, tau, S):
    """E = exp(-i tau M) at every node."""
    out = exp_dirac(-tau * sample.G, [-tau * np.asarray(g) for g in sample.Gvec], S)
    if np.any(sample.scalar):
        out *= np.exp(-1j * tau * sample.scalar)
    return out


def _connection_half(sample: MetricSample, tau, S):
    """C = exp(-tau sum_i a c^i alpha^i) at every node, or None without a
    connection.  As exp(i alpha . (i u)), u = tau a c, it is a real
    hyperbolic factor."""
    if sample.connection is None:
        return None
    return exp_dirac(0.0, [1j * tau * v * c for v, c in zip(sample.velocity, sample.connection)], S)


class StepWorkspace:
    """Precomputed per-step data: the two fused pointwise factors, stretched
    velocities and derivative multipliers, all built from one
    `geometry.sample_metric` of the model.

    ``lead`` is applied before the transport and ``trail`` after it.  Each is
    the half-potential exponential E = exp(-i dt/2 M), with the connection's
    half factor C = exp(-dt/2 sum_i a c^i alpha^i) folded in when the metric
    has one: lead = C E and trail = E C.  Without a connection one array
    serves as both.  ``a_eff`` holds the per-axis velocities, divided by the
    layer's stretch when one is enabled; without a layer the axes may share
    one array.  Potentials of the built-in models are static, so one
    workspace serves every step of size dt.
    """

    def __init__(self, model: MetricModel, grid: Grid, dt: float,
                 pml: PmlConfig | None = None):
        sample = sample_metric(model, grid)
        self.grid = grid
        self.dt = float(dt)
        self.S = model.spinor_dim

        if pml is not None and pml.enabled:
            self.a_eff = [apply_pml(sample.velocity[i], stretch_factor(pml, i, grid), i)
                          for i in range(grid.d)]
        else:
            self.a_eff = sample.velocity

        self.alpha = [alpha_matrix(i + 1, self.S) for i in range(grid.d)]
        self.d1_mult = [derivative_multiplier(grid, i, 1) for i in range(grid.d)]
        self.d2_mult = [derivative_multiplier(grid, i, 2) for i in range(grid.d)]

        # the sample is dropped before the products; trail is new and lead
        # overwrites conn_half, so the build peaks at three matrix fields and
        # a scratch row
        tau = 0.5 * self.dt
        exp_half = _half_potential(sample, tau, self.S)
        conn_half = _connection_half(sample, tau, self.S)
        del sample
        if conn_half is None:
            self.lead = self.trail = exp_half
        else:
            self.trail = _field_product(exp_half, conn_half)
            self.lead = _field_product(conn_half, exp_half, out=conn_half)
        self.last_krylov = None
        self.cayley = None   # (dt, a_eff[0], preconditioner), built by the first cn solve


def half_potential_step(f: SpinorField, ws: StepWorkspace, trailing: bool = False) -> SpinorField:
    """Pointwise product with exp(-i dt/2 M) at every node, the connection's
    half factor folded in when the metric has one: ws.lead before the
    transport, ws.trail (``trailing``) after it."""
    return SpinorField(_spin_matmul(ws.trail if trailing else ws.lead, f.values), f.grid)


def cn_apply_values(values, ws, sign):
    """Apply I + sign (dt/2) sum_i (a^i/S^i) alpha^i [[d_i]] to field values, matrix-free."""
    out = values.copy()
    coef = sign * 0.5 * ws.dt
    for i in range(ws.grid.d):
        dv = derivative_values(values, i, ws.d1_mult[i])
        out += coef * ws.a_eff[i] * _spin_matmul(ws.alpha[i], dv)
    return out


class CirculantPreconditioner:
    """M = m + c alpha [[d]] for the 1-D Cayley solve, c = dt/2.

    Since alpha^2 = I, the symbol inverts in closed form:
    M^-1 = F^-1 (m - c mult alpha) / (m^2 - c^2 mult^2) F, mult the
    first-derivative multiplier (Nyquist policy kept).
    """

    def __init__(self, w, m, c, mult, alpha):
        self.w = w                  # 1 / a_eff
        self.m = m                  # midrange of Re w
        self.shift = w - m
        den = m * m - c * c * mult * mult
        self.s0 = m / den
        self.s1 = c * mult / den
        self.alpha = alpha

    def solve(self, values):
        """M^-1 values, one FFT pair."""
        vhat = np.fft.fft(values, axis=1)
        out = self.s0 * vhat - self.s1 * _spin_matmul(self.alpha, vhat)
        return np.fft.ifft(out, axis=1)


def cayley_preconditioner(ws: StepWorkspace) -> CirculantPreconditioner | None:
    """The circulant preconditioner of the cn solve, or None for plain GMRES.

    With c = dt/2, a = a_eff, w = 1/a and m the midrange of Re w, the rule
    compares kappa = |c| xi_max max|a|, which sets the plain iteration count,
    with q = max|w - m| / m, which sets the preconditioned one, and picks the
    preconditioner when kappa > PRECONDITION_RATIO * q.  2-D grids, a zero
    velocity and a non-finite or non-positive w fall back to plain GMRES.
    Built at the first solve from the workspace's current dt and a_eff, and
    rebuilt when either is replaced.
    """
    if ws.grid.d != 1:
        return None
    a = ws.a_eff[0]
    if ws.cayley is not None and ws.cayley[0] == ws.dt and ws.cayley[1] is a:
        return ws.cayley[2]
    pre = None
    if np.all(a != 0):
        w = 1.0 / a
        if np.all(np.isfinite(w)):
            m = 0.5 * (np.max(w.real) + np.min(w.real))
            mult = ws.d1_mult[0]
            c = 0.5 * ws.dt
            kappa = abs(c) * np.max(np.abs(mult)) * np.max(np.abs(a))
            if m > 0 and kappa > PRECONDITION_RATIO * np.max(np.abs(w - m)) / m:
                pre = CirculantPreconditioner(w, m, c, mult, ws.alpha[0])
    ws.cayley = (ws.dt, a, pre)
    return pre


def cn_transport_step(f: SpinorField, ws: StepWorkspace,
                      opts: KrylovOptions | None = None) -> SpinorField:
    """Cayley transport: GMRES-solve A psi* = (2I - A) psi, A = I + c a alpha [[d]].

    Plain GMRES starts from psi.  With a `cayley_preconditioner`, the system
    is scaled on the left by w = 1/a and preconditioned on the right by M:

        (I + (w - m) M^-1) y = w psi - c alpha [[d]] psi,   psi* = M^-1 y,

    started from y0 = M psi = m psi + c alpha [[d]] psi, so one derivative
    gives both the right-hand side and the warm start.  The residual weight a
    keeps the exit check on the unscaled residual ||b - A psi*|| / ||b||,
    and the Arnoldi estimate aims at PRECONDITIONED_TOL_SHARE of the
    tolerance.  The closing true-residual product has already computed
    M^-1 y, so psi* costs no further FFT pair: a step costs one FFT pair
    more than its operator products, as on the plain path.
    """
    opts = opts or KrylovOptions()
    pre = cayley_preconditioner(ws)
    if pre is None:
        b = cn_apply_values(f.values, ws, -1)
        x, report = gmres(
            lambda v: cn_apply_values(v, ws, +1),
            b, x0=f.values, tol=opts.tol, restart=opts.restart, maxit=opts.maxit,
        )
    else:
        psi = f.values
        adv = 0.5 * ws.dt * _spin_matmul(pre.alpha, derivative_values(psi, 0, ws.d1_mult[0]))
        last = [None, None]   # the operator's last input and its M^-1 image

        def apply(y):
            z = pre.solve(y)
            last[:] = y, z
            return y + pre.shift * z

        y, report = gmres(
            apply, pre.w * psi - adv, x0=pre.m * psi + adv,
            tol=opts.tol, restart=opts.restart, maxit=opts.maxit,
            weight=ws.a_eff[0], estimate_tol=PRECONDITIONED_TOL_SHARE * opts.tol,
        )
        x = last[1] if last[0] is not None and np.array_equal(last[0], y) else pre.solve(y)
    ws.last_krylov = report
    if not report.converged:
        raise StepFailureError(
            f"transport solve stalled: residual {report.residual:.3e} "
            f"after {report.iterations} iterations")
    return SpinorField(x, f.grid)


def _poly_sweep(f: SpinorField, axis: int, ws: StepWorkspace, second_order: bool) -> SpinorField:
    """The directional sweep shared by poly1 and poly2:

        Xi = F^-1[(cos(dt xi) - i sin(dt xi) alpha^i) F psi],
        psi' = psi + a (Xi - psi) [+ dt^2 a [[d_i^2]] Xi for poly2].

    The bracket is exp(-i dt xi alpha^i), since (alpha^i)^2 = I.
    """
    ax = 1 + axis
    shape = [1] * f.values.ndim
    shape[ax] = ws.grid.N[axis]
    theta = (ws.dt * ws.grid.freqs[axis]).reshape(shape)
    vhat = np.fft.fft(f.values, axis=ax)
    rot = _spin_matmul(ws.alpha[axis], vhat)
    rot *= -1j * np.sin(theta)
    vhat *= np.cos(theta)
    vhat += rot
    xi = np.fft.ifft(vhat, axis=ax)
    a = ws.a_eff[axis]
    if second_order:
        corr = derivative_values(xi, axis, ws.d2_mult[axis])
        corr *= (ws.dt ** 2) * a
    xi -= f.values
    xi *= a
    xi += f.values
    if second_order:
        xi += corr
    return SpinorField(xi, f.grid)


def poly_axis_step(f: SpinorField, axis: int, ws: StepWorkspace) -> SpinorField:
    """One directional step of the exponential blend scheme (poly1)."""
    return _poly_sweep(f, axis, ws, second_order=False)


def poly_axis_step2(f: SpinorField, axis: int, ws: StepWorkspace) -> SpinorField:
    """Directional step with the explicit dt^2 second-derivative correction (poly2)."""
    return _poly_sweep(f, axis, ws, second_order=True)


def strang_step(f: SpinorField, scheme: str, ws: StepWorkspace,
                krylov: KrylovOptions | None = None) -> SpinorField:
    """One full Strang step of size ws.dt with the named transport scheme:
    ws.lead, the transport, ws.trail (see `StepWorkspace`).

    The Krylov report (cn only) lands on ws.last_krylov.
    """
    if scheme not in SCHEMES:
        raise ConfigurationError(f"scheme must be one of {SCHEMES}, got '{scheme}'")
    ws.last_krylov = None
    f = half_potential_step(f, ws)
    if scheme == "cn":
        f = cn_transport_step(f, ws, krylov)
    else:
        step = poly_axis_step if scheme == "poly1" else poly_axis_step2
        for axis in range(ws.grid.d):
            f = step(f, axis, ws)
    return half_potential_step(f, ws, trailing=True)
