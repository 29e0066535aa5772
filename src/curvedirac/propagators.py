"""Strang-split time steppers: Crank-Nicolson transport and directional
exponential-polynomial transport, shared pointwise stages.

One step advances psi by dt as

    half (pointwise) -> transport -> half (pointwise)

The paper splits the Hamiltonian into the transport -i sum_i a^i alpha^i d_i
and the local part H_loc = M - i sum_i a c^i alpha^i.  The pointwise factor
is the exact half step of H_loc at every node,

    exp(-i dt/2 H_loc) = exp(-dt/2 (i M + sum_i a c^i alpha^i)),

one closed-form exponential (`spinor_algebra.exp_dirac`): M is Hermitian and
the spin connection's term anti-Hermitian, so the factor is unitary only
without a connection.  The symmetric split keeps order 2.

Transport variants:

* ``cn``    semi-implicit Cayley form: solve (I + dt/2 a.alpha.[[grad]]) psi* =
            (I - dt/2 a.alpha.[[grad]]) psi matrix-free with GMRES.  On 1-D
            grids the solve may be right-preconditioned by one banded Fourier
            preconditioner (see `BandPreconditioner`, `cn_transport_step`):
            a circulant in general, and on rippled graphene whose ripple fits
            the box the exact inverse of the scaled system, so GMRES stops at
            its first check and a step costs 2 FFT pairs.  Otherwise one GMRES
            iteration costs one FFT pair.
* ``poly1`` per-axis blend w * (exponentially shifted) + (1 - w) * unshifted,
            the shift exp(-i theta alpha^i) = cos(theta) - i sin(theta) alpha^i
            applied to the Fourier coefficients; explicit, one FFT pair per
            axis.  With ahat = max(1, max|a|) the shift is theta = dt ahat xi
            and the weight w = a / ahat, so w stays in [0, 1] where a > 1
            (0 <= a <= 1: ahat = 1, theta = dt xi, w = a).
* ``poly2`` the blend with theta = dt xi and w = a, plus the explicit
            dt^2 a [[d_i^2]] correction applied to the shifted field.  Note the
            correction term is explicit, so unlike poly1 this variant is
            subject to a dt * xi_max < sqrt(2) restriction, which
            `harness.RunConfig` enforces.

PML enters only through the transport stage: velocities are divided by the
complex stretch fields.

Memory.  An explicit step allocates only the field it returns: the two
pointwise stages and the sweeps alternate between that array and one
scratch field that the workspace owns (`StepWorkspace.scratch`; poly2's
correction takes a second one).  The scratch is allocated at the first
explicit step, not in the build, and reused by every later step; the FFTs
run in place, and the pointwise loops take temporaries of one grid slab
(SLAB nodes).  The public stage functions return a fresh field unless a
caller passes ``out``.  The ``cn`` step takes no workspace scratch: each
pointwise stage returns a fresh field, and the transport returns GMRES's (or
the banded solve's) fresh solution.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, StepFailureError
from .geometry import MetricModel, MetricSample, ripple_band, sample_metric
from .grid_spectral import Grid, SpinorField, derivative_multiplier, derivative_values
from .krylov import KrylovOptions, gmres
from .pml import PmlConfig, apply_pml, stretch_factor
from .spinor_algebra import alpha_matrix, exp_dirac

SCHEMES = ("cn", "poly1", "poly2")
# Away from a fitted graphene ripple, the circulant preconditioner is used
# when kappa > PRECONDITION_RATIO * q (see `cayley_preconditioner`).
PRECONDITION_RATIO = 10.0
# The preconditioned solve's Arnoldi estimate stops at this fraction of the
# Krylov tolerance: at the tolerance itself its per-step errors add up
# coherently over a run (cn's temporal order then drops from 2.00 to 1.76).
PRECONDITIONED_TOL_SHARE = 0.1
# Grid nodes per slab of the explicit step's pointwise loops: their
# temporaries stay small (128 KB each) and in cache.
SLAB = 1 << 13


def _slabs(shape, temps):
    """(rows, scratch) over slabs of about SLAB nodes of a grid ``shape``:
    ``rows`` slices its first axis, ``scratch`` holds ``temps`` complex
    arrays shaped like the slab."""
    step = max(1, SLAB // math.prod(shape[1:]))
    buf = np.empty((temps, min(step, shape[0])) + tuple(shape[1:]), dtype=np.complex128)
    for lo in range(0, shape[0], step):
        yield slice(lo, lo + step), buf[:, :min(step, shape[0] - lo)]


def _spin_matmul(mat, values, out=None):
    """Apply an (S, S) matrix or (S, S, *grid) matrix field on the spinor axis.

    The matrix is applied entry by entry, out[a] = values[0] mat[a, 0]
    + values[1] mat[a, 1] + ..., one slab of the grid at a time, into
    ``out`` when given; ``out`` must not overlap ``values``.  This runs on
    the calling thread alone, where a BLAS product would start its own
    thread pool for the constant alpha matrices.
    """
    if out is None:
        out = np.empty(values.shape, dtype=np.complex128)
    for rows, (term,) in _slabs(values.shape[1:], 1):
        m = mat if mat.ndim == 2 else mat[:, :, rows]
        v, o = values[:, rows], out[:, rows]
        for a in range(len(mat)):
            np.multiply(v[0], m[a, 0], out=o[a])
            for k in range(1, len(mat)):
                np.multiply(v[k], m[a, k], out=term)
                o[a] += term
    return out


def _half_potential(sample: MetricSample, tau, S):
    """exp(-tau (i M + sum_i a c^i alpha^i)) at every node.  The metrics
    with a connection (static1d, static2d) have no alpha potential, so each
    alpha coefficient is real (-tau Gvec) or purely imaginary (i tau a c^i)
    and one `exp_dirac` call covers both terms."""
    gvec = [-tau * np.asarray(g) for g in sample.Gvec]
    for i, (v, c) in enumerate(zip(sample.velocity, sample.connection or ())):
        gvec[i] = gvec[i] + 1j * tau * v * c
    out = exp_dirac(-tau * sample.G, gvec, S)
    if np.any(sample.scalar):
        out *= np.exp(-1j * tau * sample.scalar)
    return out


class StepWorkspace:
    """Precomputed per-step data: the pointwise factor, stretched velocities
    and derivative multipliers, all built from one `geometry.sample_metric`
    of the model.

    ``half`` is the half step exp(-dt/2 (i M + sum_i a c^i alpha^i)) of the
    local generator, applied on both sides of the transport; the connection
    term is absent on flat space and graphene, where ``half`` is the bare
    half potential exp(-i dt/2 M).  ``a_eff`` holds the per-axis
    velocities, divided by the layer's stretch when one is enabled; without
    a layer the axes may share one array.  ``ripple`` is the model's
    `geometry.ripple_band` when no layer is set, which the cn preconditioner
    inverts exactly.  Potentials of the built-in models are static, so one
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

        self.half = _half_potential(sample, 0.5 * self.dt, self.S)
        self.ripple = None if pml is not None and pml.enabled else ripple_band(model, grid)
        self.last_krylov = None
        self.cayley = None   # (dt, a_eff[0], preconditioner), built by the first cn solve
        self.sweeps = {}     # (axis, second_order) -> (dt, a_eff[axis], factors)
        self.fields = {}     # the explicit step's scratch, see `scratch`

    def scratch(self, k):
        """Scratch field k of the explicit step, (S, *grid): 0 carries
        every other stage's result, 1 poly2's dt^2 correction.  Each is
        allocated at its first use, not in the build, and reused by every
        later step."""
        if k not in self.fields:
            self.fields[k] = np.empty((self.S,) + self.grid.shape, dtype=np.complex128)
        return self.fields[k]


def half_potential_step(f: SpinorField, ws: StepWorkspace, out=None) -> SpinorField:
    """Pointwise product with ws.half, the half step of the local generator
    (see `StepWorkspace`), written into ``out`` when given (it must not
    overlap f), otherwise into a fresh array."""
    return SpinorField(_spin_matmul(ws.half, f.values, out=out), f.grid)


def cn_apply_values(values, ws, sign):
    """Apply I + sign (dt/2) sum_i (a^i/S^i) alpha^i [[d_i]] to field values, matrix-free."""
    out = values.copy()
    coef = sign * 0.5 * ws.dt
    for i in range(ws.grid.d):
        dv = derivative_values(values, i, ws.d1_mult[i])
        out += coef * ws.a_eff[i] * _spin_matmul(ws.alpha[i], dv)
    return out


class BandPreconditioner:
    """M = w_band + c alpha [[d]] for the 1-D Cayley solve, c = dt/2, where
    w_band = w0 + wK (e^{i K x} + e^{-i K x}) has Fourier modes 0 and +-K
    only; the circulant is the case K = 0 (w_band = w0, wK = 0).

    With the projectors P+- = (I +- alpha)/2, M = T+ P+ + T- P-: each T+-
    is a scalar operator that couples Fourier mode j with j +- K, with
    diagonal w0 +- c mult_j (mult the first-derivative multiplier, Nyquist
    policy kept) and off-diagonal wK.  At K = 0 it is diagonal, and M^-1
    has the closed-form symbol (w0 - c mult alpha) / (w0^2 - c^2 mult^2).
    At K > 0 the modes fall into g = gcd(N, K) cyclic chains r, r + K,
    r + 2K, ... of n = N/g modes each; every chain is a cyclic tridiagonal
    system, factored once by Thomas elimination plus a Sherman-Morrison
    correction for the corners, vectorised over the chains and +-, its
    sweeps run in blocks of about sqrt(n) modes (see `_sweep`).  The
    factors take O(N) storage.  w - w_band stays in the operator as
    ``shift`` (see `cn_transport_step`).
    """

    def __init__(self, w, K, w0, wK, c, mult, alpha):
        N = mult.size
        self.w = w                  # 1 / a_eff
        self.alpha = alpha
        self.K = K
        diag = w0 + np.multiply.outer([c, -c], mult)           # (2, N): T+ and T-
        if K == 0:
            self.shift = w - w0
            inv = 1.0 / diag
            # M^-1 = inv+ P+ + inv- P- = s0 + s1 alpha
            self.s0 = 0.5 * (inv[0] + inv[1])
            self.s1 = 0.5 * (inv[0] - inv[1])
            return
        self.shift = w - (w0 + 2.0 * wK * np.cos(2.0 * np.pi * K * np.arange(N) / N))
        eye = np.eye(len(alpha))
        self.proj = np.vstack([eye + alpha, eye - alpha]) / 2   # P+ over P-
        g = math.gcd(N, K)
        n = N // g
        m = math.isqrt(n - 1) + 1     # block length of the sweeps, about sqrt(n)
        nb = -(-n // m)

        def blocked(a):
            # chain position t = k m + s (block k, offset s) on the last two
            # axes (t, chain) -> (s, k, chain)
            return np.ascontiguousarray(a.reshape(a.shape[:-2] + (nb, m, g)).swapaxes(-3, -2))

        # modes in chain order, r + t K (mod N) for chain r, padded to nb m
        # positions that read mode 0 and carry zero weight
        chain = (np.arange(g) + K * np.arange(nb * m)[:, None]) % N
        chain[n:] = 0
        self.order = blocked(chain)
        real = blocked(np.broadcast_to(np.arange(nb * m)[:, None] < n, chain.shape)).ravel()
        self.unorder = np.empty(N, dtype=np.intp)   # mode -> flat blocked position
        self.unorder[self.order.ravel()[real]] = np.flatnonzero(real)
        self.tips = (0, 0), ((n - 1) % m, (n - 1) // m)   # (s, k) of t = 0 and t = n - 1

        b = diag[:, None, chain[:n]]                           # (2, 1, n, g)
        # Sherman-Morrison: T = B + u v^T with u = (gamma, 0, ..., 0, wK) and
        # v = (1, 0, ..., 0, wK / gamma), gamma = -b_0; B is tridiagonal
        gamma = -b[..., 0, :]
        b[..., 0, :] -= gamma
        b[..., -1, :] -= wK * wK / gamma
        inv = np.zeros(b.shape[:2] + chain.shape, dtype=np.complex128)   # 0 on the padding
        inv[..., 0, :] = 1.0 / b[..., 0, :]   # 1 / pivot, pivot_t = b_t - wK^2 / pivot_{t-1}
        for t in range(1, n):
            inv[..., t, :] = 1.0 / (b[..., t, :] - wK * wK * inv[..., t - 1, :])
        u = np.zeros_like(inv)
        u[..., 0, :] = gamma
        u[..., n - 1, :] = wK
        self.inv = blocked(inv)
        # the eliminated super-diagonal, and the products of -mu that carry
        # a value into each position from its block's left and right ends
        mu = wK * self.inv
        self.mu = list(np.moveaxis(mu, -3, 0))
        self.carry_in = np.cumprod(-mu, axis=-3)
        self.carry_back = np.cumprod(-mu[..., ::-1, :, :], axis=-3)[..., ::-1, :, :]
        self.ends_in = list(np.moveaxis(self.carry_in[..., -1, :, :], -2, 0))
        self.ends_back = list(np.moveaxis(self.carry_back[..., 0, :, :], -2, 0))
        self.corner = wK / gamma
        z = blocked(u) * self.inv
        self._sweep(z)
        self.z = z / (1.0 + self._corners(z))[..., None, None, :]

    def _corners(self, y):
        """v^T y of the Sherman-Morrison correction: y_0 + (wK / gamma) y_{n-1}."""
        (s0, k0), (s1, k1) = self.tips
        return y[..., s0, k0, :] + self.corner * y[..., s1, k1, :]

    def _sweep(self, y):
        """B^-1 r in place on the blocked chain axes (s, k) of y, given
        y = r / pivot.

        Thomas elimination y_t -= mu_t y_{t-1}, then back substitution
        y_t -= mu_t y_{t+1}.  Each linear recurrence runs inside every
        block at once from a zero start, then along the block ends in turn,
        and each other position adds its neighbouring block's end times
        the products of -mu: about 2 sqrt(n) small updates instead of 2 n,
        and since |mu| < 1 the products stay bounded.
        """
        mu, ends_in, ends_back = self.mu, self.ends_in, self.ends_back
        rows = list(np.moveaxis(y, -3, 0))
        m, nb = len(rows), len(ends_in)
        for s in range(1, m):
            rows[s] -= mu[s] * rows[s - 1]
        end = list(np.moveaxis(rows[-1], -2, 0))
        for k in range(1, nb):
            end[k] += ends_in[k] * end[k - 1]
        inner = y[..., :-1, 1:, :]
        inner += self.carry_in[..., :-1, 1:, :] * rows[-1][..., None, :-1, :]
        for s in range(m - 2, -1, -1):
            rows[s] -= mu[s] * rows[s + 1]
        start = list(np.moveaxis(rows[0], -2, 0))
        for k in range(nb - 2, -1, -1):
            start[k] += ends_back[k] * start[k + 1]
        inner = y[..., 1:, :-1, :]
        inner += self.carry_back[..., 1:, :-1, :] * rows[0][..., None, 1:, :]

    def solve(self, values):
        """M^-1 values, one FFT pair."""
        vhat = np.fft.fft(values, axis=1)
        if self.K == 0:
            out = self.s0 * vhat + self.s1 * _spin_matmul(self.alpha, vhat)
            return np.fft.ifft(out, axis=1)
        S = len(vhat)
        y = np.take(self.proj @ vhat, self.order, axis=1)      # (2S, m, nb, g)
        y = y.reshape((2, S) + y.shape[1:])
        y *= self.inv
        self._sweep(y)
        y -= self._corners(y)[..., None, None, :] * self.z
        out = (y[0] + y[1]).reshape(S, -1)
        return np.fft.ifft(np.take(out, self.unorder, axis=1), axis=1)


def cayley_preconditioner(ws: StepWorkspace) -> BandPreconditioner | None:
    """The band preconditioner of the cn solve, or None for plain GMRES.

    With c = dt/2, a = a_eff and w = 1/a: on graphene whose ripple fits the
    box and without a layer (``ws.ripple``, see `geometry.ripple_band`), w
    is the band itself, so M inverts the scaled system exactly and is always
    chosen.  Otherwise M is the circulant w_band = m, the midrange of Re w,
    and the rule compares kappa = |c| xi_max max|a|, which sets the plain
    iteration count, with q = max|w - m| / m, which sets the preconditioned
    one, and picks the circulant when kappa > PRECONDITION_RATIO * q.  2-D
    grids, a zero velocity and a non-finite w fall back to plain GMRES.
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
            mult = ws.d1_mult[0]
            c = 0.5 * ws.dt
            if ws.ripple is not None:
                pre = BandPreconditioner(w, *ws.ripple, c, mult, ws.alpha[0])
            else:
                m = 0.5 * (np.max(w.real) + np.min(w.real))
                kappa = abs(c) * np.max(np.abs(mult)) * np.max(np.abs(a))
                if m > 0 and kappa > PRECONDITION_RATIO * np.max(np.abs(w - m)) / m:
                    pre = BandPreconditioner(w, 0, m, 0.0, c, mult, ws.alpha[0])
    ws.cayley = (ws.dt, a, pre)
    return pre


def cn_transport_step(f: SpinorField, ws: StepWorkspace,
                      opts: KrylovOptions | None = None) -> SpinorField:
    """Cayley transport: GMRES-solve A psi* = (2I - A) psi, A = I + c a alpha [[d]].

    Plain GMRES starts from psi.  With a `cayley_preconditioner`, the system
    is scaled on the left by w = 1/a and preconditioned on the right by
    M = w_band + c alpha [[d]]:

        (I + (w - w_band) M^-1) y = b = w psi - c alpha [[d]] psi,   psi* = M^-1 y,

    started from y0 = b.  The residual weight a keeps the exit check on the
    unscaled residual ||b - A psi*|| / ||b||, and the Arnoldi estimate aims
    at PRECONDITIONED_TOL_SHARE of the tolerance.  The closing true-residual
    product has already computed M^-1 y, so psi* costs no further FFT pair:
    a step costs one FFT pair more than its operator products, as on the
    plain path.  On the band path w - w_band is at round-off, so the initial
    residual already meets the tolerance: 0 iterations and 2 FFT pairs a
    step.
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
        b = pre.w * psi - 0.5 * ws.dt * _spin_matmul(
            pre.alpha, derivative_values(psi, 0, ws.d1_mult[0]))
        last = [None, None]   # the operator's last input and its M^-1 image

        def apply(y):
            z = pre.solve(y)
            last[:] = y, z
            return y + pre.shift * z

        y, report = gmres(
            apply, b, x0=b, tol=opts.tol, restart=opts.restart, maxit=opts.maxit,
            weight=ws.a_eff[0], estimate_tol=PRECONDITIONED_TOL_SHARE * opts.tol,
        )
        x = last[1] if last[0] is not None and np.array_equal(last[0], y) else pre.solve(y)
    ws.last_krylov = report
    if not report.converged:
        raise StepFailureError(
            f"transport solve stalled: residual {report.residual:.3e} "
            f"after {report.iterations} iterations")
    return SpinorField(x, f.grid)


def _sweep_factors(ws: StepWorkspace, axis: int, second_order: bool):
    """(cos, pairs, weight, corr) of one directional sweep, built from the
    workspace's current dt and a_eff[axis] and rebuilt when either is
    replaced; cos and the rot factors are views broadcast to the grid.

    alpha^i has one nonzero entry phase_c in each row c, at a column b != c
    with phase_b phase_c = 1, so the shift exp(-i theta alpha^i) maps
    components c and b of the transform to

        cos(theta) v_c + rot_c v_b  and  cos(theta) v_b + rot_b v_c,

    rot_c = -i sin(theta) phase_c; ``pairs`` holds (c, b, rot_c, rot_b).
    poly1 shifts by theta = dt ahat xi with ahat = max(1, max|a|) and blends
    with a / ahat, which keeps the weight in [0, 1] for 0 <= a; where
    max|a| <= 1 that is the plain sweep, bit for bit.  poly2 shifts by
    dt xi, blends with a, and weights its correction [[d_i^2]] Xi by
    corr = dt^2 a (None for poly1).
    """
    a = ws.a_eff[axis]
    key = (axis, second_order)
    cached = ws.sweeps.get(key)
    if cached is not None and cached[0] == ws.dt and cached[1] is a:
        return cached[2]
    ahat = 1.0 if second_order else max(1.0, float(np.max(np.abs(a))))
    shape = [1] * ws.grid.d
    shape[axis] = ws.grid.N[axis]
    theta = ((ws.dt * ahat) * ws.grid.freqs[axis]).reshape(shape)
    sin = np.sin(theta)
    alpha = ws.alpha[axis]
    perm = np.argmax(np.abs(alpha), axis=1)

    def grid_view(x):
        return np.broadcast_to(x, ws.grid.shape)

    pairs = [(c, b, grid_view((-1j * alpha[c, b]) * sin), grid_view((-1j * alpha[b, c]) * sin))
             for c, b in enumerate(perm) if c < b]
    corr = (ws.dt ** 2) * a if second_order else None
    factors = (grid_view(np.cos(theta)), pairs, a if ahat == 1.0 else a / ahat, corr)
    ws.sweeps[key] = (ws.dt, a, factors)
    return factors


def _poly_sweep(f: SpinorField, axis: int, ws: StepWorkspace, second_order: bool,
                out=None) -> SpinorField:
    """The directional sweep shared by poly1 and poly2, written into ``out``
    when given, otherwise into a fresh array:

        Xi = F^-1[(cos(theta) - i sin(theta) alpha^i) F psi],
        psi' = psi + w (Xi - psi) [+ dt^2 a [[d_i^2]] Xi for poly2],

    with theta and w from `_sweep_factors`.  The bracket is
    exp(-i theta alpha^i), since (alpha^i)^2 = I.  The transforms and the
    shift run in place in ``out``, which must not overlap f; poly2's
    correction is one `derivative_values` into the workspace's scratch
    field 1.
    """
    ax = 1 + axis
    cos, pairs, weight, corr = _sweep_factors(ws, axis, second_order)
    values = f.values
    if out is None:
        out = np.empty(values.shape, dtype=np.complex128)
    np.fft.fft(values, axis=ax, out=out)
    for rows, (t_c, t_b) in _slabs(ws.grid.shape, 2):
        for c, b, rot_c, rot_b in pairs:
            v_c, v_b = out[c, rows], out[b, rows]
            np.multiply(v_b, rot_c[rows], out=t_c)
            np.multiply(v_c, rot_b[rows], out=t_b)
            for v, t in ((v_c, t_c), (v_b, t_b)):
                v *= cos[rows]
                v += t
    np.fft.ifft(out, axis=ax, out=out)
    if corr is not None:
        d2 = derivative_values(out, axis, ws.d2_mult[axis], out=ws.scratch(1))
        d2 *= corr
    for rows, _ in _slabs(ws.grid.shape, 0):
        o, v = out[:, rows], values[:, rows]
        o -= v
        o *= weight[rows]
        o += v
        if corr is not None:
            o += d2[:, rows]
    return SpinorField(out, f.grid)


def poly_axis_step(f: SpinorField, axis: int, ws: StepWorkspace, out=None) -> SpinorField:
    """One directional step of the exponential blend scheme (poly1), into
    ``out`` when given, otherwise into a fresh array."""
    return _poly_sweep(f, axis, ws, False, out)


def poly_axis_step2(f: SpinorField, axis: int, ws: StepWorkspace, out=None) -> SpinorField:
    """Directional step with the explicit dt^2 second-derivative correction
    (poly2), into ``out`` when given, otherwise into a fresh array."""
    return _poly_sweep(f, axis, ws, True, out)


def strang_step(f: SpinorField, scheme: str, ws: StepWorkspace,
                krylov: KrylovOptions | None = None) -> SpinorField:
    """One full Strang step of size ws.dt with the named transport scheme:
    ws.half, the transport, ws.half again (see `StepWorkspace`).

    The explicit schemes allocate only the returned array.  Their stages
    alternate between it and the workspace's scratch field 0, so that the
    last sweep lands in the scratch and the second half writes the result; the
    returned field never shares memory with the workspace.  The Krylov
    report (cn only) lands on ws.last_krylov.
    """
    if scheme not in SCHEMES:
        raise ConfigurationError(f"scheme must be one of {SCHEMES}, got '{scheme}'")
    ws.last_krylov = None
    if scheme == "cn":
        f = cn_transport_step(half_potential_step(f, ws), ws, krylov)
        return half_potential_step(f, ws)
    step = poly_axis_step if scheme == "poly1" else poly_axis_step2
    result = np.empty(f.values.shape, dtype=np.complex128)
    bufs = (ws.scratch(0), result)
    d = ws.grid.d
    f = half_potential_step(f, ws, out=bufs[d % 2])
    for axis in range(d):
        f = step(f, axis, ws, out=bufs[(d - 1 - axis) % 2])
    return half_potential_step(f, ws, out=result)
