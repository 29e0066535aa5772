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

* ``cn``    semi-implicit Cayley form psi* = (I + E)^-1 (I - E) psi,
            E = dt/2 a.alpha.[[grad]], taken as psi* = 2u - psi with
            (I + E) u = psi solved matrix-free by GMRES, one FFT pair per
            iteration.  On 1-D grids GMRES solves the system right-
            preconditioned by one banded Fourier preconditioner (see
            `BandPreconditioner`, `cn_transport_step`): a circulant in
            general, and on rippled graphene whose ripple fits the box the
            exact inverse, where GMRES's first check already meets the
            tolerance: 0 iterations and 1 FFT pair a step.  Every step is
            one `gmres` call, started from the first-order Cayley map
            (I - dt a.alpha.[[grad]]) psi written for u, u0 = psi - E psi;
            the circulant solve then takes one defect correction by its
            own constant-velocity Cayley inverse before any Arnoldi step,
            which meets the tolerance on exp1 and exp2: 0 iterations and 3
            FFT pairs a step (see `cn_transport_step`).
* ``poly1`` per-axis blend w * (exponentially shifted) + (1 - w) * unshifted,
            the shift exp(-i theta alpha^i) = cos(theta) - i sin(theta) alpha^i
            applied to the Fourier coefficients; explicit, one FFT pair per
            axis.  The transform carries the increment (the shift less the
            identity), so the blend is psi + w * increment.  With
            ahat = max(1, max|a|) the shift is theta = dt ahat xi and the
            weight w = a / ahat, so w stays in [0, 1] where a > 1
            (0 <= a <= 1: ahat = 1, theta = dt xi, w = a).

PML enters only through the transport stage: velocities are divided by the
complex stretch fields.

Memory.  A workspace holds one (S, S, *grid) matrix field, ``half``, beside
the metric sample it keeps; `StepWorkspace.with_step` adds only another
``half``.  An explicit step allocates only the field it returns: the two
pointwise stages and the sweeps alternate between that array and one
scratch field of the workspace's model part (`StepWorkspace.scratch`),
allocated at the first explicit step and reused by every later step of
every derived workspace.  The FFTs run in place along the contiguous last
axis.  Along axis 0 of a 2-D grid they go a block of columns at a time
(`grid_spectral.spectral_apply`) through the workspace's
`StepWorkspace.blocks`, S + 2 planes of about `grid_spectral.SLAB` nodes,
also built at their first use: no full-field copy is made.  The pointwise
loops take temporaries of one grid slab (SLAB nodes).  The public stage
functions return a fresh field unless a caller passes ``out``.  The ``cn``
step takes no scratch field, only the blocks: each pointwise stage returns
a fresh field, and the transport returns GMRES's (or the preconditioner's)
fresh solution.

Every spectral product of a step (E, the circulant M^-1, the sweep's shift)
is one `spectral_apply` of a symbol p + q alpha^i, `_alpha_symbol`, which
applies alpha^i as its one nonzero entry a row through the two temporaries
that `spectral_apply` lends every action; `_spin_matmul` takes only ``half``.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .errors import ConfigurationError, StepFailureError
from .geometry import MetricModel, MetricSample, require_finite, ripple_band, sample_metric
from .grid_spectral import (
    Grid, SpinorField, column_blocks, derivative_multiplier, slabs, spectral_apply,
)
from .krylov import KrylovOptions, gmres
from .pml import PmlConfig, apply_pml, stretch_factor
from .spinor_algebra import Imaginary, alpha_matrix, exp_dirac

SCHEMES = ("cn", "poly1")


def _spin_matmul(mat, values, out=None):
    """Apply an (S, S, *grid) matrix field, ws.half, on the spinor axis.

    The matrix is applied entry by entry, out[a] = values[0] mat[a, 0]
    + values[1] mat[a, 1] + ..., one slab of the grid at a time, into
    ``out`` when given; ``out`` must not overlap ``values``.  The constant
    alpha^i never come here: they go through `_alpha_symbol`.
    """
    if out is None:
        out = np.empty(values.shape, dtype=np.complex128)
    S = len(mat)
    for rows, (term,) in slabs(values.shape[1:], 1):
        m, v, o = mat[:, :, rows], values[:, rows], out[:, rows]
        for a in range(S):
            np.multiply(v[0], m[a, 0], out=o[a])
            for k in range(1, S):
                np.multiply(v[k], m[a, k], out=term)
                o[a] += term
    return out


def _alpha_symbol(alpha, p, q):
    """The `grid_spectral.spectral_apply` action of p + q alpha^i, for the
    matrix ``alpha`` = alpha^i and p (None for 0) and q scalars or 1-D
    arrays over the axis's wavenumbers.  alpha^i has one nonzero entry
    phase_c in each row c, at a column b != c with phase_b phase_c = 1, so
    components c and b of the transform become p v_c + q phase_c v_b and
    p v_b + q phase_b v_c, in place through the two temporaries."""
    perm = np.argmax(np.abs(alpha), axis=1)
    pairs = [(c, b, q * alpha[c, b], q * alpha[b, c]) for c, b in enumerate(perm) if c < b]

    def act(spec, tmp):
        t_c, t_b = tmp
        for c, b, q_c, q_b in pairs:
            v_c, v_b = spec[c], spec[b]
            np.multiply(v_b, q_c, out=t_c)
            np.multiply(v_c, q_b, out=t_b)
            for v, t in ((v_c, t_c), (v_b, t_b)):
                if p is None:
                    v[...] = t
                else:
                    v *= p
                    v += t
    return act


def _half_potential(sample: MetricSample, tau, S):
    """exp(-tau (i M + sum_i a c^i alpha^i)) at every node.  The metrics
    with a connection (static1d, static2d) have no alpha potential
    (`MetricModel` rejects one), so each alpha coefficient is real
    (-tau Gvec) or purely imaginary (i tau a c^i, passed as its real part
    marked `Imaginary`) and one `exp_dirac` call covers both terms."""
    if sample.connection is None:
        gvec = [-tau * g for g in sample.Gvec]
    else:
        gvec = [Imaginary(tau * v * c) for v, c in zip(sample.velocity, sample.connection)]
    out = exp_dirac(-tau * sample.G, gvec, S)
    if np.any(sample.scalar):
        out *= np.exp(-1j * tau * sample.scalar)
    return out


class StepWorkspace:
    """Precomputed step data from one `geometry.sample_metric` of the model,
    in two parts.

    The model part depends only on the model, the grid and the layer: the
    kept ``sample``; ``a_eff``, the per-axis velocities divided by the
    layer's stretch when one is enabled (without a layer the axes may share
    one array); ``alpha``; ``d1_mult``; ``ripple``, the model's
    `geometry.ripple_band` when no layer is set, which the cn preconditioner
    inverts exactly; and, in ``shared``, the column blocks and the scratch
    field, built at their first use.

    The step part is what dt adds: ``half``, the half step
    exp(-dt/2 (i M + sum_i a c^i alpha^i)) of the local generator applied
    on both sides of the transport (the bare half potential exp(-i dt/2 M)
    on flat space and graphene, which have no connection), and, in
    ``built`` (see `cached`), the cn coefficients and symbols, the Cayley
    preconditioner and the sweep factors, built at their first use.

    Each workspace keeps one dt; `with_step` derives one for another step
    size that shares the model part, so a run samples the metric once.
    ``half`` is built with its workspace, not at the first step, so that a
    non-finite factor is rejected before step 1: every coefficient is
    computed with numpy's warnings off and then checked by
    `geometry.require_finite`, which raises GeometryError.
    """

    def __init__(self, model: MetricModel, grid: Grid, dt: float,
                 pml: PmlConfig | None = None):
        self.sample = sample_metric(model, grid)
        self.grid = grid
        self.S = model.spinor_dim

        if pml is not None and pml.enabled:
            with np.errstate(all="ignore"):
                self.a_eff = [
                    require_finite(f"layered velocity a^{i + 1}",
                                   apply_pml(v, stretch_factor(pml, i, grid), i), grid)
                    for i, v in enumerate(self.sample.velocity)]
        else:
            self.a_eff = list(self.sample.velocity)

        self.alpha = [alpha_matrix(i + 1, self.S) for i in range(grid.d)]
        self.d1_mult = [derivative_multiplier(grid, i, 1) for i in range(grid.d)]
        self.ripple = None if pml is not None and pml.enabled else ripple_band(model, grid)
        self.shared = {}
        self._set_step(dt)

    def with_step(self, dt: float) -> StepWorkspace:
        """A workspace for step dt that shares this one's model part: its
        ``half`` is built now, the rest of its step part at first use."""
        ws = copy.copy(self)
        ws._set_step(dt)
        return ws

    def _set_step(self, dt):
        self.dt = float(dt)
        with np.errstate(all="ignore"):
            self.half = require_finite("half step factor", _half_potential(
                self.sample, 0.5 * self.dt, self.S), self.grid)
        self.last_krylov = None
        self.built = {}

    def cached(self, key, build, store=None):
        """build(), called at the first request for ``key`` and kept in
        ``store`` (the step part's ``built`` unless given) for every later
        one."""
        store = self.built if store is None else store
        if key not in store:
            store[key] = build()
        return store[key]

    def blocks(self):
        """The column blocks of the transforms along axis 0 of a 2-D grid
        (see `grid_spectral.column_blocks`): S planes of spectrum and the
        `_alpha_symbol`'s two temporaries; None on a 1-D grid."""
        return self.cached("blocks", lambda: column_blocks(self.grid.shape, self.S),
                           self.shared)

    def scratch(self):
        """The explicit step's scratch field, (S, *grid): every other stage's result."""
        return self.cached("scratch", lambda: np.empty(
            (self.S,) + self.grid.shape, dtype=np.complex128), self.shared)


def half_potential_step(f: SpinorField, ws: StepWorkspace, out=None) -> SpinorField:
    """Pointwise product with ws.half, the half step of the local generator
    (see `StepWorkspace`), written into ``out`` when given (it must not
    overlap f), otherwise into a fresh array."""
    return SpinorField(_spin_matmul(ws.half, f.values, out=out), f.grid)


def _cn_term(values, ws):
    """E values, E = (dt/2) sum_i (a^i/S^i) alpha^i [[d_i]] the transport
    term of the Cayley step, into a fresh array: alpha^i [[d_i]] is one
    `spectral_apply` of the `_alpha_symbol` with p = 0 and q the
    first-derivative multiplier, through the workspace's blocks.  Each
    axis's coefficient (dt/2) a^i/S^i and symbol are built at its first
    product and kept."""
    out = None
    for i in range(ws.grid.d):
        coef, act = ws.cached(("cn", i), lambda: (
            0.5 * ws.dt * ws.a_eff[i], _alpha_symbol(ws.alpha[i], None, ws.d1_mult[i])))
        term = spectral_apply(values, i, act, blocks=ws.blocks())
        term *= coef
        if out is None:
            out = term
        else:
            out += term
    return out


def cn_apply_values(values, ws):
    """Apply A = I + E to field values, matrix-free, with E the transport
    term (dt/2) sum_i (a^i/S^i) alpha^i [[d_i]] (see `_cn_term`)."""
    term = _cn_term(values, ws)
    return np.add(values, term, out=term)


# Smallest product of Thomas multipliers that a block of the band sweep
# divides by (see `BandPreconditioner._sweep`): a quotient then exceeds the
# value it carries by at most 1e100, far from overflow.
CARRY_FLOOR = 1e-100


def _block_length(mu):
    """The longest block length m, at most n, whose carry products stay in
    range: every product of m - 1 consecutive multipliers along a chain
    (position on axis 1 of ``mu``) has |.| >= CARRY_FLOOR.  Since |mu| < 1
    the products shrink as they lengthen, so m is found by bisection."""
    logs = np.cumsum(np.log(np.abs(mu)), axis=1)
    logs = np.concatenate([np.zeros_like(logs[:, :1]), logs], axis=1)
    floor = math.log(CARRY_FLOOR)
    lo, hi = 0, mu.shape[1] - 1       # factors per product
    while lo < hi:
        q = (lo + hi + 1) // 2
        if np.min(logs[:, q:] - logs[:, :-q]) >= floor:
            lo = q
        else:
            hi = q - 1
    return lo + 1


class BandPreconditioner:
    """M = w_band + c alpha [[d]] for the 1-D Cayley solve, c = dt/2, where
    w_band = w0 + wK (e^{i K x} + e^{-i K x}) has Fourier modes 0 and +-K
    only; the circulant is the case K = 0 (w_band = w0, wK = 0).

    With the projectors P+- = (I +- alpha)/2, M = T+ P+ + T- P-: each T+-
    is a scalar operator that couples Fourier mode j with j +- K, with
    diagonal w0 +- c mult_j (mult the first-derivative multiplier, Nyquist
    policy kept) and off-diagonal wK.  At K = 0 it is diagonal, and M^-1
    has the closed-form symbol (w0 - c mult alpha) / (w0^2 - c^2 mult^2).

    At K > 0 the transform is projected onto an orthonormal eigenbasis of
    alpha (``basis``, eigenvalue +1 first), S rows: T+ acts on the S/2 rows
    of eigenvalue +1 and T- on the others.  The modes fall into
    g = gcd(N, K) cyclic chains r, r + K, r + 2K, ... of n = N/g modes
    each; every chain is a cyclic tridiagonal system, factored once by
    Thomas elimination plus a Sherman-Morrison correction for the corners,
    vectorised over the chains and +-.  Its sweeps run as prefix sums over
    blocks of a chain (see `_sweep`), the longest blocks whose carry
    products stay above CARRY_FLOOR (`_block_length`): one block per chain
    on exp5, a few at N = 5120.  The factors are four arrays of 2 N_pad
    entries, N_pad = g nb m >= N the padded chain length, so storage is
    linear in N.  ``w_band`` is kept (a scalar at K = 0), and w - w_band
    stays in the operator as ``shift``, A = a (M + shift) (see
    `cn_transport_step`).
    """

    def __init__(self, w, K, w0, wK, c, mult, alpha):
        N = mult.size
        self.K = K
        diag = w0 + np.multiply.outer([c, -c], mult)           # (2, N): T+ and T-
        if K == 0:
            self.w_band = w0
            self.shift = w - w0
            inv = 1.0 / diag
            # M^-1 = inv+ P+ + inv- P- = s0 + s1 alpha
            self.circulant = _alpha_symbol(alpha, 0.5 * (inv[0] + inv[1]),
                                           0.5 * (inv[0] - inv[1]))
            return
        self.circulant = None
        self.w_band = w0 + 2.0 * wK * np.cos(2.0 * np.pi * K * np.arange(N) / N)
        self.shift = w - self.w_band
        self.basis = np.linalg.eigh(alpha)[1][:, ::-1]
        self.basis_h = self.basis.conj().T
        self.g = g = math.gcd(N, K)
        n = N // g
        # chain r holds mode r + t K (mod N) = q g + r at position t, with
        # q = t K / g (mod n): the same order of q for every chain
        q = K // g * np.arange(n) % n
        b = diag.reshape(2, n, g)[:, q]                         # (2, n, g)
        # Sherman-Morrison: T = B + u v^T with u = (gamma, 0, ..., 0, wK) and
        # v = (1, 0, ..., 0, wK / gamma), gamma = -b_0; B is tridiagonal
        gamma = -b[:, 0]
        b[:, 0] -= gamma
        b[:, -1] -= wK * wK / gamma
        inv = np.empty_like(b)        # 1 / pivot, pivot_t = b_t - wK^2 / pivot_{t-1}
        inv[:, 0] = 1.0 / b[:, 0]
        for t in range(1, n):
            inv[:, t] = 1.0 / (b[:, t] - wK * wK * inv[:, t - 1])
        mu = wK * inv                 # the eliminated off-diagonal, |mu| < 1
        nb = -(-n // _block_length(mu))
        m = -(-n // nb)               # nb blocks of m positions, the last padded
        self.tips = (0, 0), divmod(n - 1, m)   # (k, s) of t = 0 and t = n - 1

        def blocked(a, fill):
            # chain position t = k m + s on axis 1 -> (block k, offset s);
            # the padding t >= n holds ``fill``
            out = np.full(a.shape[:1] + (nb * m,) + a.shape[2:], fill, dtype=a.dtype)
            out[:, :n] = a
            return out.reshape(a.shape[:1] + (nb, m) + a.shape[2:])

        self.order = blocked(q[None], 0)[0]    # q at each position, mode q = 0 on the padding
        self.unorder = np.empty(n, dtype=np.intp)   # q -> padded position
        self.unorder[q] = np.arange(n)
        # the carry products: F_t of -mu over (block start, t], G_t over
        # [t, block end); the padding multiplies by 1
        neg = -blocked(mu, -1.0)
        F = neg.copy()
        F[:, :, 0] = 1.0
        np.cumprod(F, axis=2, out=F)
        G = neg.copy()
        G[:, :, -1] = 1.0
        np.cumprod(G[:, :, ::-1], axis=2, out=G[:, :, ::-1])
        self.scale_in = (blocked(inv, 0.0) / F)[:, None]     # zero on the padding
        self.turn = (F / G)[:, None]
        self.turn[:, :, -1, n - (nb - 1) * m:] = 0.0     # the padding's y stays out of the back sweep
        self.carry_back = G[:, None]
        # what a block's end hands on to the next block, in either sweep
        self.link_in = (neg[:, 1:, 0] * F[:, :-1, -1])[:, None]
        self.link_back = (neg[:, :-1, -1] * G[:, 1:, 0])[:, None]
        self.corner = wK / gamma[:, None]
        u = np.zeros_like(inv)
        u[:, 0] = gamma
        u[:, -1] = wK
        z = blocked(u, 0.0)[:, None]
        self._sweep(z)
        self.z = z / (1.0 + self._corners(z))[..., None, None, :]

    def _corners(self, y):
        """v^T y of the Sherman-Morrison correction: y_0 + (wK / gamma) y_{n-1}."""
        (k0, s0), (k1, s1) = self.tips
        return y[..., k0, s0, :] + self.corner * y[..., k1, s1, :]

    def _sweep(self, y):
        """B^-1 y in place on the blocked chain axes (k, s) of y.

        Thomas elimination y_t = r_t / pivot_t - mu_t y_{t-1} and back
        substitution x_t = y_t - mu_t x_{t+1} are linear recurrences.
        Inside a block each is a prefix sum: y = F cumsum(r / (pivot F)),
        with F the carry products of -mu from the block's start, and
        x = G revcumsum(y / G) likewise from its end, so y / G = (F / G)
        cumsum(...) and y itself is never formed.  Only the block ends
        then pass their sums along, nb - 1 small updates a direction, and
        add them to the next block: on one block per chain there is
        nothing to pass.  The padding enters the back sweep as zero.
        """
        y *= self.scale_in
        np.cumsum(y, axis=-2, out=y)
        nb = y.shape[-3]
        if nb > 1:
            ends = y[..., -1, :]
            for k in range(1, nb):
                ends[..., k, :] += self.link_in[..., k - 1, :] * ends[..., k - 1, :]
            y[..., 1:, :-1, :] += self.link_in[..., None, :] * ends[..., :-1, None, :]
        y *= self.turn
        back = y[..., ::-1, :]
        np.cumsum(back, axis=-2, out=back)
        if nb > 1:
            starts = y[..., 0, :]
            for k in range(nb - 2, -1, -1):
                starts[..., k, :] += self.link_back[..., k, :] * starts[..., k + 1, :]
            y[..., :-1, 1:, :] += self.link_back[..., None, :] * starts[..., 1:, None, :]
        y *= self.carry_back

    def solve(self, values):
        """M^-1 values into a fresh array: one `spectral_apply`, so one FFT
        pair, of the symbol ``circulant`` (an `_alpha_symbol`) at K = 0 and
        of the chain solve `_chains` at K > 0."""
        # the bound method is taken here, not kept: kept, it would make the
        # preconditioner a reference cycle
        return spectral_apply(values, 0, self.circulant or self._chains)

    def _chains(self, spec, tmp):
        """M^-1 on the transform spec, (S, 1, N), in place: the chain solve
        in alpha's eigenbasis, written back as basis @ x."""
        vhat = spec[:, 0]
        S, N = vhat.shape
        u = (self.basis_h @ vhat).reshape(S, -1, self.g)
        y = np.take(u, self.order, axis=1).reshape((2, S // 2) + self.z.shape[2:])
        self._sweep(y)
        y -= self._corners(y)[..., None, None, :] * self.z
        x = np.take(y.reshape(S, -1, self.g), self.unorder, axis=1).reshape(S, N)
        vhat[...] = self.basis @ x


def cayley_preconditioner(ws: StepWorkspace) -> BandPreconditioner | None:
    """The band preconditioner of the cn solve, or None for plain GMRES.

    With c = dt/2, a = a_eff and w = 1/a: on graphene whose ripple fits the
    box and without a layer (``ws.ripple``, see `geometry.ripple_band`), w
    is the band itself, and M = w + c alpha [[d]] is A / a exactly.
    Otherwise M is the circulant w_band = m, the midrange of Re w, whenever
    m > 0 and max|w| <= CIRCULANT_SPREAD min|w|.  2-D grids and a w past
    that spread (a zero, infinite or NaN w among them) take plain GMRES.
    Built at the first solve and kept in the workspace.
    """
    if ws.grid.d != 1:
        return None
    return ws.cached("cayley", lambda: _band_preconditioner(ws))


# Largest max|w| / min|w|, w = 1/a, at which the 1-D cn solve takes the
# circulant: one constant w_band fits a wider spread so badly that its start
# and defect correction stall GMRES at step 1 where plain GMRES completes
# (seen from 3.9e6 up).  The presets read at most 2.02, circulant solves
# complete up to 1.1e5, and a bound of 10 already loses one that completes.
CIRCULANT_SPREAD = 1e6


def _band_preconditioner(ws):
    c, mult, alpha = 0.5 * ws.dt, ws.d1_mult[0], ws.alpha[0]
    with np.errstate(all="ignore"):
        w = 1.0 / ws.a_eff[0]
        spread = np.max(np.abs(w)) / np.min(np.abs(w))
    if ws.ripple is not None:
        return BandPreconditioner(w, *ws.ripple, c, mult, alpha)
    if not spread <= CIRCULANT_SPREAD:    # inf or NaN where w has a zero, an inf or a NaN
        return None
    m = 0.5 * (np.max(w.real) + np.min(w.real))
    return BandPreconditioner(w, 0, m, 0.0, c, mult, alpha) if m > 0 else None


def cn_transport_step(f: SpinorField, ws: StepWorkspace,
                      opts: KrylovOptions | None = None) -> SpinorField:
    """Cayley transport psi* = (I + E)^-1 (I - E) psi, with
    E = c sum_i a^i alpha^i [[d_i]] the transport term (`_cn_term`) and
    c = dt/2.

    Since (I + E)^-1 (I - E) = 2 (I + E)^-1 - I, GMRES solves A u = psi,
    A = I + E, and the step returns psi* = 2u - psi: the right-hand side is
    psi itself, and no (I - E) psi is formed.  The exact
    u = (I - E + E^2 - ...) psi, so with T = E psi the start u0 = psi - T is
    first order: it is the first-order Cayley map (I - 2E) psi written for
    u, with error E^2 psi (a mode of theta = c a xi is off by
    theta^2 / sqrt(1 + theta^2) of itself).  Plain GMRES starts from u0.
    With a `cayley_preconditioner` (1-D, A = I + c a alpha [[d]])
    M = w_band + c alpha [[d]], w = 1/a, GMRES solves the system
    preconditioned on the right,

        A M^-1 y = a (y + shift M^-1 y) = psi,   u = M^-1 y,
        shift = w - w_band,

    whose solution is y* = w psi - shift u, so it starts from
    y0 = w psi - shift u0 = w_band psi + shift T, pointwise.  Either way the
    step is one `gmres` call.  GMRES's residual product runs on the very
    array it returns (see `krylov`), and that product has already computed
    M^-1 y, so u costs no further FFT pair: a step costs one FFT pair for T
    and one for each operator product (`KrylovReport.products`).  Only
    psi = 0, where GMRES calls no operator, takes one M^-1 product of the
    zero field.

    On the circulant path (``pre.K == 0``) GMRES is passed
    relax = w_band: when the start misses the tolerance, y becomes
    y + w_band r once before any Arnoldi step.  In u that is
    u + (I + E_m)^-1 r, E_m the transport term at the constant velocity
    1/w_band, a defect correction by the circulant's own Cayley inverse;
    GMRES's optimal one-step length matched w_band to six digits on exp1
    and exp2.  There it meets the tolerance, and a step costs T and two
    operator products: 0 iterations and 3 FFT pairs.  The band path needs
    no correction, and the plain path's (relax = 1) fell just short of the
    tolerance on exp3 run as cn, so neither takes one.

    The Cayley residual is (I - E) psi - A psi* = 2 (psi - A u), so GMRES
    runs to tol / 2 on ||psi - A u|| / ||psi||, and the report carries
    twice its residual: ||(I - E) psi - (I + E) psi*|| / ||psi||, the
    tolerance's meaning on every path.

    On the band path (``ws.ripple``, ``pre.K > 0``) M is A / a exactly,
    and shift is at round-off, so the start w_band psi already solves the
    system: T is never formed, GMRES's first check meets the tolerance,
    and the step costs 0 iterations and one FFT pair.
    """
    opts = opts or KrylovOptions()
    pre = cayley_preconditioner(ws)
    psi = f.values
    relax = None
    if pre is None:
        def apply(v):
            return cn_apply_values(v, ws)

        t = _cn_term(psi, ws)
        x0 = np.subtract(psi, t, out=t)
    else:
        a = ws.a_eff[0]
        last = [None, None]   # the operator's last input and its M^-1 image

        def apply(y):
            z = pre.solve(y)
            last[:] = y, z
            return a * (y + pre.shift * z)

        x0 = pre.w_band * psi
        if not pre.K:
            t = _cn_term(psi, ws)
            x0 += np.multiply(pre.shift, t, out=t)
            relax = pre.w_band
    u, report = gmres(apply, psi, x0=x0, tol=0.5 * opts.tol, restart=opts.restart,
                      maxit=opts.maxit, relax=relax)
    if pre is not None:
        u = last[1] if last[0] is u else pre.solve(u)
    report.residual *= 2.0
    ws.last_krylov = report
    if not report.converged:
        raise StepFailureError(
            f"transport solve stalled: residual {report.residual:.3e} "
            f"after {report.iterations} iterations")
    # u is this step's own array: a fresh M^-1 image, or gmres's solution
    # from the fresh x0
    u *= 2.0
    u -= psi
    return SpinorField(u, f.grid)


def _sweep_factors(ws: StepWorkspace, axis: int):
    """(shift, weight) of one directional sweep: ``shift`` is the
    `grid_spectral.spectral_apply` action of exp(-i theta alpha^i) - I, the
    `_alpha_symbol` with p = cos(theta) - 1 (taken as -2 sin^2(theta/2) to
    keep its digits where theta is small) and q = -i sin(theta), where
    theta = dt ahat xi, ahat = max(1, max|a|); ``weight`` is a / ahat, in
    [0, 1] for 0 <= a.  Where max|a| <= 1 that is the plain sweep, bit for
    bit.
    """
    a = ws.a_eff[axis]
    ahat = max(1.0, float(np.max(np.abs(a))))
    theta = (ws.dt * ahat) * ws.grid.freqs[axis]
    p, q = -2.0 * np.sin(0.5 * theta) ** 2, -1j * np.sin(theta)
    return _alpha_symbol(ws.alpha[axis], p, q), a if ahat == 1.0 else a / ahat


def poly_axis_step(f: SpinorField, axis: int, ws: StepWorkspace, out=None) -> SpinorField:
    """One directional sweep of the exponential blend scheme (poly1), written
    into ``out`` when given, otherwise into a fresh array:

        D = F^-1[(exp(-i theta alpha^i) - I) F psi],   psi' = psi + w D,

    one transform pair and one blend pass, with the symbol and w from
    `_sweep_factors`, built at the first sweep along each axis.  The pair
    and the symbol run in ``out`` through `grid_spectral.spectral_apply`,
    which must not overlap f; along axis 0 of a 2-D grid they go a block of
    columns at a time through the workspace's `StepWorkspace.blocks`.
    """
    shift, weight = ws.cached(("sweep", axis), lambda: _sweep_factors(ws, axis))
    out = spectral_apply(f.values, axis, shift, out, blocks=ws.blocks())
    for rows, _ in slabs(ws.grid.shape, 0):
        o = out[:, rows]
        o *= weight[rows]
        o += f.values[:, rows]
    return SpinorField(out, f.grid)


def poly_axis_step2(*args, **kwargs):
    """Raises: the poly2 scheme is gone.  The name stays only because
    `bench/tracing.py` wraps it by name and `bench/test_gates.py` deletes it
    to test how the trace reports an absent name; it goes with ROADMAP
    item 2, when the benchmark reads the solver's own stage counters."""
    raise ConfigurationError(f"poly2 was removed; scheme must be one of {SCHEMES}")


def strang_step(f: SpinorField, scheme: str, ws: StepWorkspace,
                krylov: KrylovOptions | None = None) -> SpinorField:
    """One full Strang step of size ws.dt with the named transport scheme:
    ws.half, the transport, ws.half again (see `StepWorkspace`).

    poly1 allocates only the returned array.  Its stages alternate between
    it and the workspace's scratch field, so that the last sweep lands in
    the scratch and the second half writes the result; the returned field
    never shares memory with the workspace.  The Krylov report (cn only)
    lands on ws.last_krylov.
    """
    if scheme not in SCHEMES:
        raise ConfigurationError(f"scheme must be one of {SCHEMES}, got '{scheme}'")
    ws.last_krylov = None
    if scheme == "cn":
        f = cn_transport_step(half_potential_step(f, ws), ws, krylov)
        return half_potential_step(f, ws)
    result = np.empty(f.values.shape, dtype=np.complex128)
    bufs = (ws.scratch(), result)
    d = ws.grid.d
    f = half_potential_step(f, ws, out=bufs[d % 2])
    for axis in range(d):
        f = poly_axis_step(f, axis, ws, out=bufs[(d - 1 - axis) % 2])
    return half_potential_step(f, ws, out=result)
