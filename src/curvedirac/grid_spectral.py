"""Periodic uniform grids and FFT-based spectral derivative operators.

Conventions: a d-dimensional box [-a_1, a_1] x ... with N_i equidistant nodes
per axis, x_k = -a_i + k * h_i, h_i = 2 a_i / N_i, and discrete wavenumbers
xi_p = p * pi / a_i.  The forward transform along axis i is

    psi_hat_p = sum_k psi_k exp(-i xi_p (x_k + a_i)),

which coincides with the unnormalized FFT because xi_p (x_k + a_i) = 2 pi p k / N_i.
The inverse carries the 1/N_i factor.

Nyquist policy: on an even-N axis the p = -N/2 mode has no +p partner, so its
first-derivative multiplier is zeroed.  This keeps the discrete first
derivative exactly anti-Hermitian, which the unconditional-stability arguments
for the propagation schemes rely on.  The second-derivative multiplier -xi^2
is real and even in p, so the Nyquist mode is kept for order 2.  Odd N needs
no special casing: the wavenumber set is symmetric.

Awkward sizes: numpy's FFT takes a length with a large prime factor through
Bluestein's algorithm and builds that plan at every call, which dominates a
transform of the paper's N = 18027 = 3^2 * 2003.  Along the last axis such a
size is split (Cooley-Tukey, mixed radix): with p the largest prime factor
of N and R = N / p, wherever p^2 > N and R > 1, the transform is an R-point
DFT as one R x R matrix product, a twiddle product and one `np.fft` call of
length p, and the spectrum is copied out in natural order, so a symbol sees
the same wavenumbers as on every other size.  The rule depends on N alone;
every other size (powers of two, 1000, 900, a prime, 20001 = 3 * 59 * 113)
keeps a single `np.fft` call.  The split agrees with `np.fft` to about 1e-15
relative (9e-16 at N = 18027, 1.1e-15 at R = 81).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError


def per_axis(value, d, conv, name):
    """A scalar or 1-sequence repeated over d axes, or a d-sequence, each entry conv'd."""
    t = (value,) if np.isscalar(value) else tuple(value)
    if len(t) == 1:
        t *= d
    if len(t) != d:
        raise ConfigurationError(
            f"{name} takes 1 or {d} comma-separated values, got {len(t)}", name)
    return tuple(conv(x) for x in t)


def grid_axes(d, a, N):
    """Checked per-axis (a, N) tuples of a d-dimensional grid."""
    if d not in (1, 2):
        raise ConfigurationError(f"dimension d must be 1 or 2, got {d}", "d")
    a = per_axis(a, d, float, "a")
    N = per_axis(N, d, int, "N")
    for i in range(d):
        if not 0 < a[i] < math.inf:
            raise ConfigurationError(
                f"half-width a[{i}] must be positive and finite, got {a[i]}", "a")
        if N[i] < 4:
            raise ConfigurationError(f"point count N[{i}] must be >= 4, got {N[i]}", "N")
    return a, N


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with per-axis nodes and FFT-ordered wavenumbers;
    equality and hashing use (d, a, N), from which the rest follows."""

    d: int
    a: tuple          # per-axis half-width
    N: tuple          # per-axis point count
    h: tuple = field(init=False, compare=False)
    axes: tuple = field(init=False, compare=False)   # node coordinates, one 1-D array per axis
    freqs: tuple = field(init=False, compare=False)  # wavenumbers xi_p in FFT order, per axis

    def __post_init__(self):
        h = tuple(2.0 * self.a[i] / self.N[i] for i in range(self.d))
        axes = tuple(-self.a[i] + h[i] * np.arange(self.N[i]) for i in range(self.d))
        freqs = tuple(
            np.fft.fftfreq(self.N[i], d=1.0 / self.N[i]) * np.pi / self.a[i]
            for i in range(self.d)
        )
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "freqs", freqs)

    @property
    def shape(self):
        return self.N

    def cell_volume(self):
        vol = 1.0
        for hi in self.h:
            vol *= hi
        return vol

    def meshes(self):
        """Coordinate arrays broadcast to the full grid shape ('ij' indexing)."""
        if self.d == 1:
            return (self.axes[0],)
        return tuple(np.meshgrid(*self.axes, indexing="ij"))


def make_grid(d, a, N) -> Grid:
    """Build a periodic grid; both even and odd point counts are accepted."""
    return Grid(d, *grid_axes(d, a, N))


@dataclass
class SpinorField:
    """Complex field with S spinor components over a Grid; shape (S, N1[, N2])."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        expected = self.grid.shape
        if self.values.shape[1:] != expected:
            raise ConfigurationError(
                f"field shape {self.values.shape[1:]} does not match grid {expected}"
            )
        if self.values.shape[0] not in (2, 4):
            raise ConfigurationError("spinor dimension must be 2 or 4")

    @property
    def spinor_dim(self):
        return self.values.shape[0]

    def is_finite(self):
        return bool(np.all(np.isfinite(self.values)))


# Grid nodes per slab of a pass over a field: its temporaries stay small
# (128 KB each) and in cache.
SLAB = 1 << 13


def slabs(shape, temps):
    """(rows, scratch) over slabs of about SLAB nodes of a grid ``shape``:
    ``rows`` slices its first axis, ``scratch`` holds ``temps`` complex
    arrays shaped like the slab."""
    step = max(1, SLAB // math.prod(shape[1:]))
    buf = np.empty((temps, min(step, shape[0])) + tuple(shape[1:]), dtype=np.complex128)
    for lo in range(0, shape[0], step):
        yield slice(lo, lo + step), buf[:, :min(step, shape[0] - lo)]


def column_blocks(shape, S):
    """Scratch of `spectral_apply` along axis 0 of a 2-D grid ``shape``: S + 2
    arrays (the spectrum of S components, the action's two temporaries) of one
    block of B columns, each held transposed as (B, N1) with B N1 about SLAB
    nodes; None on a 1-D grid, whose one axis is contiguous."""
    if len(shape) < 2:
        return None
    width = max(1, min(shape[1], SLAB // shape[0]))
    return np.empty((S + 2, width, shape[0]), dtype=np.complex128)


def _largest_prime_factor(n: int) -> int:
    """The largest prime factor of n >= 2, by trial division."""
    p, largest = 2, 1
    while p * p <= n:
        while n % p == 0:
            n, largest = n // p, p
        p += 1
    return max(largest, n) if n > 1 else largest


@functools.lru_cache(maxsize=8)
def _fft_split(n: int):
    """(R, p, dft, idft, tw, twc) of the split transform at size n, or None
    where n keeps a single `np.fft` call: p is the largest prime factor of n
    and R = n / p, split only where p^2 > n and R > 1.  ``dft`` is the R x R
    DFT matrix and ``idft`` its inverse, ``tw[k1, n2] = exp(-2 pi i k1 n2 / n)``
    the twiddles and ``twc`` their conjugates, all from `np.exp` of exact integer
    phases (reduced mod R in ``dft``)."""
    p = _largest_prime_factor(n)
    R = n // p
    if R == 1 or p * p <= n:
        return None
    k = np.arange(R)
    dft = np.exp(-2j * np.pi / R * (np.outer(k, k) % R))
    tw = np.exp(-2j * np.pi / n * np.outer(k, np.arange(p)))
    tables = (dft, dft.conj() / R, tw, tw.conj())
    for t in tables:    # shared by every caller through the cache
        t.setflags(write=False)
    return (R, p) + tables


def _split_last(a, m, n):
    """View of ``a`` with its last axis split as (m, n); splitting one axis
    never copies, whatever the strides."""
    return a.reshape(a.shape[:-1] + (m, n))


def _fft_last(values, out):
    """Unnormalized DFT of ``values`` along its last axis into ``out`` (it
    may be ``values``), in natural order: one `np.fft.fft` call, split at
    awkward sizes (`_fft_split`)."""
    split = _fft_split(values.shape[-1])
    if split is None:
        return np.fft.fft(values, axis=-1, out=out)
    R, p, dft, _, tw, _ = split
    # y[k1, n2] = sum_n1 x[p n1 + n2] exp(-2 pi i n1 k1 / R), twiddled, then
    # transformed over n2: X[k1 + R k2] = y[k1, k2]
    y = np.matmul(dft, _split_last(values, R, p))
    y *= tw
    np.fft.fft(y, axis=-1, out=y)
    _split_last(out, p, R)[...] = y.swapaxes(-1, -2)
    return out


def _ifft_last(spec, out):
    """Inverse of `_fft_last` (with the 1/N factor) into ``out`` (it may be
    ``spec``): one `np.fft.ifft` call, split at awkward sizes."""
    split = _fft_split(spec.shape[-1])
    if split is None:
        return np.fft.ifft(spec, axis=-1, out=out)
    R, p, _, idft, _, twc = split
    y = _split_last(spec, p, R).swapaxes(-1, -2).copy()
    np.fft.ifft(y, axis=-1, out=y)
    y *= twc
    np.matmul(idft, y, out=_split_last(out, R, p))
    return out


def spectral_apply(values: np.ndarray, axis: int, act, out=None,
                   blocks=None) -> np.ndarray:
    """F^-1 act F along grid axis ``axis`` of a raw (S, N1[, N2]) array,
    into ``out`` when given (it may be ``values``), otherwise into a fresh
    array, which is returned.

    ``act(spec, tmp)`` changes ``spec`` in place: (S, L, N), the transforms
    of L grid lines on its last axis, so a 1-D symbol over the axis's N
    wavenumbers broadcasts; ``tmp`` holds two arrays shaped like spec[0],
    the temporaries of `propagators._alpha_symbol`.

    Along the last grid axis the transforms run in place in ``out`` and
    ``act`` sees slabs of its rows.  There an awkward size N (largest prime
    factor p with p^2 > N and N / p > 1, such as 18027 = 9 * 2003) takes the
    split of `_fft_last`/`_ifft_last`, a 9 x 9 DFT product around one
    `np.fft` call of length 2003, and ``act`` still sees the spectrum in
    natural order, equal to numpy's to about 1e-15 relative; every other N
    takes one in-place `np.fft` call, as on axis 0.
    Along the strided axis 0 of a 2-D grid the forward transform of a block
    of columns writes it transposed into ``blocks`` (a `column_blocks` of S,
    allocated when None), ``act`` runs there, and the inverse writes it back
    into ``out``: no full-field copy, and every line sees the same
    transforms and products on either path.
    """
    if out is None:
        out = np.empty(values.shape, dtype=np.complex128)
    S, shape = values.shape[0], values.shape[1:]
    if axis == len(shape) - 1:
        _fft_last(values, out)
        lines = out if len(shape) == 2 else out[:, None]
        for rows, tmp in slabs(lines.shape[1:], 2):
            act(lines[:, rows], tmp)
        return _ifft_last(out, out)
    if blocks is None:
        blocks = column_blocks(shape, S)
    width = blocks.shape[1]
    for lo in range(0, shape[1], width):
        cols = slice(lo, lo + width)
        blk = blocks[:, :min(width, shape[1] - lo)]
        spec = blk[:S]
        np.fft.fft(values[:, :, cols], axis=1, out=spec.transpose(0, 2, 1))
        act(spec, blk[S:])
        np.fft.ifft(spec, axis=2, out=out[:, :, cols].transpose(0, 2, 1))
    return out


def forward_dft_axis(f: SpinorField, axis: int) -> SpinorField:
    """Partial discrete Fourier transform along one spatial axis
    (unnormalized); the last axis goes through `_fft_last`, as in
    `spectral_apply`."""
    _check_axis(f.grid, axis)
    if axis == f.grid.d - 1:
        return SpinorField(_fft_last(f.values, np.empty_like(f.values)), f.grid)
    return SpinorField(np.fft.fft(f.values, axis=1 + axis), f.grid)


def inverse_dft_axis(f: SpinorField, axis: int) -> SpinorField:
    """Inverse partial transform; carries the 1/N_i normalization."""
    _check_axis(f.grid, axis)
    if axis == f.grid.d - 1:
        return SpinorField(_ifft_last(f.values, np.empty_like(f.values)), f.grid)
    return SpinorField(np.fft.ifft(f.values, axis=1 + axis), f.grid)


def derivative_multiplier(grid: Grid, axis: int, order: int) -> np.ndarray:
    """Fourier multiplier of the derivative along an axis, with Nyquist policy."""
    _check_axis(grid, axis)
    if order not in (1, 2):
        raise ConfigurationError(f"derivative order must be 1 or 2, got {order}")
    xi = grid.freqs[axis]
    if order == 1:
        mult = 1j * xi
        n = grid.N[axis]
        if n % 2 == 0:
            mult = mult.copy()
            mult[n // 2] = 0.0  # unpaired mode: zeroed to keep [[d_i]] anti-Hermitian
        return mult
    return -(xi * xi).astype(np.complex128)


def spectral_derivative(f: SpinorField, axis: int, order: int = 1) -> SpinorField:
    """Pseudospectral derivative: multiply mode p by (i xi_p)^order, transform back."""
    mult = derivative_multiplier(f.grid, axis, order)
    values = spectral_apply(f.values, axis, lambda spec, _: np.multiply(spec, mult, out=spec))
    return SpinorField(values, f.grid)


def dense_diff_matrix(N: int, a: float) -> np.ndarray:
    """Dense N x N first-derivative matrix equivalent to `spectral_derivative`.

    A[k, k'] = (1/N) sum_p i xi_p exp(i xi_p (x_k - x_k')), with the same
    Nyquist policy as the FFT path.  The matrix is circulant, so it is built
    from a single inverse transform of the multiplier.
    """
    if N < 4:
        raise ConfigurationError(f"point count must be >= 4, got {N}")
    grid = make_grid(1, a, N)
    mult = derivative_multiplier(grid, 0, 1)
    col = np.fft.ifft(mult)  # col[j] = (1/N) sum_p m_p e^{2 pi i p j / N}
    idx = (np.arange(N)[:, None] - np.arange(N)[None, :]) % N
    return col[idx]


def _check_axis(grid: Grid, axis: int):
    if not 0 <= axis < grid.d:
        raise ConfigurationError(f"axis {axis} out of range for a {grid.d}-D grid")
