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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError


def _as_tuple(v, d, name):
    if np.isscalar(v):
        return (float(v),) * d if name == "a" else (int(v),) * d
    t = tuple(v)
    if len(t) != d:
        raise ConfigurationError(f"{name} must have {d} entries, got {len(t)}")
    return tuple(float(x) for x in t) if name == "a" else tuple(int(x) for x in t)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with per-axis nodes and FFT-ordered wavenumbers."""

    d: int
    a: tuple          # per-axis half-width
    N: tuple          # per-axis point count
    h: tuple = field(init=False)
    axes: tuple = field(init=False)   # node coordinates, one 1-D array per axis
    freqs: tuple = field(init=False)  # wavenumbers xi_p in FFT order, per axis

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
    if d not in (1, 2):
        raise ConfigurationError(f"dimension must be 1 or 2, got {d}")
    a = _as_tuple(a, d, "a")
    N = _as_tuple(N, d, "N")
    for i in range(d):
        if a[i] <= 0:
            raise ConfigurationError(f"half-width a[{i}] must be positive, got {a[i]}")
        if N[i] < 4:
            raise ConfigurationError(f"point count N[{i}] must be >= 4, got {N[i]}")
    return Grid(d, a, N)


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

    def copy(self):
        return SpinorField(self.values.copy(), self.grid)

    def is_finite(self):
        return bool(np.all(np.isfinite(self.values)))


def forward_dft_axis(f: SpinorField, axis: int) -> SpinorField:
    """Partial discrete Fourier transform along one spatial axis (unnormalized)."""
    _check_axis(f.grid, axis)
    return SpinorField(np.fft.fft(f.values, axis=1 + axis), f.grid)


def inverse_dft_axis(f: SpinorField, axis: int) -> SpinorField:
    """Inverse partial transform; carries the 1/N_i normalization."""
    _check_axis(f.grid, axis)
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


def derivative_values(values: np.ndarray, axis: int, mult: np.ndarray) -> np.ndarray:
    """Apply a precomputed Fourier multiplier along one axis of a raw (S, N1[, N2]) array."""
    shape = [1] * values.ndim
    shape[1 + axis] = mult.size
    vhat = np.fft.fft(values, axis=1 + axis)
    vhat *= mult.reshape(shape)
    return np.fft.ifft(vhat, axis=1 + axis)


def spectral_derivative(f: SpinorField, axis: int, order: int = 1) -> SpinorField:
    """Pseudospectral derivative: multiply mode p by (i xi_p)^order, transform back."""
    mult = derivative_multiplier(f.grid, axis, order)
    return SpinorField(derivative_values(f.values, axis, mult), f.grid)


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
