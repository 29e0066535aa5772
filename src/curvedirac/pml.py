"""Perfectly matched layers: absorbing profiles and complex stretch factors.

The derivative along axis i is replaced by (1/S^i(x^i)) d_i with

    S^i(x^i) = 1 + e^{i theta} Sigma~(x^i),
    Sigma~(x^i) = Sigma(|x^i| - L)   for L* <= |x^i| < L,   0 for |x^i| < L*,

so S = 1 on the physical region and |S| >= 1 inside the layer.  The layer
occupies the outer `fraction` of each half-axis: L = a_i, L* = (1-fraction) a_i.
Six profile shapes are provided; III-VI are singular at the outer boundary and
are clamped one grid spacing inside, which keeps the evaluation total (the
node at x = -a sits exactly on |x| = L).

Only the transport stage consumes the stretch: velocities become a^i / S^i.
The potential stage is left untouched.

With theta = 0 the stretch is real and positive, and the layer only slows and
compresses waves.  The cn transport operator is then skew-adjoint in the
inner product weighted by Re S * w (w the covariant weight of
`geometry.gamma_weight`), so the cn scheme conserves the integral of
Re S * w |psi|^2 to solver tolerance and dissipates nothing.  A rotated
stretch (theta > 0) damps content of one sign of c*xi (c the local velocity,
xi the wavenumber) and amplifies content of the other sign at the same rate,
so a strong rotated layer can blow up a field that carries both signs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid_spectral import Grid

PROFILES = ("I", "II", "III", "IV", "V", "VI")


@dataclass(frozen=True)
class PmlConfig:
    enabled: bool = False
    profile: str = "I"
    sigma0: float = 0.0
    theta: float = 0.0
    fraction: float = 0.1   # layer width as a fraction of the half-domain

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise ConfigurationError(f"PML profile must be one of {PROFILES}", "profile")
        if not 0 <= self.sigma0 < np.inf:
            raise ConfigurationError(
                f"PML strength sigma0 must be finite and >= 0, got {self.sigma0}", "sigma0")
        if not 0.0 <= self.theta < np.pi / 2:
            raise ConfigurationError("PML rotation theta must lie in [0, pi/2)", "theta")
        if not 0.0 < self.fraction < 1.0:
            raise ConfigurationError("PML fraction must lie in (0, 1)", "fraction")


def sigma_profile(profile, sigma0, x, lstar, l, h=0.0):
    """Absorbing profile at coordinate(s) x; 0 in the physical region |x| < lstar.

    Inside the layer the shapes are evaluated at s = |x| - l (so s runs over
    [-delta, 0) with delta = l - lstar):

        I:  sigma0 (s + delta)^2        II: sigma0 (s + delta)^3
        III: -sigma0 / s                IV: sigma0 / s^2
        V:  -sigma0 / s - sigma0/delta  VI: sigma0 / s^2 - sigma0/delta^2

    `h` clamps the singular types away from s = 0 (value one spacing inside).
    """
    if profile not in PROFILES:
        raise ConfigurationError(f"PML profile must be one of {PROFILES}")
    if lstar >= l:
        raise ConfigurationError("PML needs lstar < l")
    x = np.asarray(x, dtype=float)
    delta = l - lstar
    s = np.abs(x) - l
    if profile in ("III", "IV", "V", "VI"):
        clamp = max(h, 1e-12 * delta)
        s = np.minimum(s, -clamp)
    if profile == "I":
        out = sigma0 * (s + delta) ** 2
    elif profile == "II":
        out = sigma0 * (s + delta) ** 3
    elif profile == "III":
        out = -sigma0 / s
    elif profile == "IV":
        out = sigma0 / s ** 2
    elif profile == "V":
        out = -sigma0 / s - sigma0 / delta
    else:
        out = sigma0 / s ** 2 - sigma0 / delta ** 2
    return np.where(np.abs(x) < lstar, 0.0, out)


def stretch_factor(cfg: PmlConfig, axis: int, grid: Grid) -> np.ndarray:
    """S^i over the axis nodes; real when theta = 0, complex otherwise.  The
    layer spans L* <= |x| < L, L the grid half-width and L* = (1 - fraction) L."""
    x = grid.axes[axis]
    if not cfg.enabled:
        return np.ones_like(x)
    l = grid.a[axis]
    sig = sigma_profile(cfg.profile, cfg.sigma0, x, (1.0 - cfg.fraction) * l, l, h=grid.h[axis])
    if cfg.theta == 0.0:
        return 1.0 + sig
    return 1.0 + np.exp(1j * cfg.theta) * sig


def apply_pml(a_field: np.ndarray, stretch: np.ndarray, axis: int) -> np.ndarray:
    """Divide a velocity field by the per-axis stretch (broadcast along `axis`)."""
    a_field = np.asarray(a_field)
    shape = [1] * a_field.ndim
    shape[axis] = stretch.size
    return a_field / stretch.reshape(shape)
