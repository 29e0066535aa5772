"""Metric models: the stepper's sampled coefficients and the covariant weight.

A model turns a chosen background into what the rest of the package consumes:

* `sample_metric` gives the stepper's coefficients at the grid nodes: the
  per-axis velocity fields a^i(x) multiplying the transport operators, the
  spin-connection shifts c^i(x) and the local potential matrix M(x) applied
  in the half steps;
* `gamma_weight` gives the weight w(x) of the conserved diagnostic norm;
* `ripple_band` gives the graphene weight's three Fourier modes in closed
  form, which the cn transport's preconditioner inverts exactly.

Profiles and potentials are closed forms with analytic gradients; no finite
differencing is used anywhere, so sampled fields inherit spectral accuracy.

Model kinds
-----------
flat        a = 1, M = beta m + I V - alpha . A, w = 1
static1d    ds^2 = e^{2 Phi} dt^2 - e^{2 Psi} dx^2:
            a = e^{Phi - Psi}, M = e^{Phi} sigma^3 m, w = e^{Psi},
            spin-connection shift c = Phi'/2 applied around the transport stage
static2d    same with two axes, w = e^{2 Psi}
graphene    rippled sheet h(x) = a0 cos(2 pi k0 x / ell), f = (h')^2 / 2:
            a = 1/(1 - f), M = -a A_x sigma^1 + sigma^3 (m - V), w = 1 - f

The anti-Hermitian connection term -i a(x) c^i(x) alpha^i is kept out of M,
which stays Hermitian; the propagators exponentiate the two together, one
pointwise factor exp(-dt/2 (i M + sum_i a c^i alpha^i)) applied on either
side of the transport stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GeometryError
from .grid_spectral import Grid


# ---------------------------------------------------------------------------
# closed-form scalar profiles


@dataclass(frozen=True)
class ScalarForm:
    """Named closed form with coefficients, e.g. gauss(1.0, 0.005)."""

    name: str
    params: tuple = ()

    def __post_init__(self):
        if self.name not in _FORMS:
            raise ConfigurationError(f"unknown closed form '{self.name}'")
        nparams = _FORMS[self.name][0]
        if len(self.params) != nparams:
            raise ConfigurationError(
                f"form '{self.name}' takes {nparams} coefficients, got {len(self.params)}"
            )
        params = tuple(float(p) for p in self.params)
        if not all(map(math.isfinite, params)):
            raise ConfigurationError(f"form '{self.name}' needs finite coefficients, got {params}")
        object.__setattr__(self, "params", params)

    def value(self, *coords):
        return _FORMS[self.name][1](self.params, coords)

    def grad(self, *coords):
        """Analytic gradient, one array per coordinate."""
        return _FORMS[self.name][2](self.params, coords)

    def __str__(self):
        if not self.params:
            return self.name
        return f"{self.name}({','.join(repr(p) for p in self.params)})"


def _rho2(coords):
    return sum(c * c for c in coords)


def _only_1d(coords, name):
    if len(coords) != 1:
        raise ConfigurationError(f"form '{name}' is one-dimensional")
    return coords[0]


_FORMS = {
    "zero": (
        0,
        lambda p, c: np.zeros(np.broadcast_shapes(*(np.shape(x) for x in c))),
        lambda p, c: tuple(np.zeros(np.shape(x)) for x in c),
    ),
    "const": (
        1,
        lambda p, c: np.full(np.broadcast_shapes(*(np.shape(x) for x in c)), p[0]),
        lambda p, c: tuple(np.zeros(np.shape(x)) for x in c),
    ),
    # A exp(-r rho^2)
    "gauss": (
        2,
        lambda p, c: p[0] * np.exp(-p[1] * _rho2(c)),
        lambda p, c: tuple(-2.0 * p[1] * x * p[0] * np.exp(-p[1] * _rho2(c)) for x in c),
    ),
    # A (1 - exp(-r rho^2)): a centered dip, used to build sub-unit velocity fields
    "well": (
        2,
        lambda p, c: p[0] * (1.0 - np.exp(-p[1] * _rho2(c))),
        lambda p, c: tuple(2.0 * p[1] * x * p[0] * np.exp(-p[1] * _rho2(c)) for x in c),
    ),
    # A cos(w x) exp(-r x^2), 1-D
    "cosgauss": (
        3,
        lambda p, c: p[0] * np.cos(p[1] * _only_1d(c, "cosgauss")) * np.exp(-p[2] * c[0] ** 2),
        lambda p, c: (
            p[0]
            * np.exp(-p[2] * c[0] ** 2)
            * (-p[1] * np.sin(p[1] * c[0]) - 2.0 * p[2] * c[0] * np.cos(p[1] * c[0])),
        ),
    ),
    # c x, 1-D
    "linear": (
        1,
        lambda p, c: p[0] * _only_1d(c, "linear"),
        lambda p, c: (np.full(np.shape(c[0]), p[0]),),
    ),
    # c x^2, 1-D
    "quadratic": (
        1,
        lambda p, c: p[0] * _only_1d(c, "quadratic") ** 2,
        lambda p, c: (2.0 * p[0] * c[0],),
    ),
    # c / (|x| + 1), 1-D
    "inv_abs_one": (
        1,
        lambda p, c: p[0] / (np.abs(_only_1d(c, "inv_abs_one")) + 1.0),
        lambda p, c: (-p[0] * np.sign(c[0]) / (np.abs(c[0]) + 1.0) ** 2,),
    ),
}

ZERO_FORM = ScalarForm("zero")


def parse_form(text: str) -> ScalarForm:
    """Parse 'name' or 'name(p1,p2,...)' into a ScalarForm."""
    text = text.strip()
    if "(" not in text:
        return ScalarForm(text)
    if not text.endswith(")"):
        raise ConfigurationError(f"malformed closed form '{text}'")
    name, _, body = text.partition("(")
    body = body[:-1].strip()
    params = tuple(float(tok) for tok in body.split(",")) if body else ()
    return ScalarForm(name.strip(), params)


# ---------------------------------------------------------------------------
# metric models

_KINDS = ("flat", "static1d", "static2d", "graphene")


@dataclass(frozen=True)
class MetricModel:
    kind: str
    spinor_dim: int = 2
    mass: float = 0.0
    phi: ScalarForm = ZERO_FORM
    psi: ScalarForm = ZERO_FORM
    a0: float = 0.0
    k0: float = 0.0
    ell: float = 1.0
    ax_pot: ScalarForm = ZERO_FORM
    v_pot: ScalarForm = ZERO_FORM

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown metric kind '{self.kind}'", "kind")
        if self.spinor_dim not in (2, 4):
            raise ConfigurationError("spinor_dim must be 2 or 4", "spinor_dim")
        for name in ("mass", "a0", "k0", "ell"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"metric {name} must be finite, got {value}", name)
        if self.kind == "graphene" and not self.ell > 0:
            raise ConfigurationError("graphene sheet length ell must be positive", "ell")
        if self.kind in ("static1d", "static2d"):
            for name in ("ax_pot", "v_pot"):
                if getattr(self, name) != ZERO_FORM:
                    raise ConfigurationError(
                        "static metrics carry no external potentials here; "
                        "set metric.Ax / metric.V only for flat or graphene", name)

    @property
    def dimension(self):
        return {"flat": None, "static1d": 1, "static2d": 2, "graphene": 1}[self.kind]

    def check_grid(self, grid: Grid):
        want = self.dimension
        if want is not None and grid.d != want:
            raise ConfigurationError(
                f"metric kind '{self.kind}' needs a {want}-D grid, got {grid.d}-D"
            )


def graphene_f(x, a0, k0, ell):
    """Strain profile f(x) = 2 pi^2 a0^2 k0^2 sin^2(2 pi k0 x / ell) / ell^2."""
    s = np.sin(2.0 * np.pi * k0 * np.asarray(x) / ell)
    return 2.0 * np.pi ** 2 * a0 ** 2 * k0 ** 2 * s * s / ell ** 2


def _graphene_strain(model: MetricModel, grid: Grid) -> np.ndarray:
    """f(x) at the grid nodes; GeometryError where the metric degenerates
    (f >= 1, or a NaN strain)."""
    f = graphene_f(grid.meshes()[0], model.a0, model.k0, model.ell)
    fmax = float(np.max(f))
    if not fmax < 1.0:
        raise GeometryError(
            f"degenerate graphene metric: max f = {fmax:.6g} on the grid is not below 1"
        )
    return f


def ripple_band(model: MetricModel, grid: Grid):
    """The Fourier band of the graphene weight w = 1/a = 1 - f, in closed form.

    Since sin^2 = (1 - cos 2 theta)/2 and x_k = -a + 2 a k / N,

        w(x_k) = w0 + 2 wK cos(2 pi K k / N),   K = 4 k0 a / ell,
        w0 = 1 - C/2,   wK = (-1)^K C/4,   C = 2 pi^2 a0^2 k0^2 / ell^2,

    so w couples Fourier mode j only with j +- K.  Returns (K, w0, wK) when
    the box holds a whole number of ripple periods that the grid resolves
    (0 < K < N/2) and C < 1 (the band is then strictly diagonally dominant),
    else None; no FFT is taken.
    """
    if model.kind != "graphene":
        return None
    N = grid.N[0]
    K = abs(4.0 * model.k0 * grid.a[0] / model.ell)
    C = 2.0 * np.pi ** 2 * model.a0 ** 2 * model.k0 ** 2 / model.ell ** 2
    Kint = round(K)
    if abs(K - Kint) > 1e-12 * K or not 0 < Kint < N / 2 or not C < 1.0:
        return None
    return Kint, 1.0 - 0.5 * C, (-1) ** Kint * 0.25 * C


@dataclass
class MetricSample:
    """The stepper's coefficients at the grid nodes (see `sample_metric`).

    The potential is M = beta G + alpha . Gvec + scalar I; Gvec holds up to
    three alpha coefficients, arrays or scalars.
    """

    velocity: list          # a^i(x) per axis, real; axes may share one array
    connection: list | None  # c^i(x) per axis, None when every c^i is zero
    G: np.ndarray
    Gvec: tuple
    scalar: np.ndarray


def sample_metric(model: MetricModel, grid: Grid) -> MetricSample:
    """Velocities, connection shifts and potential at the grid nodes, each
    closed form (and the graphene strain) evaluated once."""
    model.check_grid(grid)
    coords = grid.meshes()
    zero = np.zeros(grid.shape)
    if model.kind == "flat":
        G = np.full(grid.shape, float(model.mass))
        scal = model.v_pot.value(*coords) if model.v_pot.name != "zero" else zero
        ax = model.ax_pot.value(*coords) if model.ax_pot.name != "zero" else 0.0
        gvec = (-np.asarray(ax) if np.ndim(ax) else 0.0, 0.0, 0.0)
        return MetricSample([np.ones(grid.shape)] * grid.d, None, G, gvec, scal)
    if model.kind == "graphene":
        x = coords[0]
        a = 1.0 / (1.0 - _graphene_strain(model, grid))
        v = model.v_pot.value(x) if model.v_pot.name != "zero" else zero
        axp = model.ax_pot.value(x) if model.ax_pot.name != "zero" else zero
        return MetricSample([a], None, model.mass - v, (-a * axp, 0.0, 0.0), zero)
    # static diagonal metrics: a = e^{Phi - Psi}, c = grad(Phi)/2, M = e^{Phi} sigma^3 m
    phi = model.phi.value(*coords)
    a = np.exp(phi - model.psi.value(*coords))
    conn = [0.5 * g for g in model.phi.grad(*coords)]
    if not any(np.any(c) for c in conn):
        conn = None
    return MetricSample([a] * grid.d, conn, np.exp(phi) * model.mass, (0.0, 0.0, 0.0), zero)


def gamma_weight(model: MetricModel, grid: Grid) -> np.ndarray:
    """Weight of the covariant norm: (h^d sum w |psi|^2)^(1/2) is the conserved one."""
    model.check_grid(grid)
    coords = grid.meshes()
    if model.kind == "flat":
        return np.ones(grid.shape)
    if model.kind == "graphene":
        return 1.0 - _graphene_strain(model, grid)
    return np.exp(grid.d * model.psi.value(*coords))
