"""Metric models: the stepper's sampled coefficients and the covariant weight.

A model turns a chosen background into what the rest of the package consumes:

* `sample_metric` gives the stepper's coefficients at the grid nodes: the
  per-axis velocity fields a^i(x) multiplying the transport operators, the
  gauge exponent F(x) of the spin connection c^i = d_i F / 2 and the
  coefficients of the local potential M(x) = beta G + alpha^1 g + V applied
  in the half steps;
* `gamma_weight` gives the weight w(x) of the conserved diagnostic norm;
* `ripple_band` gives the graphene weight's three Fourier modes in closed
  form, which the cn transport's preconditioner inverts exactly.

Profiles and potentials are closed forms; no finite differencing is used
anywhere, so sampled fields inherit spectral accuracy.
A form takes broadcastable coordinates: full meshes, or the open coordinates
``np.ix_(*grid.axes)`` on which both samplers evaluate it.  On those a 2-D
field is sampled per axis: ``gauss`` and ``well`` take their radial
exponential as the product of the per-axis exp(-r x_i^2), and only the
products (and the exponentials of non-separable sums) span the full grid.

Model kinds
-----------
flat        a = 1, M = beta m + I V - alpha^1 A_x, w = 1
static1d    ds^2 = e^{2 Phi} dt^2 - e^{2 Psi} dx^2:
            a = e^{Phi - Psi}, M = e^{Phi} sigma^3 m, w = e^{Psi},
            spin connection c = Phi'/2, kept as its gauge exponent F = Phi
static2d    same with two axes, c^i = d_i (Phi + Psi) / 2, F = Phi + Psi,
            w = e^{2 Psi}
graphene    rippled sheet h(x) = a0 cos(2 pi k0 x / ell), f = (h')^2 / 2:
            a = 1/(1 - f), M = -a A_x sigma^1 + sigma^3 (m - V), w = 1 - f

The connection is a pure gradient, c^i = d_i F / 2, so

    a alpha^i (d_i + c^i) psi = e^{-F/2} a alpha^i d_i (e^{F/2} psi)

exactly: the sample keeps F, not c, and M stays Hermitian.  The propagators
fold e^{+-F/2} into the pointwise factors on either side of the transport
stage.  Flat space and graphene have no connection (F = None), and neither
has a static metric whose F is constant on the grid.

F = Phi + (d - 1) Psi in d space dimensions.  The transport
-a alpha^i (d_i + c^i) conserves int w |psi|^2 when grad log(w a) = 2 c;
with a = e^{Phi - Psi} and the covariant density w = e^{d Psi} of
ds^2 = e^{2 Phi} dt^2 - e^{2 Psi} |dx|^2 that is c = grad(Phi + (d-1) Psi)/2.
In 1-D F = Phi.
"""

from __future__ import annotations

import functools
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
        return _FORMS[self.name][1](self.params, self._checked(coords))

    def _checked(self, coords):
        if len(coords) != 1 and self.name in _ONE_D:
            raise ConfigurationError(f"form '{self.name}' is one-dimensional")
        return coords

    def __str__(self):
        if not self.params:
            return self.name
        return f"{self.name}({','.join(repr(p) for p in self.params)})"


def _shape(coords):
    return np.broadcast_shapes(*(np.shape(x) for x in coords))


def _radial(lead, r, coords):
    """lead exp(-r rho^2), as the product of lead exp(-r x_0^2) and the
    other axes' exp(-r x_i^2)."""
    e = [np.exp(-r * (x * x)) for x in coords]
    return functools.reduce(np.multiply, e[1:], lead * e[0])


# Forms of one coordinate; the others take any number of broadcastable ones.
_ONE_D = ("cosgauss", "linear", "quadratic", "inv_abs_one")

_FORMS = {
    "zero": (0, lambda p, c: np.zeros(_shape(c))),
    "const": (1, lambda p, c: np.full(_shape(c), p[0])),
    # A exp(-r rho^2)
    "gauss": (2, lambda p, c: _radial(p[0], p[1], c)),
    # A (1 - exp(-r rho^2)): a centered dip, used to build sub-unit velocity fields
    "well": (2, lambda p, c: p[0] * (1.0 - _radial(1.0, p[1], c))),
    # A cos(w x) exp(-r x^2), 1-D
    "cosgauss": (3, lambda p, c: p[0] * np.cos(p[1] * c[0]) * np.exp(-p[2] * c[0] ** 2)),
    # c x, 1-D
    "linear": (1, lambda p, c: p[0] * c[0]),
    # c x^2, 1-D
    "quadratic": (1, lambda p, c: p[0] * c[0] ** 2),
    # c / (|x| + 1), 1-D
    "inv_abs_one": (1, lambda p, c: p[0] / (np.abs(c[0]) + 1.0)),
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

# The background fields each kind reads besides the mass; any other field of
# _KEYS (named by its config key) must keep its default, so no set value is
# dropped without notice.
_READS = {"flat": ("ax_pot", "v_pot"), "static1d": ("phi", "psi"), "static2d": ("phi", "psi"),
          "graphene": ("a0", "k0", "ell", "ax_pot", "v_pot")}
_KEYS = {"phi": "metric.Phi", "psi": "metric.Psi", "a0": "metric.a0", "k0": "metric.k0",
         "ell": "metric.ell", "ax_pot": "the external potential metric.Ax",
         "v_pot": "the external potential metric.V"}


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
        if self.kind not in _READS:
            raise ConfigurationError(f"unknown metric kind '{self.kind}'", "kind")
        if self.spinor_dim not in (2, 4):
            raise ConfigurationError("spinor_dim must be 2 or 4", "spinor_dim")
        for name in ("mass", "a0", "k0", "ell"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"metric {name} must be finite, got {value}", name)
        if self.kind == "graphene" and not self.ell > 0:
            raise ConfigurationError("graphene sheet length ell must be positive", "ell")
        for name, key in _KEYS.items():
            # a field's class attribute is its default
            if name not in _READS[self.kind] and getattr(self, name) != getattr(MetricModel, name):
                raise ConfigurationError(
                    f"metric kind '{self.kind}' does not read {key}; leave it at its default",
                    name)

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
    f = graphene_f(grid.axes[0], model.a0, model.k0, model.ell)
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
    (0 < K < N/2) and 0 < C < 1 (the band is then strictly diagonally
    dominant; a flat sheet, C = 0, has no band: its w is the constant w0),
    else None; no FFT is taken.
    """
    if model.kind != "graphene":
        return None
    N = grid.N[0]
    K = abs(4.0 * model.k0 * grid.a[0] / model.ell)
    C = 2.0 * np.pi ** 2 * model.a0 ** 2 * model.k0 ** 2 / model.ell ** 2
    Kint = round(K)
    if abs(K - Kint) > 1e-12 * K or not 0 < Kint < N / 2 or not 0.0 < C < 1.0:
        return None
    return Kint, 1.0 - 0.5 * C, (-1) ** Kint * 0.25 * C


@dataclass
class MetricSample:
    """The stepper's coefficients at the grid nodes (see `sample_metric`).

    The potential is M = beta G + alpha^1 g + scalar I.  ``g`` is the
    alpha^1 coefficient, None where the model has no A_x, and ``scalar`` is
    the number 0.0 where the model has no scalar potential V.  ``gauge`` is
    the exponent F of the spin connection c^i = d_i F / 2, only on a static
    metric (which has no alpha potential), and None where F is constant on
    the grid: then there is no connection.
    """

    velocity: list          # a^i(x) per axis, real; axes may share one array
    gauge: np.ndarray | None  # F(x), full grid; None when c = 0
    G: np.ndarray
    g: np.ndarray | None    # alpha^1 coefficient; None without A_x
    scalar: np.ndarray | float


def require_finite(name: str, values, grid: Grid):
    """``values`` when every entry is finite; otherwise a GeometryError
    naming the coefficient and its first non-finite node.  One sum decides,
    since a finite sum has finite terms; only a sum that is not finite is
    searched node by node.  Call it under np.errstate, as the sum of large
    finite values may overflow.  The last grid.d axes of ``values`` are the
    grid's."""
    if np.isfinite(values.sum()):
        return values
    return _require(name, "finite", np.isfinite(values), values, grid)


def require_positive(name: str, values, grid: Grid):
    """``values`` when every entry is > 0; otherwise a GeometryError naming
    the coefficient and its first node that is not, as `require_finite`."""
    return _require(name, "positive", values > 0, values, grid)


def _require(name, what, ok, values, grid):
    if ok.all():
        return values
    node = np.unravel_index(np.argmin(ok), ok.shape)[ok.ndim - grid.d:]
    x = ", ".join(f"{ax[k]:.6g}" for ax, k in zip(grid.axes, node))
    raise GeometryError(f"{name} is not {what} at node {tuple(map(int, node))}, x = ({x})")


def sample_metric(model: MetricModel, grid: Grid) -> MetricSample:
    """Velocities, the connection's gauge exponent and the potential at the
    grid nodes, each
    closed form (and the graphene strain) evaluated once, on the grid's open
    coordinates ``np.ix_(*grid.axes)``: a 2-D form is sampled per axis and
    no full-grid mesh is built.  An overflow (a growing closed form, say)
    raises GeometryError (`require_finite`), not a numpy warning."""
    model.check_grid(grid)
    with np.errstate(all="ignore"):
        sample = _sample(model, grid)
        named = [(f"velocity a^{i + 1}", v) for i, v in enumerate(sample.velocity)]
        if sample.gauge is not None:
            named.append(("gauge exponent F", sample.gauge))
        if sample.g is not None:
            named.append(("potential g", sample.g))
        named += [("potential G", sample.G), ("scalar potential", sample.scalar)]
        for name, values in named:
            if np.ndim(values):   # a number is the sampler's zero scalar potential
                require_finite(name, values, grid)
    return sample


def _sample(model, grid):
    coords = np.ix_(*grid.axes)
    if model.kind == "flat":
        G = np.full(grid.shape, float(model.mass))
        scal = model.v_pot.value(*coords) if model.v_pot.name != "zero" else 0.0
        g = -model.ax_pot.value(*coords) if model.ax_pot.name != "zero" else None
        return MetricSample([np.ones(grid.shape)] * grid.d, None, G, g, scal)
    if model.kind == "graphene":
        x = coords[0]
        a = 1.0 / (1.0 - _graphene_strain(model, grid))
        G = np.full(grid.shape, float(model.mass))
        if model.v_pot.name != "zero":
            G -= model.v_pot.value(x)
        g = -a * model.ax_pot.value(x) if model.ax_pot.name != "zero" else None
        return MetricSample([a], None, G, g, 0.0)
    # static diagonal metrics: a = e^{Phi - Psi}, F = Phi + (d - 1) Psi,
    # M = e^{Phi} sigma^3 m.  Each result that can takes the buffer of a
    # sampled field no longer needed, so at most three grid arrays are live:
    # a fourth page-faulted measurably in the set-up build
    phi, psi = model.phi.value(*coords), model.psi.value(*coords)
    if grid.d == 1:
        a, F = np.subtract(phi, psi, out=psi), phi
        G = np.exp(phi)
    else:
        a = phi - psi
        F = np.add(phi, psi, out=psi)
        G = np.exp(phi, out=phi)
    np.exp(a, out=a)
    G *= model.mass
    gauge = F if np.ptp(F) else None    # a constant F has no gradient
    return MetricSample([a] * grid.d, gauge, G, None, 0.0)


def gamma_weight(model: MetricModel, grid: Grid) -> np.ndarray:
    """Weight of the covariant norm: (h^d sum w |psi|^2)^(1/2) is the conserved
    one.  Psi is evaluated on the open coordinates, as in `sample_metric`,
    and an overflow raises GeometryError (`require_finite`)."""
    model.check_grid(grid)
    if model.kind == "flat":
        return np.ones(grid.shape)
    with np.errstate(all="ignore"):
        if model.kind == "graphene":
            return 1.0 - _graphene_strain(model, grid)
        w = model.psi.value(*np.ix_(*grid.axes))
        w *= grid.d
        np.exp(w, out=w)
        return require_finite("covariant weight", w, grid)
