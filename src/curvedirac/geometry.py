"""Metric models: velocity fields, local potential matrices, covariant weights.

A model turns a chosen background into the three ingredients the propagation
schemes consume:

* per-axis velocity fields a^i(x) multiplying the transport operators,
* the local potential matrix M(x) applied in the half steps,
* the covariant-norm weight w(x) for the conserved diagnostic norm.

Profiles and potentials are closed forms with analytic gradients; no finite
differencing is used anywhere, so sampled fields inherit spectral accuracy.

Model kinds
-----------
flat        a = 1, M = beta m + I V - alpha . A, w = 1
static1d    ds^2 = e^{2 Phi} dt^2 - e^{2 Psi} dx^2:
            a = e^{Phi - Psi}, M = e^{Phi} sigma^3 m, w = e^{Psi},
            spin-connection shift c = Phi'/2 handled in the transport stage
static2d    same with two axes, w = e^{2 Psi}
graphene    rippled sheet h(x) = a0 cos(2 pi k0 x / ell), f = (h')^2 / 2:
            a = 1/(1 - f), M = -a A_x sigma^1 + sigma^3 (m - V), w = 1 - f

The anti-Hermitian connection term -i a(x) c(x) sigma^1 is deliberately NOT
folded into M (that would break the Hermitian-potential invariant and the
unitary half steps); the propagators apply it as a separate pointwise factor
wrapped symmetrically around the transport stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, GeometryError
from .grid_spectral import Grid
from .spinor_algebra import alpha_matrix, beta_matrix, identity


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
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))

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
    """f(x) at the grid nodes; GeometryError where the metric degenerates (f >= 1)."""
    f = graphene_f(grid.meshes()[0], model.a0, model.k0, model.ell)
    fmax = float(np.max(f))
    if fmax >= 1.0:
        raise GeometryError(
            f"degenerate graphene metric: max f = {fmax:.6g} >= 1 on the grid"
        )
    return f


def velocity_fields(model: MetricModel, grid: Grid):
    """Per-axis velocity fields a^i(x), full grid shape, always real."""
    model.check_grid(grid)
    coords = grid.meshes()
    if model.kind == "flat":
        ones = np.ones(grid.shape)
        return [ones.copy() for _ in range(grid.d)]
    if model.kind == "graphene":
        return [1.0 / (1.0 - _graphene_strain(model, grid))]
    a = np.exp(model.phi.value(*coords) - model.psi.value(*coords))
    return [a.copy() for _ in range(grid.d)]


def connection_fields(model: MetricModel, grid: Grid):
    """Spin-connection shifts c^i = (d_i Phi)/2; zero for flat and graphene."""
    model.check_grid(grid)
    coords = grid.meshes()
    if model.kind in ("static1d", "static2d"):
        return [0.5 * g for g in model.phi.grad(*coords)]
    return [np.zeros(grid.shape) for _ in range(grid.d)]


@dataclass
class PotentialField:
    """Sampled local potential M(x) in the split form beta*G + alpha.Gvec + scalar*I."""

    spinor_dim: int
    G: np.ndarray          # coefficient of beta
    Gvec: tuple            # up to three alpha coefficients (arrays or scalars)
    scalar: np.ndarray     # coefficient of the identity

    def matrix(self) -> np.ndarray:
        """Assemble the dense (S, S, ...) matrix field."""
        S = self.spinor_dim
        shape = np.broadcast_shapes(
            np.shape(self.G), np.shape(self.scalar), *(np.shape(g) for g in self.Gvec)
        )
        nd = len(shape)
        lift = lambda m: m.reshape((S, S) + (1,) * nd)
        out = lift(beta_matrix(S)) * np.asarray(self.G)
        out = out + lift(identity(S)) * np.asarray(self.scalar)
        for i, g in enumerate(self.Gvec):
            if np.size(g) == 1 and not np.any(g):
                continue
            out = out + lift(alpha_matrix(i + 1, S)) * np.asarray(g)
        return np.broadcast_to(out, (S, S) + shape).copy()


def potential_field(model: MetricModel, grid: Grid) -> PotentialField:
    """M(x) sampled at the grid nodes (Hermitian for all built-in models)."""
    model.check_grid(grid)
    coords = grid.meshes()
    S = model.spinor_dim
    zero = np.zeros(grid.shape)
    if model.kind == "flat":
        G = np.full(grid.shape, float(model.mass))
        scal = model.v_pot.value(*coords) if model.v_pot.name != "zero" else zero
        ax = model.ax_pot.value(*coords) if model.ax_pot.name != "zero" else 0.0
        gvec = (-np.asarray(ax) if np.ndim(ax) else 0.0, 0.0, 0.0)
        return PotentialField(S, G, gvec, scal)
    if model.kind == "graphene":
        x = coords[0]
        a = 1.0 / (1.0 - _graphene_strain(model, grid))
        v = model.v_pot.value(x) if model.v_pot.name != "zero" else zero
        axp = model.ax_pot.value(x) if model.ax_pot.name != "zero" else zero
        return PotentialField(S, model.mass - v, (-a * axp, 0.0, 0.0), zero)
    # static diagonal metrics: M = e^{Phi} sigma^3 m
    G = np.exp(model.phi.value(*coords)) * model.mass
    return PotentialField(S, np.asarray(G, dtype=float), (0.0, 0.0, 0.0), zero)


def gamma_weight(model: MetricModel, grid: Grid) -> np.ndarray:
    """Weight of the covariant norm: (h^d sum w |psi|^2)^(1/2) is the conserved one."""
    model.check_grid(grid)
    coords = grid.meshes()
    if model.kind == "flat":
        return np.ones(grid.shape)
    if model.kind == "graphene":
        return 1.0 - _graphene_strain(model, grid)
    return np.exp(grid.d * model.psi.value(*coords))


def velocity_bound(model: MetricModel, grid: Grid) -> float:
    """sup over the grid of the velocity fields (stability hypotheses cite it)."""
    return max(float(np.max(a)) for a in velocity_fields(model, grid))
