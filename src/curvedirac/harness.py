"""Run configurations, experiment presets, diagnostics and batch drivers.

A run is described by a RunConfig, which round-trips losslessly through the
line-based ``section.key = value`` text format (see `parse_config` /
`serialize_config`).  `run_simulation` advances the configured scheme over the
horizon, recording per-step norms (the plain l2 norm and the covariant
weighted norm) and optionally writing CSV snapshots.  Every failure inside a
step (a stalled or non-finite transport solve, a non-finite field norm) ends
the run as a SimulationError, with the diagnostics file written first when
the run has an output directory.

Six presets named exp1..exp6 ship with the package as ``presets/<name>.cfg``:
two 1-D static-metric benchmarks, a 2-D static-metric wavepacket, two
rippled-graphene runs with external potentials, and a graphene run with an
absorbing layer.  The files hold the 'paper' scale; the cheaper 'ci' scale
changes only the grid size N and the horizon T.
"""

from __future__ import annotations

import dataclasses
import math
import os
import struct
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ConfigurationError, KrylovError, SimulationError, StepFailureError
from .geometry import MetricModel, ZERO_FORM, gamma_weight, parse_form
from .grid_spectral import Grid, SpinorField, make_grid
from .krylov import KrylovOptions
from .pml import PmlConfig
from .propagators import SCHEMES, StepWorkspace, strang_step

IC_KINDS = ("gaussian_wavepacket", "graphene_pair", "custom")
BINARY_SNAPSHOT_THRESHOLD = 256 * 256  # 2-D fields above this go to .dcrv
_DCRV_MAGIC = b"DCRV"


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    d: int
    a: tuple
    N: tuple
    metric: MetricModel
    scheme: str
    dt: float
    T: float
    pml: PmlConfig = PmlConfig()
    krylov: KrylovOptions = KrylovOptions()
    ic_kind: str = "gaussian_wavepacket"
    ic_k0: tuple = (0.0,)
    ic_beta: float = 1.0
    ic_x0: tuple = (0.0,)
    ic_width: float = 1.0
    ic_path: str = ""
    out_dir: str = ""
    stride: int = 0

    def __post_init__(self):
        def tup(v, conv):
            t = (v,) if np.isscalar(v) else tuple(v)
            if len(t) == 1:
                t = t * self.d
            if len(t) != self.d:
                raise ConfigurationError(f"expected {self.d} entries, got {t}")
            return tuple(conv(x) for x in t)

        object.__setattr__(self, "a", tup(self.a, float))
        object.__setattr__(self, "N", tup(self.N, int))
        object.__setattr__(self, "ic_k0", tup(self.ic_k0, float))
        object.__setattr__(self, "ic_x0", tup(self.ic_x0, float))
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"scheme must be one of {SCHEMES}, got '{self.scheme}'")
        if not self.dt > 0:
            raise ConfigurationError(f"time step dt must be positive, got {self.dt}")

    def grid(self) -> Grid:
        return make_grid(self.d, self.a, self.N)

    def steps(self) -> int:
        if self.T <= 0:
            return 0
        return int(math.ceil(self.T / self.dt - 1e-9))

    def replace(self, **kw) -> "RunConfig":
        return dataclasses.replace(self, **kw)


_REQUIRED = ("grid.d", "grid.a", "grid.N", "metric.kind", "scheme.kind",
             "scheme.dt", "scheme.T", "ic.kind")

_KNOWN = _REQUIRED + (
    "metric.S", "metric.m", "metric.Phi", "metric.Psi",
    "metric.a0", "metric.k0", "metric.ell", "metric.Ax", "metric.V",
    "pml.enabled", "pml.type", "pml.sigma0", "pml.theta", "pml.fraction",
    "krylov.tol", "krylov.restart", "krylov.maxit",
    "ic.k0", "ic.beta", "ic.x0", "ic.width", "ic.path",
    "output.dir", "output.stride",
)


def _cfg_error(line, msg):
    raise ConfigurationError(f"line {line}: {msg}" if line else msg)


def _parse_pair(text, d, line, conv=float):
    toks = [t.strip() for t in text.split(",")]
    if len(toks) not in (1, d):
        _cfg_error(line, f"expected 1 or {d} comma-separated values, got '{text}'")
    try:
        vals = tuple(conv(t) for t in toks)
    except ValueError:
        _cfg_error(line, f"could not parse '{text}'")
    return vals * d if len(vals) == 1 else vals


def _parse_bool(text, line):
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    _cfg_error(line, f"expected a boolean, got '{text}'")


def parse_config(text: str) -> RunConfig:
    """Parse the line-based config format; unknown keys are hard errors."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            _cfg_error(lineno, f"expected 'section.key = value', got '{raw.strip()}'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KNOWN:
            _cfg_error(lineno, f"unknown key '{key}'")
        if key in entries:
            _cfg_error(lineno, f"duplicate key '{key}'")
        entries[key] = (value, lineno)

    for req in _REQUIRED:
        if req not in entries:
            raise ConfigurationError(f"missing required key {req}")

    def take(key, default=None):
        return entries.get(key, (default, 0))

    def num(key, conv, default=None):
        value, line = take(key, default)
        if value is default and key not in entries:
            return default
        try:
            return conv(value)
        except (TypeError, ValueError):
            _cfg_error(line, f"could not parse '{value}' for {key}")

    def form(key):
        value, line = take(key)
        if value is None:
            return ZERO_FORM
        try:
            return parse_form(value)
        except ConfigurationError as exc:
            _cfg_error(line, str(exc))

    d = num("grid.d", int)
    if d not in (1, 2):
        _cfg_error(take("grid.d")[1], f"grid.d must be 1 or 2, got {d}")
    a = _parse_pair(entries["grid.a"][0], d, entries["grid.a"][1], float)
    N = _parse_pair(entries["grid.N"][0], d, entries["grid.N"][1], int)

    kind, kline = take("metric.kind")
    try:
        metric = MetricModel(
            kind=kind,
            spinor_dim=num("metric.S", int, 2),
            mass=num("metric.m", float, 0.0),
            phi=form("metric.Phi"),
            psi=form("metric.Psi"),
            a0=num("metric.a0", float, 0.0),
            k0=num("metric.k0", float, 0.0),
            ell=num("metric.ell", float, 1.0),
            ax_pot=form("metric.Ax"),
            v_pot=form("metric.V"),
        )
    except ConfigurationError as exc:
        _cfg_error(kline, str(exc))
    if metric.dimension is not None and metric.dimension != d:
        _cfg_error(kline, f"metric kind '{kind}' needs grid.d = {metric.dimension}")
    if metric.kind in ("static1d", "static2d"):
        if metric.ax_pot != ZERO_FORM or metric.v_pot != ZERO_FORM:
            _cfg_error(kline, "static metrics carry no external potentials here; "
                              "set metric.Ax / metric.V only for flat or graphene")

    scheme, sline = take("scheme.kind")
    if scheme not in SCHEMES:
        _cfg_error(sline, f"scheme.kind must be one of {SCHEMES}")
    dt = num("scheme.dt", float)
    if dt is None or dt <= 0:
        _cfg_error(take("scheme.dt")[1], f"scheme.dt must be positive, got {dt}")
    T = num("scheme.T", float)
    if T < 0:
        _cfg_error(take("scheme.T")[1], "scheme.T must be >= 0")

    pml_line = take("pml.type")[1] or take("pml.enabled")[1]
    try:
        pml = PmlConfig(
            enabled=_parse_bool(*take("pml.enabled", "false")) if "pml.enabled" in entries else False,
            profile=take("pml.type", "I")[0],
            sigma0=num("pml.sigma0", float, 0.0),
            theta=num("pml.theta", float, 0.0),
            fraction=num("pml.fraction", float, 0.1),
        )
    except ConfigurationError as exc:
        _cfg_error(pml_line, str(exc))

    krylov = KrylovOptions(
        tol=num("krylov.tol", float, 1e-10),
        restart=num("krylov.restart", int, 30),
        maxit=num("krylov.maxit", int, 200),
    )
    if krylov.tol <= 0 or krylov.restart < 1 or krylov.maxit < 1:
        _cfg_error(take("krylov.tol")[1], "krylov options must be positive")

    ic_kind, iline = take("ic.kind")
    if ic_kind not in IC_KINDS:
        _cfg_error(iline, f"ic.kind must be one of {IC_KINDS}")
    if ic_kind == "graphene_pair" and metric.spinor_dim != 2:
        _cfg_error(iline, "graphene_pair initial data needs metric.S = 2")
    if ic_kind == "custom" and not take("ic.path", "")[0]:
        _cfg_error(iline, "ic.kind = custom needs ic.path")

    def pair(key):
        if key not in entries:
            return (0.0,) * d
        value, line = entries[key]
        return _parse_pair(value, d, line, float)

    cfg = RunConfig(
        d=d, a=a, N=N, metric=metric, scheme=scheme, dt=dt, T=T,
        pml=pml, krylov=krylov,
        ic_kind=ic_kind,
        ic_k0=pair("ic.k0"),
        ic_beta=num("ic.beta", float, 1.0),
        ic_x0=pair("ic.x0"),
        ic_width=num("ic.width", float, 1.0),
        ic_path=take("ic.path", "")[0],
        out_dir=take("output.dir", "")[0],
        stride=num("output.stride", int, 0),
    )
    if cfg.ic_width <= 0:
        _cfg_error(take("ic.width")[1], "ic.width must be positive")
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Emit the full configuration; parse(serialize(cfg)) == cfg."""
    m = cfg.metric
    lines = [
        f"grid.d = {cfg.d}",
        f"grid.a = {','.join(repr(x) for x in cfg.a)}",
        f"grid.N = {','.join(str(x) for x in cfg.N)}",
        f"metric.kind = {m.kind}",
        f"metric.S = {m.spinor_dim}",
        f"metric.m = {m.mass!r}",
        f"metric.Phi = {m.phi}",
        f"metric.Psi = {m.psi}",
        f"metric.a0 = {m.a0!r}",
        f"metric.k0 = {m.k0!r}",
        f"metric.ell = {m.ell!r}",
        f"metric.Ax = {m.ax_pot}",
        f"metric.V = {m.v_pot}",
        f"scheme.kind = {cfg.scheme}",
        f"scheme.dt = {cfg.dt!r}",
        f"scheme.T = {cfg.T!r}",
        f"pml.enabled = {'true' if cfg.pml.enabled else 'false'}",
        f"pml.type = {cfg.pml.profile}",
        f"pml.sigma0 = {cfg.pml.sigma0!r}",
        f"pml.theta = {cfg.pml.theta!r}",
        f"pml.fraction = {cfg.pml.fraction!r}",
        f"krylov.tol = {cfg.krylov.tol!r}",
        f"krylov.restart = {cfg.krylov.restart}",
        f"krylov.maxit = {cfg.krylov.maxit}",
        f"ic.kind = {cfg.ic_kind}",
        f"ic.k0 = {','.join(repr(x) for x in cfg.ic_k0)}",
        f"ic.beta = {cfg.ic_beta!r}",
        f"ic.x0 = {','.join(repr(x) for x in cfg.ic_x0)}",
        f"ic.width = {cfg.ic_width!r}",
    ]
    if cfg.ic_path:
        lines.append(f"ic.path = {cfg.ic_path}")
    if cfg.out_dir:
        lines.append(f"output.dir = {cfg.out_dir}")
    lines.append(f"output.stride = {cfg.stride}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# fields, norms, diagnostics


def initial_condition(cfg: RunConfig, grid: Grid) -> SpinorField:
    """Sample the named initial-data family at the grid nodes."""
    S = cfg.metric.spinor_dim
    coords = grid.meshes()
    if cfg.ic_kind == "custom":
        return read_snapshot(cfg.ic_path, grid, S)
    values = np.zeros((S,) + grid.shape, dtype=np.complex128)
    centered2 = sum((c - x0) ** 2 for c, x0 in zip(coords, cfg.ic_x0))
    if cfg.ic_kind == "gaussian_wavepacket":
        phase = sum(k * c for k, c in zip(cfg.ic_k0, coords))
        values[0] = np.exp(-centered2 / (2.0 * cfg.ic_width ** 2) + 1j * phase)
        return SpinorField(values, grid)
    # graphene_pair: (1, i) beta exp(-beta x^2 / 2) / sqrt(4 pi)
    envelope = cfg.ic_beta * np.exp(-cfg.ic_beta * centered2 / 2.0) / np.sqrt(4.0 * np.pi)
    values[0] = envelope
    values[1] = 1j * envelope
    return SpinorField(values, grid)


def density(f: SpinorField) -> np.ndarray:
    """Pointwise sum of squared component moduli."""
    return np.sum(np.abs(f.values) ** 2, axis=0)


def l2_norm(f: SpinorField) -> float:
    """(h^d sum_k |psi_k|^2)^(1/2)."""
    return float(np.sqrt(f.grid.cell_volume() * np.sum(np.abs(f.values) ** 2)))


def gamma_norm(f: SpinorField, weight: np.ndarray) -> float:
    """(h^d sum_k w(x_k) |psi_k|^2)^(1/2), the covariant norm."""
    return float(np.sqrt(f.grid.cell_volume() * np.sum(weight * density(f))))


@dataclass
class DiagnosticsRecord:
    step: int
    t: float
    l2: float
    l2_gamma: float
    krylov_iters: int | None = None


@dataclass
class SimulationResult:
    final: SpinorField
    diagnostics: list
    snapshots: list


# ---------------------------------------------------------------------------
# snapshot / diagnostics files


def _fmt(x: float) -> str:
    return repr(float(x))


def _snapshot_columns(obj):
    if isinstance(obj, SpinorField):
        cols = []
        for s in range(obj.spinor_dim):
            cols.append((f"re{s}", np.real(obj.values[s])))
            cols.append((f"im{s}", np.imag(obj.values[s])))
        return obj.grid, cols
    raise TypeError("write_snapshot takes a SpinorField or (ndarray, grid)")


def write_snapshot(obj, path, grid: Grid | None = None) -> str:
    """Write a field or density to CSV (or DCRV binary above 256^2 in 2-D).

    CSV header: ``x[,y],re0,im0,re1,im1[,re2,im2,re3,im3]`` for spinor fields,
    ``x[,y],density`` for real densities; one row per node in row-major order.
    """
    if isinstance(obj, SpinorField):
        grid, cols = _snapshot_columns(obj)
    else:
        if grid is None:
            raise TypeError("writing a density needs the grid")
        arr = np.asarray(obj)
        if arr.shape != grid.shape:
            raise ConfigurationError("density shape does not match grid")
        cols = [("density", np.real(arr))]

    nodes = int(np.prod(grid.shape))
    if grid.d == 2 and nodes > BINARY_SNAPSHOT_THRESHOLD:
        return _write_snapshot_binary(cols, path, grid)

    coord_names = ["x", "y"][: grid.d]
    meshes = grid.meshes()
    header = ",".join(coord_names + [name for name, _ in cols])
    flat_coords = [np.broadcast_to(m, grid.shape).ravel() for m in meshes]
    flat_cols = [c.ravel() for _, c in cols]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for idx in range(nodes):
            row = [_fmt(c[idx]) for c in flat_coords] + [_fmt(c[idx]) for c in flat_cols]
            fh.write(",".join(row) + "\n")
    return path


def _write_snapshot_binary(cols, path, grid: Grid) -> str:
    """Length-prefixed binary: magic 'DCRV', u32 ndim, u32 dims, u32 ncols, f64 payload."""
    if not path.endswith(".dcrv"):
        path = os.path.splitext(path)[0] + ".dcrv"
    payload = np.stack([c for _, c in cols], axis=-1).astype("<f8")
    with open(path, "wb") as fh:
        fh.write(_DCRV_MAGIC)
        fh.write(struct.pack("<I", grid.d))
        for n in grid.shape:
            fh.write(struct.pack("<I", n))
        fh.write(struct.pack("<I", len(cols)))
        fh.write(payload.tobytes())
    return path


def read_snapshot(path, grid: Grid, S: int) -> SpinorField:
    """Read a spinor snapshot written by `write_snapshot` back onto a grid."""
    if path.endswith(".dcrv"):
        with open(path, "rb") as fh:
            if fh.read(4) != _DCRV_MAGIC:
                raise ConfigurationError(f"{path}: not a DCRV snapshot")
            ndim = struct.unpack("<I", fh.read(4))[0]
            dims = tuple(struct.unpack("<I", fh.read(4))[0] for _ in range(ndim))
            ncols = struct.unpack("<I", fh.read(4))[0]
            data = np.frombuffer(fh.read(), dtype="<f8").reshape(dims + (ncols,))
    else:
        raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        dims = grid.shape
        data = raw[:, grid.d:].reshape(dims + (raw.shape[1] - grid.d,))
    if data.shape[:-1] != grid.shape or data.shape[-1] != 2 * S:
        raise ConfigurationError(f"{path}: snapshot does not match grid/spinor shape")
    values = np.empty((S,) + grid.shape, dtype=np.complex128)
    for s in range(S):
        values[s] = data[..., 2 * s] + 1j * data[..., 2 * s + 1]
    return SpinorField(values, grid)


def write_diagnostics(records, path) -> str:
    """CSV with header step,t,l2,l2_gamma,krylov_iters (empty for explicit schemes)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,t,l2,l2_gamma,krylov_iters\n")
        for r in records:
            k = "" if r.krylov_iters is None else str(r.krylov_iters)
            fh.write(f"{r.step},{_fmt(r.t)},{_fmt(r.l2)},{_fmt(r.l2_gamma)},{k}\n")
    return path


# ---------------------------------------------------------------------------
# simulation driver


def run_simulation(cfg: RunConfig) -> SimulationResult:
    """Advance ceil(T/dt) Strang steps, recording diagnostics each step.

    The final step is shortened when T is not a multiple of dt.  Halts with
    SimulationError (carrying the last good step) on NaN or solver failure.
    """
    grid = cfg.grid()
    model = cfg.metric
    psi = initial_condition(cfg, grid)
    weight = gamma_weight(model, grid)

    out_dir = cfg.out_dir
    snapshots = []
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    def snap(n, f):
        if out_dir and cfg.stride > 0:
            p = write_snapshot(f, os.path.join(out_dir, f"snapshot_{n:06d}.csv"))
            snapshots.append(p)
            p = write_snapshot(density(f), os.path.join(out_dir, f"density_{n:06d}.csv"), grid)
            snapshots.append(p)

    records = [DiagnosticsRecord(0, 0.0, l2_norm(psi), gamma_norm(psi, weight))]
    snap(0, psi)

    nsteps = cfg.steps()
    ws = StepWorkspace(model, grid, cfg.dt, cfg.pml) if nsteps else None
    t = 0.0
    for n in range(1, nsteps + 1):
        active = ws
        if n == nsteps:
            rem = cfg.T - (nsteps - 1) * cfg.dt
            if abs(rem - cfg.dt) > 1e-12 * cfg.dt:
                active = StepWorkspace(model, grid, rem, cfg.pml)
        try:
            psi = strang_step(psi, cfg.scheme, active, cfg.krylov)
            l2 = l2_norm(psi)
            if not np.isfinite(l2):
                raise StepFailureError("non-finite field norm")
        except (StepFailureError, KrylovError) as exc:
            if out_dir:
                write_diagnostics(records, os.path.join(out_dir, "diagnostics.csv"))
            raise SimulationError(
                f"step {n}: {exc}", step=n - 1, diagnostics=records) from exc
        t += active.dt
        kit = active.last_krylov.iterations if active.last_krylov is not None else None
        records.append(DiagnosticsRecord(n, t, l2, gamma_norm(psi, weight), kit))
        if cfg.stride > 0 and (n % cfg.stride == 0 or n == nsteps):
            snap(n, psi)

    if out_dir:
        write_diagnostics(records, os.path.join(out_dir, "diagnostics.csv"))
    return SimulationResult(psi, records, snapshots)


# ---------------------------------------------------------------------------
# convergence driver


def convergence_sweep(cfg: RunConfig, sweep: str, values, refine: int = 2,
                      out_path: str = "", budget: int = None):
    """Error table against a refined self-reference run.

    sweep = 'h': each value is a target spacing (2a/h must be an integer);
    the reference runs the finest listed grid refined by `refine` in space at
    the SAME time step (isolating the spatial error; otherwise the run's own
    temporal error floors the table), restricted onto each coarse grid by
    index subsampling.
    sweep = 'dt': fixed grid, reference at min(values)/refine^2.

    Returns a list of (value, error) rows, optionally written as CSV
    'param,error'.
    """
    from . import oracle

    if sweep not in ("h", "dt"):
        raise ConfigurationError("sweep must be 'h' or 'dt'")
    values = list(values)
    if any(values[i] <= values[i + 1] for i in range(len(values) - 1)):
        raise ConfigurationError("sweep values must be strictly decreasing")

    def run_guarded(rcfg):
        oracle.check_budget(rcfg, budget)
        return run_simulation(rcfg)

    rows = []
    base = cfg.replace(out_dir="", stride=0)
    if sweep == "h":
        grids = []
        for h in values:
            N = tuple(int(round(2.0 * ai / h)) for ai in base.a)
            for ai, ni in zip(base.a, N):
                if abs(2.0 * ai / ni - h) > 1e-9 * h:
                    raise ConfigurationError(f"spacing {h} does not divide the domain")
            grids.append(N)
        ref = run_guarded(base.replace(N=tuple(n * refine for n in grids[-1])))
        for h, N in zip(values, grids):
            res = run_simulation(base.replace(N=N))
            coarse = res.final.grid
            diff = res.final.values - oracle.restrict_to_coarse(ref.final, coarse).values
            rows.append((h, l2_norm(SpinorField(diff, coarse))))
    else:
        ref = run_guarded(base.replace(dt=values[-1] / refine ** 2))
        for dt in values:
            res = run_simulation(base.replace(dt=dt))
            diff = res.final.values - ref.final.values
            rows.append((dt, l2_norm(SpinorField(diff, res.final.grid))))

    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write("param,error\n")
            for p, e in rows:
                fh.write(f"{_fmt(p)},{_fmt(e)}\n")
    return rows


# ---------------------------------------------------------------------------
# presets


# What the 'ci' scale changes in each paper-scale preset file.
_CI_SCALE = {
    "exp1": {"N": (512,)},
    "exp2": {"N": (512,), "T": 0.5},
    "exp3": {"N": (128, 128), "T": 1.14e-2},
    "exp4": {"N": (1000,)},
    "exp5": {},
    "exp6": {},
}
PRESET_NAMES = tuple(_CI_SCALE)


def preset_config(name: str, scale: str = "ci") -> RunConfig:
    """Named experiment configuration at 'paper' or 'ci' scale.

    The paper scale is ``presets/<name>.cfg`` as shipped; 'ci' changes only
    the grid size N and the horizon T.
    """
    if scale not in ("ci", "paper"):
        raise ConfigurationError("scale must be 'ci' or 'paper'")
    if name not in _CI_SCALE:
        raise ConfigurationError(f"unknown preset '{name}' (expected one of {PRESET_NAMES})")
    path = resources.files(__package__) / "presets" / f"{name}.cfg"
    cfg = parse_config(path.read_text(encoding="utf-8"))
    return cfg.replace(**_CI_SCALE[name]) if scale == "ci" else cfg
