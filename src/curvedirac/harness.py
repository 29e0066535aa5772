"""Run configurations, experiment presets, diagnostics and batch drivers.

A run is described by a RunConfig, which round-trips losslessly through the
line-based ``section.key = value`` text format (see `parse_config` /
`serialize_config`, both driven by one key table).  RunConfig and the
dataclasses it holds own every default and every check, so a config built in
Python is checked the same way as a parsed one.  `run_simulation` advances the
configured scheme over the horizon, recording per-step norms (the plain l2
norm and the covariant weighted norm) and optionally writing spinor
snapshots, which hold the carrier density exactly: ``density(read_snapshot(
path, grid, S))``.  Every failure inside a step (a stalled or non-finite
transport solve, a non-finite field norm, a covariant norm grown past
GROWTH_BOUND times its start) ends the run as a SimulationError, with the
diagnostics file written first when the run has an output directory.

Six presets named exp1..exp6 ship with the package as ``presets/<name>.cfg``:
two 1-D static-metric benchmarks, a 2-D static-metric wavepacket, two
rippled-graphene runs with external potentials, and a graphene run with an
absorbing layer.  The files hold the 'paper' scale; the cheaper 'ci' scale
changes only the grid size N and the horizon T.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import os
import re
import struct
from dataclasses import dataclass
from importlib import resources
from itertools import chain, repeat

import numpy as np

from .errors import ConfigurationError, KrylovError, SimulationError, StepFailureError
from .geometry import MetricModel, gamma_weight, parse_form
from .grid_spectral import Grid, SpinorField, grid_axes, per_axis, slabs
from .krylov import KrylovOptions
from .pml import PmlConfig
from .propagators import SCHEMES, StepWorkspace, strang_step

IC_KINDS = ("gaussian_wavepacket", "graphene_pair", "custom")
BINARY_SNAPSHOT_THRESHOLD = 256 * 256  # 2-D fields above this go to .dcrv
_SLAB_NODES = 4096  # nodes a CSV snapshot formats and writes at a time
_DCRV_MAGIC = b"DCRV"
# run_simulation halts once l2_gamma exceeds this multiple of its step-0
# value.  The tests, demos and benchmark workloads keep it within 4e-9 of its
# start; an unstable run passes the bound long before its norm overflows.
GROWTH_BOUND = 10.0


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
        d, a, N = grid_axes(self.d, self.a, self.N)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "ic_k0", per_axis(self.ic_k0, self.d, float, "ic_k0"))
        object.__setattr__(self, "ic_x0", per_axis(self.ic_x0, self.d, float, "ic_x0"))
        dim = self.metric.dimension
        if dim is not None and dim != self.d:
            raise ConfigurationError(f"metric kind '{self.metric.kind}' needs grid.d = {dim}", "d")
        if self.scheme not in SCHEMES:
            raise ConfigurationError(
                f"scheme.kind must be one of {SCHEMES}, got '{self.scheme}'", "scheme")
        if not 0 < self.dt < math.inf:
            raise ConfigurationError(f"scheme.dt must be positive and finite, got {self.dt}", "dt")
        if not 0 <= self.T < math.inf:
            raise ConfigurationError(f"scheme.T must be >= 0 and finite, got {self.T}", "T")
        if self.ic_kind not in IC_KINDS:
            raise ConfigurationError(
                f"ic.kind must be one of {IC_KINDS}, got '{self.ic_kind}'", "ic_kind")
        if self.ic_kind == "graphene_pair" and self.metric.spinor_dim != 2:
            raise ConfigurationError("graphene_pair initial data needs metric.S = 2", "ic_kind")
        if self.ic_kind == "custom" and not self.ic_path:
            raise ConfigurationError("ic.kind = custom needs ic.path", "ic_kind")
        for key, value in (("ic_width", self.ic_width), ("ic_beta", self.ic_beta)):
            if not 0 < value < math.inf:
                raise ConfigurationError(
                    f"{key.replace('_', '.')} must be positive and finite, got {value}", key)
        for key in ("ic_k0", "ic_x0"):
            if not all(map(math.isfinite, getattr(self, key))):
                raise ConfigurationError(
                    f"{key.replace('_', '.')} must be finite, got {getattr(self, key)}", key)
        if self.stride < 0:
            raise ConfigurationError(f"output.stride must be >= 0, got {self.stride}", "stride")

    def grid(self) -> Grid:
        return Grid(self.d, self.a, self.N)

    def steps(self) -> int:
        if self.T <= 0:
            return 0
        return int(math.ceil(self.T / self.dt - 1e-9))

    def replace(self, **kw) -> "RunConfig":
        return dataclasses.replace(self, **kw)


def _parse_bool(text):
    t = text.lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ValueError("expected a boolean")


def _values(conv):
    return lambda text: tuple(conv(t) for t in text.split(","))


def _fmt(x: float) -> str:
    """Shortest round-trip decimal, also for numpy scalars."""
    return repr(float(x))


# (text -> value, value -> text) pairs for the schema below
_INT = (int, str)
_FLOAT = (float, _fmt)
_TEXT = (str, str)
_FORM = (parse_form, str)
_BOOL = (_parse_bool, lambda v: "true" if v else "false")
_FLOATS = (_values(float), lambda v: ",".join(map(_fmt, v)))
_INTS = (_values(int), lambda v: ",".join(map(str, v)))

# The config file's schema: one row per key, in file order, naming the
# dataclass and the field that hold its value.  Absent keys take the
# dataclass default; required keys have none (ic.kind keeps the file explicit).
_SCHEMA = (
    # key, owner, field, codec, required
    ("grid.d", RunConfig, "d", _INT, True),
    ("grid.a", RunConfig, "a", _FLOATS, True),
    ("grid.N", RunConfig, "N", _INTS, True),
    ("metric.kind", MetricModel, "kind", _TEXT, True),
    ("metric.S", MetricModel, "spinor_dim", _INT, False),
    ("metric.m", MetricModel, "mass", _FLOAT, False),
    ("metric.Phi", MetricModel, "phi", _FORM, False),
    ("metric.Psi", MetricModel, "psi", _FORM, False),
    ("metric.a0", MetricModel, "a0", _FLOAT, False),
    ("metric.k0", MetricModel, "k0", _FLOAT, False),
    ("metric.ell", MetricModel, "ell", _FLOAT, False),
    ("metric.Ax", MetricModel, "ax_pot", _FORM, False),
    ("metric.V", MetricModel, "v_pot", _FORM, False),
    ("scheme.kind", RunConfig, "scheme", _TEXT, True),
    ("scheme.dt", RunConfig, "dt", _FLOAT, True),
    ("scheme.T", RunConfig, "T", _FLOAT, True),
    ("pml.enabled", PmlConfig, "enabled", _BOOL, False),
    ("pml.type", PmlConfig, "profile", _TEXT, False),
    ("pml.sigma0", PmlConfig, "sigma0", _FLOAT, False),
    ("pml.theta", PmlConfig, "theta", _FLOAT, False),
    ("pml.fraction", PmlConfig, "fraction", _FLOAT, False),
    ("krylov.tol", KrylovOptions, "tol", _FLOAT, False),
    ("krylov.restart", KrylovOptions, "restart", _INT, False),
    ("krylov.maxit", KrylovOptions, "maxit", _INT, False),
    ("ic.kind", RunConfig, "ic_kind", _TEXT, True),
    ("ic.k0", RunConfig, "ic_k0", _FLOATS, False),
    ("ic.beta", RunConfig, "ic_beta", _FLOAT, False),
    ("ic.x0", RunConfig, "ic_x0", _FLOATS, False),
    ("ic.width", RunConfig, "ic_width", _FLOAT, False),
    ("ic.path", RunConfig, "ic_path", _TEXT, False),
    ("output.dir", RunConfig, "out_dir", _TEXT, False),
    ("output.stride", RunConfig, "stride", _INT, False),
)
# the RunConfig fields that hold the other owners
_PARTS = {"metric": MetricModel, "pml": PmlConfig, "krylov": KrylovOptions}
_KEYS = {row[0]: row for row in _SCHEMA}


def _cfg_error(line, msg, field=None):
    return ConfigurationError(f"line {line}: {msg}", field)


def _build(owner, kwargs, lines):
    """owner(**kwargs), its check failures prefixed with the offending line."""
    try:
        return owner(**kwargs)
    except ConfigurationError as exc:
        line = lines.get((owner, exc.field))
        if line is None:
            raise
        raise _cfg_error(line, exc, exc.field) from None


# '#' starts a comment at the start of a line or after whitespace, so a value
# such as a path may hold '#'
_COMMENT = re.compile(r"(?:^|\s)#")


def parse_config(text: str) -> RunConfig:
    """Parse the line-based config format; unknown keys are hard errors."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _cfg_error(lineno, f"expected 'section.key = value', got '{raw.strip()}'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise _cfg_error(lineno, f"unknown key '{key}'")
        if key in entries:
            raise _cfg_error(lineno, f"duplicate key '{key}'")
        entries[key] = (value, lineno)

    for key, *_, required in _SCHEMA:
        if required and key not in entries:
            raise ConfigurationError(f"missing required key {key}")

    kwargs = {owner: {} for owner in (RunConfig, *_PARTS.values())}
    lines = {}
    for key, (value, lineno) in entries.items():
        _, owner, field, (parse, _), _ = _KEYS[key]
        try:
            kwargs[owner][field] = parse(value)
        except ValueError as exc:
            raise _cfg_error(lineno, f"could not parse '{value}' for {key} ({exc})") from None
        lines[owner, field] = lineno
    parts = {name: _build(owner, kwargs[owner], lines) for name, owner in _PARTS.items()}
    return _build(RunConfig, {**kwargs[RunConfig], **parts}, lines)


def serialize_config(cfg: RunConfig) -> str:
    """Emit the full configuration; parse(serialize(cfg)) == cfg."""
    holders = {RunConfig: cfg, **{owner: getattr(cfg, name) for name, owner in _PARTS.items()}}
    lines = []
    for key, owner, field, (_, show), _ in _SCHEMA:
        text = show(getattr(holders[owner], field))
        if _COMMENT.search(text):
            raise ConfigurationError(f"{key} value '{text}' would read back cut at its comment", field)
        if text:  # an empty ic.path or output.dir is left out
            lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# fields, norms, diagnostics


def initial_condition(cfg: RunConfig, grid: Grid) -> SpinorField:
    """Sample the named initial-data family at the grid nodes.  Both built-in
    families are products of per-axis factors, so a 2-D field is sampled per
    axis and written as one outer product, with no full-grid mesh."""
    S = cfg.metric.spinor_dim
    if cfg.ic_kind == "custom":
        return read_snapshot(cfg.ic_path, grid, S)
    values = np.zeros((S,) + grid.shape, dtype=np.complex128)
    centered2 = [(x - x0) ** 2 for x, x0 in zip(grid.axes, cfg.ic_x0)]
    if cfg.ic_kind == "gaussian_wavepacket":
        factors = [np.exp(-c2 / (2.0 * cfg.ic_width ** 2) + 1j * (k * x))
                   for c2, k, x in zip(centered2, cfg.ic_k0, grid.axes)]
    else:
        # graphene_pair: (1, i) beta exp(-beta x^2 / 2) / sqrt(4 pi)
        factors = [np.exp(-cfg.ic_beta * c2 / 2.0) for c2 in centered2]
        factors[0] = cfg.ic_beta * factors[0] / np.sqrt(4.0 * np.pi)
    if grid.d == 1:
        values[0] = factors[0]
    else:
        np.multiply.outer(*factors, out=values[0])
    if cfg.ic_kind == "graphene_pair":
        np.multiply(values[0], 1j, out=values[1])
    return SpinorField(values, grid)


def density(f: SpinorField) -> np.ndarray:
    """Pointwise sum of squared component moduli, re^2 + im^2 summed over
    the spin axis a slab at a time from one reading of the field's float64
    view."""
    values = np.ascontiguousarray(f.values)
    parts = values.view(np.float64).reshape(values.shape + (2,))
    dens = np.empty(f.grid.shape)
    for rows, _ in slabs(f.grid.shape, 0):
        sq = np.einsum("k...,k...->...", parts[:, rows], parts[:, rows])
        np.add(sq[..., 0], sq[..., 1], out=dens[rows])
    return dens


def l2_norm(f: SpinorField) -> float:
    """(h^d sum_k |psi_k|^2)^(1/2)."""
    return float(np.sqrt(f.grid.cell_volume() * np.vdot(f.values, f.values).real))


def gamma_norm(f: SpinorField, weight: np.ndarray) -> float:
    """(h^d sum_k w(x_k) |psi_k|^2)^(1/2), the covariant norm: one dot
    product of the weight with the `density`."""
    return float(np.sqrt(f.grid.cell_volume() * np.dot(weight.ravel(), density(f).ravel())))


@dataclass
class DiagnosticsRecord:
    step: int
    t: float
    l2: float
    l2_gamma: float
    krylov_iters: int | None = None
    krylov_residual: float | None = None
    krylov_products: int | None = None


@dataclass
class SimulationResult:
    final: SpinorField
    diagnostics: list
    snapshots: list


# ---------------------------------------------------------------------------
# snapshot / diagnostics files


def write_snapshot(f: SpinorField, path) -> str:
    """Write a spinor field to CSV (or DCRV binary above 256^2 in 2-D).

    CSV header: ``x[,y],re0,im0,re1,im1[,re2,im2,re3,im3]``; one row per node
    in row-major order, streamed in slabs of about 4096 nodes.
    """
    grid, cols = f.grid, []
    for s in range(f.spinor_dim):
        cols.append((f"re{s}", np.real(f.values[s])))
        cols.append((f"im{s}", np.imag(f.values[s])))

    nodes = int(np.prod(grid.shape))
    if grid.d == 2 and nodes > BINARY_SNAPSHOT_THRESHOLD:
        return _write_snapshot_binary(cols, path, grid)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_csv_header(grid.d, [name for name, _ in cols]) + "\n")
        fh.writelines(_csv_slabs(grid, [c for _, c in cols]))
    return path


def _csv_header(d, names) -> str:
    return ",".join(["x", "y"][:d] + list(names))


def _csv_slabs(grid: Grid, cols):
    """CSV rows in slabs of leading-axis rows, about _SLAB_NODES nodes each.

    Each value is formatted once (``repr`` of a Python float is `_fmt`) and
    each axis's coordinates once per file.  A memoryview hands the values to
    ``repr`` one Python float at a time, so a slab's floats are never all
    boxed at once.
    """
    axes = [list(map(repr, ax.tolist())) for ax in grid.axes]
    inner = grid.N[1] if grid.d == 2 else 1
    rows = max(1, _SLAB_NODES // inner)
    for i in range(0, grid.N[0], rows):
        lead = axes[0][i:i + rows]
        if grid.d == 1:
            coords = (lead,)
        else:  # row-major ('ij'): each x repeats over all of y
            coords = (chain.from_iterable(repeat(x, inner) for x in lead),
                      chain.from_iterable(repeat(axes[1], len(lead))))
        vals = (map(repr, memoryview(c[i:i + rows].ravel())) for c in cols)
        yield "\n".join(map(",".join, zip(*coords, *vals))) + "\n"


def _write_snapshot_binary(cols, path, grid: Grid) -> str:
    """Length-prefixed binary: magic 'DCRV', u32 ndim, u32 dims, u32 ncols, f64 payload."""
    if not path.endswith(".dcrv"):
        path = os.path.splitext(path)[0] + ".dcrv"
    payload = np.stack([c for _, c in cols], axis=-1, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_DCRV_MAGIC)
        fh.write(struct.pack("<I", grid.d))
        for n in grid.shape:
            fh.write(struct.pack("<I", n))
        fh.write(struct.pack("<I", len(cols)))
        fh.write(payload)
    return path


def read_snapshot(path, grid: Grid, S: int) -> SpinorField:
    """Read a spinor snapshot written by `write_snapshot` back onto a grid; a
    file cut short, ragged or not numeric raises ConfigurationError."""
    if path.endswith(".dcrv"):
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[:4] != _DCRV_MAGIC:
            raise ConfigurationError(f"{path}: not a DCRV snapshot")
        try:  # u32 ndim, then ndim dims and ncols, then the payload
            (ndim,) = struct.unpack_from("<I", blob, 4)
            *dims, ncols = struct.unpack_from(f"<{ndim + 1}I", blob, 8)
            data = np.frombuffer(blob, "<f8", offset=12 + 4 * ndim).reshape((*dims, ncols))
        except (struct.error, ValueError) as exc:
            raise ConfigurationError(f"{path}: broken DCRV snapshot ({exc})") from None
    else:
        data = _read_snapshot_csv(path, grid, S)
    if data.shape[:-1] != grid.shape or data.shape[-1] != 2 * S:
        raise ConfigurationError(f"{path}: snapshot does not match grid/spinor shape")
    values = np.empty((S,) + grid.shape, dtype=np.complex128)
    for s in range(S):
        values[s] = data[..., 2 * s] + 1j * data[..., 2 * s + 1]
    return SpinorField(values, grid)


def _read_snapshot_csv(path, grid: Grid, S: int) -> np.ndarray:
    """The value columns of a CSV snapshot, shape grid.shape + (2S,), after
    checking its header, its table and that its coordinates are the grid's nodes."""
    want = _csv_header(grid.d, [f"{p}{s}" for s in range(S) for p in ("re", "im")])
    # utf-8-sig drops the byte-order mark that spreadsheet "CSV UTF-8"
    # exports put in front of the header
    with open(path, encoding="utf-8-sig", errors="replace") as fh:
        header = fh.readline().rstrip("\n")
    if header != want:
        raise ConfigurationError(f"{path}: header '{header}' is not '{want}'")
    try:
        raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ConfigurationError(f"{path}: not a table of numbers ({exc})") from None
    want = (int(np.prod(grid.shape)), grid.d + 2 * S)
    if raw.shape != want:
        raise ConfigurationError(f"{path}: {raw.shape} table, the grid needs {want}")
    for i, mesh in enumerate(grid.meshes()):
        if not np.all(np.abs(raw[:, i] - mesh.ravel()) <= 1e-9 * grid.h[i]):
            raise ConfigurationError(
                f"{path}: column {'xy'[i]} does not hold the grid's nodes on axis {i}")
    return raw[:, grid.d:].reshape(grid.shape + (2 * S,))


def diagnostics_csv(records) -> str:
    """Header step,t,l2,l2_gamma,krylov_iters,krylov_residual,krylov_products
    (the Krylov columns empty for poly1), a row a record."""
    lines = ["step,t,l2,l2_gamma,krylov_iters,krylov_residual,krylov_products\n"]
    for r in records:
        k = "" if r.krylov_iters is None else str(r.krylov_iters)
        res = "" if r.krylov_residual is None else _fmt(r.krylov_residual)
        p = "" if r.krylov_products is None else str(r.krylov_products)
        lines.append(f"{r.step},{_fmt(r.t)},{_fmt(r.l2)},{_fmt(r.l2_gamma)},{k},{res},{p}\n")
    return "".join(lines)


def sweep_csv(rows) -> str:
    """Header param,error, a row per swept value."""
    return "param,error\n" + "".join(f"{_fmt(p)},{_fmt(e)}\n" for p, e in rows)


def write_diagnostics(records, path) -> str:
    """Write the diagnostics CSV (see `diagnostics_csv`)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(diagnostics_csv(records))
    return path


# ---------------------------------------------------------------------------
# simulation driver


def run_simulation(cfg: RunConfig) -> SimulationResult:
    """Advance ceil(T/dt) Strang steps, recording diagnostics each step.

    The final step is shortened when T is not a multiple of dt, through
    `StepWorkspace.with_step`, so a run samples the metric once.  The
    workspace is built before the step-0 record: a non-finite coefficient
    raises GeometryError before any file is written.  With an
    output directory and stride > 0 it writes the spinor field alone,
    ``snapshot_<n>.csv`` (or ``.dcrv``, see `write_snapshot`), at step 0,
    every stride steps and the last step.  Halts with SimulationError
    (carrying the last good step) on a non-finite initial field before step
    1, on NaN or solver failure during a step, and when l2_gamma exceeds
    GROWTH_BOUND times its step-0 value; the message of a failed step names
    the step, its time t and the last good step's t, l2 and l2_gamma.  The
    diagnostics file, when there is an output directory, is written before
    it raises.
    """
    grid = cfg.grid()
    model = cfg.metric
    psi = initial_condition(cfg, grid)
    weight = gamma_weight(model, grid)
    nsteps = cfg.steps()
    ws = StepWorkspace(model, grid, cfg.dt, cfg.pml) if nsteps else None

    out_dir = cfg.out_dir
    snapshots = []
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    def snap(n, f):
        if out_dir and cfg.stride > 0:
            snapshots.append(write_snapshot(f, os.path.join(out_dir, f"snapshot_{n:06d}.csv")))

    def halt(message, dt=None, cause=None):
        # a failed step of size dt also names its time and the last good norms
        last = records[-1]
        if dt is not None:
            message += (f" at t = {last.t + dt:.9g}; last good: step {last.step}, "
                        f"t = {last.t:.9g}, l2 = {last.l2:.9e}, l2_gamma = {last.l2_gamma:.9e}")
        if out_dir:
            write_diagnostics(records, os.path.join(out_dir, "diagnostics.csv"))
        raise SimulationError(message, step=last.step, diagnostics=records) from cause

    records = [DiagnosticsRecord(0, 0.0, l2_norm(psi), gamma_norm(psi, weight))]
    if not np.isfinite(records[0].l2):
        halt("step 0: initial field is not finite")
    snap(0, psi)

    t = 0.0
    for n in range(1, nsteps + 1):
        active = ws
        if n == nsteps:
            rem = cfg.T - (nsteps - 1) * cfg.dt
            if abs(rem - cfg.dt) > 1e-12 * cfg.dt:
                active = ws.with_step(rem)
        try:
            psi = strang_step(psi, cfg.scheme, active, cfg.krylov)
            l2 = l2_norm(psi)
            if not np.isfinite(l2):
                raise StepFailureError("non-finite field norm")
        except (StepFailureError, KrylovError) as exc:
            halt(f"step {n}: {exc}", active.dt, exc)
        gamma = gamma_norm(psi, weight)
        if gamma > GROWTH_BOUND * records[0].l2_gamma:
            halt(f"step {n}: l2_gamma grew to {gamma / records[0].l2_gamma:.3g} times its "
                 f"step-0 value (bound {GROWTH_BOUND:g})", active.dt)
        t += active.dt
        report = active.last_krylov
        counts = ((report.iterations, report.residual, report.products)
                  if report is not None else (None, None, None))
        records.append(DiagnosticsRecord(n, t, l2, gamma, *counts))
        if cfg.stride > 0 and (n % cfg.stride == 0 or n == nsteps):
            snap(n, psi)

    if out_dir:
        write_diagnostics(records, os.path.join(out_dir, "diagnostics.csv"))
    return SimulationResult(psi, records, snapshots)


# ---------------------------------------------------------------------------
# convergence driver


def restrict_to_coarse(fine: SpinorField, coarse_grid: Grid) -> SpinorField:
    """Index-subsample a nested fine-grid field onto the coarse grid."""
    for i in range(coarse_grid.d):
        if fine.grid.N[i] % coarse_grid.N[i] != 0 or fine.grid.a[i] != coarse_grid.a[i]:
            raise ValueError("grids do not nest; restriction must be loss-free")
    steps = tuple(fine.grid.N[i] // coarse_grid.N[i] for i in range(coarse_grid.d))
    sl = (slice(None),) + tuple(slice(None, None, s) for s in steps)
    return SpinorField(fine.values[sl].copy(), coarse_grid)


def convergence_sweep(cfg: RunConfig, sweep: str, values, refine: int = 2,
                      out_path: str = ""):
    """Error table against a refined self-reference run.

    sweep = 'h': each value is a target spacing (2a/h must be an integer,
    and each grid must divide the reference grid, checked before any run);
    the reference runs the finest listed grid refined by `refine` in space at
    the SAME time step (isolating the spatial error; otherwise the run's own
    temporal error floors the table), restricted onto each coarse grid by
    index subsampling.
    sweep = 'dt': fixed grid, reference at min(values)/refine^2.
    ``refine`` is a whole number >= 1.  The reference and every swept
    configuration are built, and so checked, before any run.

    Returns a list of (value, error) rows, optionally written as CSV
    'param,error'.
    """
    if sweep not in ("h", "dt"):
        raise ConfigurationError("sweep must be 'h' or 'dt'")
    if isinstance(refine, bool) or not isinstance(refine, numbers.Integral) or refine < 1:
        raise ConfigurationError(f"refine must be a whole number >= 1, got {refine!r}")
    values = list(values)
    if not all(0 < v < math.inf for v in values):
        raise ConfigurationError(f"sweep values must be positive and finite, got {values}")
    if any(values[i] <= values[i + 1] for i in range(len(values) - 1)):
        raise ConfigurationError("sweep values must be strictly decreasing")

    base = cfg.replace(out_dir="", stride=0)
    if sweep == "h":
        grids = []
        for h in values:
            N = tuple(int(round(2.0 * ai / h)) for ai in base.a)
            for ai, ni in zip(base.a, N):
                if abs(2.0 * ai / ni - h) > 1e-9 * h:
                    raise ConfigurationError(f"spacing {h} does not divide the domain")
            grids.append(N)
        ref_N = tuple(n * refine for n in grids[-1])
        for h, N in zip(values, grids):
            if any(r % n for r, n in zip(ref_N, N)):
                raise ConfigurationError(
                    f"spacing {h} (N = {N}) does not nest in the reference grid N = {ref_N}")
        ref_cfg = base.replace(N=ref_N)
        cfgs = [base.replace(N=N) for N in grids]
    else:
        ref_cfg = base.replace(dt=values[-1] / refine ** 2)
        cfgs = [base.replace(dt=dt) for dt in values]

    ref = run_simulation(ref_cfg)
    rows = []
    for value, rcfg in zip(values, cfgs):
        res = run_simulation(rcfg)
        coarse = res.final.grid
        diff = res.final.values - restrict_to_coarse(ref.final, coarse).values
        rows.append((value, l2_norm(SpinorField(diff, coarse))))

    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(sweep_csv(rows))
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
