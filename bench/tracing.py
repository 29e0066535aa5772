"""Outside-in layer trace: spans recorded around calls into each layer.

The solver is not changed.  While a Tracer is active it replaces names at the
module attributes through which the solver resolves them, and puts the
originals back on exit:

* ``harness``: run_simulation, initial_condition, gamma_weight,
  StepWorkspace, strang_step, l2_norm, gamma_norm, write_snapshot, as the
  globals run_simulation calls;
* ``propagators``: half_potential_step, cn_transport_step, poly_axis_step,
  poly_axis_step2, gmres and the spin kernel _spin_matmul, as the globals
  strang_step calls; the operator that cn_transport_step hands to gmres is
  wrapped on the way in, so each matvec is a span;
* ``numpy.fft``: fft and ifft.  The transport stages call numpy's FFT
  directly rather than through grid_spectral, so this is where the
  grid_spectral layer's work is seen.

A name that no longer exists is listed as absent and its layer reads zero;
the trace does not fail.  Spans are kept in memory as
``[name, parent index, start, end]`` and summarised once per run.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from curvedirac import harness, propagators

ROOT = "harness.run"
STEP = "propagators.step"
SOLVE = "krylov.solve"
MATVEC = "krylov.matvec"
KERNEL = "propagators.spin_kernel"
FFT = "grid_spectral.fft"

# (module, attribute, span name); gmres is handled by Tracer._wrap_gmres
WRAPPED = (
    (harness, "run_simulation", ROOT),
    (harness, "initial_condition", "harness.setup"),
    (harness, "gamma_weight", "harness.setup"),
    (harness, "StepWorkspace", "propagators.workspace_build"),
    (harness, "strang_step", STEP),
    (harness, "l2_norm", "harness.diagnostics"),
    (harness, "gamma_norm", "harness.diagnostics"),
    (harness, "write_snapshot", "harness.snapshot"),
    (propagators, "half_potential_step", "propagators.half_potential"),
    (propagators, "cn_transport_step", "propagators.transport"),
    (propagators, "poly_axis_step", "propagators.transport"),
    (propagators, "poly_axis_step2", "propagators.transport"),
    (propagators, "gmres", SOLVE),
    (propagators, "_spin_matmul", KERNEL),
    (np.fft, "fft", FFT),
    (np.fft, "ifft", FFT),
)


class Tracer:
    """Context manager that installs the span wrappers and removes them."""

    def __init__(self):
        self.spans = []     # [name, parent index, start, end]
        self.reports = []   # KrylovReport of each solve, in call order
        self.absent = []    # "module.attribute" names that were not found
        self._open = []
        self._originals = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        return traced

    def _wrap_gmres(self, gmres):
        def solve(apply, b, *args, **kwargs):
            x, report = gmres(self.wrap(MATVEC, apply), b, *args, **kwargs)
            self.reports.append(report)
            return x, report

        return self.wrap(SOLVE, solve)

    def __enter__(self):
        self.absent = []
        for module, attr, name in WRAPPED:
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module.__name__}.{attr}")
                continue
            self._originals.append((module, attr, original))
            wrapped = self._wrap_gmres(original) if name == SOLVE else self.wrap(name, original)
            setattr(module, attr, wrapped)
        return self

    def __exit__(self, *exc):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)
        return False

    def take(self):
        """Summarise and clear the spans recorded since the last call."""
        summary = summarize(self.spans, self.reports)
        self.spans.clear()
        self.reports.clear()
        return summary


def summarize(spans, reports):
    """Per-name totals of one traced run.

    Self time is a span's duration minus the part its child spans cover, so
    the self times of all spans add up to the root spans' durations.
    """
    child = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    total = defaultdict(float)
    self_time = defaultdict(float)
    count = Counter()
    connection = 0.0
    for i, (name, parent, start, end) in enumerate(spans):
        dur = end - start
        total[name] += dur
        self_time[name] += dur - child[i]
        count[name] += 1
        if name == KERNEL and parent >= 0 and spans[parent][0] == STEP:
            connection += dur
    return {
        "total": dict(total),
        "self": dict(self_time),
        "count": dict(count),
        "connection": connection,
        "iterations": sum(r.iterations for r in reports),
        "residual": max((r.residual for r in reports), default=0.0),
    }


def layer_metrics(s):
    """Per-layer figures of one traced run summary ``s``; times in ms."""
    total, self_time, count = s["total"], s["self"], s["count"]
    steps = count.get(STEP, 0) or 1
    solves = count.get(SOLVE, 0)
    per_solve = 1.0 / solves if solves else 0.0
    root = total.get(ROOT, 0.0) or 1.0

    def ms(name, table=total, per=1.0 / steps):
        return 1e3 * table.get(name, 0.0) * per

    matvecs = count.get(MATVEC, 0)
    return {
        "grid_spectral.fft_pairs_per_step": count.get(FFT, 0) / 2 / steps,
        "grid_spectral.fft_share": self_time.get(FFT, 0.0) / root,
        "krylov.solve_ms": ms(SOLVE, per=per_solve),
        "krylov.iters_per_solve": s["iterations"] * per_solve,
        "krylov.matvecs_per_solve": matvecs * per_solve,
        "krylov.matvec_overhead_per_solve": (matvecs - s["iterations"]) * per_solve,
        "krylov.matvec_ms": ms(MATVEC, per=1.0 / matvecs if matvecs else 0.0),
        "krylov.self_ms": ms(SOLVE, self_time, per_solve),
        "krylov.self_share": self_time.get(SOLVE, 0.0) / root,
        "krylov.residual": s["residual"],
        "propagators.step_ms": ms(STEP),
        "propagators.half_potential_ms": ms("propagators.half_potential"),
        "propagators.transport_ms": ms("propagators.transport"),
        "propagators.connection_ms": 1e3 * s["connection"] / steps,
        "propagators.step_self_ms": ms(STEP, self_time),
        "propagators.spin_kernel_ms": ms(KERNEL),
        "propagators.spin_kernel_share": self_time.get(KERNEL, 0.0) / root,
        "propagators.workspace_build_ms": ms(
            "propagators.workspace_build",
            per=1.0 / max(count.get("propagators.workspace_build", 0), 1)),
        "harness.setup_ms": ms("harness.setup", per=1.0),
        "harness.snapshot_ms": ms("harness.snapshot", per=1.0),
        "harness.snapshot_share": self_time.get("harness.snapshot", 0.0) / root,
        "harness.diagnostics_ms": ms("harness.diagnostics"),
        "harness.loop_self_ms": ms(ROOT, self_time, 1.0),
    }


# every span name once, in the order of WRAPPED
SELF_LAYERS = tuple(dict.fromkeys([name for _, _, name in WRAPPED] + [MATVEC]))


def self_time_table(s):
    """(layer, self ms per run, share of the run) rows; shares add up to 1."""
    root = s["total"].get(ROOT, 0.0) or 1.0
    return [(name, 1e3 * s["self"].get(name, 0.0), s["self"].get(name, 0.0) / root)
            for name in SELF_LAYERS]
