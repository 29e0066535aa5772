"""curvedirac benchmark: time to solution on four preset workloads, with an
accuracy gate beside every timing and an optional outside-in layer trace.

Usage, from the repository root:

    python3 bench/run.py                          # all four, each in a process of its own
    python3 bench/run.py --workload exp5-krylov --seed 3 --seconds 30
    python3 bench/run.py --workload exp1-fft --trace 1   # per-layer table

The solver is imported from ``src/`` of the same checkout; nothing is built or
installed.  BLAS is pinned to one thread before numpy is imported.  Times are
CPU seconds, scaled by the host's speed as a numpy reference measures it in
the same window (bench/reference.py).  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, process_time

# numpy and the solver are imported inside functions, after pin_blas has set
# the thread variables that numpy reads when it is first imported.
ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1        # at most nproc; one thread keeps reductions, and so counts, in order
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_RUNS = 3            # rounds of runs, however short --seconds is
SETUP_SHARE = 0.1       # of the end-to-end window, for set-up builds timed between runs
REFERENCE_RATIO = 0.5   # CPU time of the speed reference per CPU second of the solver's own
SAMPLE_S = 0.05         # each set-up sample times enough builds to take about this long
INTERLEAVE_AT = ("strang_step", "write_snapshot")   # harness globals the reference follows
TRACE_SHARE = 0.9       # of --seconds, for alternating untraced and traced runs
FFT_SIZES = (18027, 18432, 20001)
FFT_MIN_SECONDS = 0.15  # per axis, at least five pairs
SPINOR_DIM = 2          # every workload and FFT row uses 2-component spinors


def load_spec():
    """Metric units by name and workload descriptions, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}
    return units, {w["name"]: w["why"] for w in spec["workloads"]}


def pin_blas():
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_solver():
    """Import curvedirac from this checkout's src/, or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import curvedirac
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import curvedirac from {src}: {exc}")
    if src not in Path(curvedirac.__file__).resolve().parents:
        raise SystemExit(f"bench: curvedirac was imported from {curvedirac.__file__}, not {src}")


def tail(times):
    """Highest percentile with at least ten runs beyond it, as (label, value)."""
    n = len(times)
    if n < 20:
        return f"max of {n}", max(times)
    p = int(100 * (1 - 10 / n))
    return f"p{p} of {n}", statistics.quantiles(times, n=100)[p - 1]


class Runner:
    """Runs one workload and gates every result."""

    def __init__(self, workload, cfg, scratch):
        self.workload = workload
        self.cfg = cfg
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0

    def run(self, probe=None):
        """One gated run_simulation, inside `probe` when one is given.

        Returns its wall and CPU seconds, whether it passed, and, when probed
        and passed, (probe.take(), snapshot MB written).
        """
        from curvedirac import harness

        cfg = self.cfg
        if self.workload.snapshots:
            cfg = cfg.replace(out_dir=tempfile.mkdtemp(dir=self.scratch))
        self.attempted += 1
        reason, probed = None, None
        start, cpu_start = perf_counter(), process_time()
        try:
            with probe or nullcontext():
                result = harness.run_simulation(cfg)
        except Exception:  # a run that raises is counted, and the rest go on
            reason = traceback.format_exc()
        wall, cpu = perf_counter() - start, process_time() - cpu_start
        if reason is None:
            try:
                reason = self.workload.gate(cfg, result)
            except Exception:
                reason = traceback.format_exc()
        if probe is not None:
            summary = probe.take()
            if reason is None:
                probed = (summary, sum(os.path.getsize(p) for p in result.snapshots) / 1e6)
        if cfg.out_dir:
            shutil.rmtree(cfg.out_dir)
        if reason is not None:
            self.failed += 1
            print(f"# run {self.attempted} failed: {reason}", file=sys.stderr)
        return wall, cpu, reason is None, probed

    def check_oracle(self):
        """Dense-oracle agreement of one cn step; 2000 unknowns fit the oracle's guard."""
        from workloads import oracle_gate, oracle_step

        self.attempted += 1
        try:
            reason = oracle_gate(*oracle_step(self.cfg))
        except Exception:
            reason = traceback.format_exc()
        if reason is not None:
            self.failed += 1
            print(f"# oracle check failed: {reason}", file=sys.stderr)


class Interleaver:
    """Runs the speed reference between the solver's steps and snapshot
    writes, timed apart from them, so that both see the same stretches of
    the host's speed.

    While active it wraps the INTERLEAVE_AT names at harness's module
    attributes, through which run_simulation resolves them.  After each call,
    and on exit, it runs the reference until its CPU time is REFERENCE_RATIO
    of the solver's own since entry.  A name that has gone is skipped; the
    exit then still runs the reference, after the run instead of inside it.
    """

    def __init__(self, reference):
        self.reference = reference
        self.cpu = 0.0      # reference CPU seconds since entry
        self.calls = 0
        self._start = 0.0
        self._originals = []

    def _catch_up(self):
        own = process_time() - self._start - self.cpu
        while self.cpu < REFERENCE_RATIO * own:
            start = process_time()
            self.reference()
            self.cpu += process_time() - start
            self.calls += 1

    def _wrap(self, fn):
        def interleaved(*args, **kwargs):
            out = fn(*args, **kwargs)
            self._catch_up()
            return out

        return interleaved

    def __enter__(self):
        from curvedirac import harness

        for attr in INTERLEAVE_AT:
            original = getattr(harness, attr, None)
            if original is not None:
                self._originals.append((harness, attr, original))
                setattr(harness, attr, self._wrap(original))
        self.cpu, self.calls, self._start = 0.0, 0, process_time()
        return self

    def __exit__(self, *exc):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)
        self._catch_up()
        return False

    def take(self):
        """(reference CPU seconds, reference calls) of the last run."""
        return self.cpu, self.calls


class Sampler:
    """CPU seconds per call of `fn`, in samples of about SAMPLE_S each."""

    def __init__(self, fn):
        self.fn = fn
        self.times = []     # CPU seconds per call, one entry per sample
        self.batch = None   # calls per sample, sized by one untimed call

    def run_for(self, seconds):
        """Take samples for about `seconds` of wall time, and at least one."""
        if self.batch is None:
            start = process_time()
            self.fn()
            self.batch = max(1, round(SAMPLE_S / max(process_time() - start, 1e-6)))
        stop = perf_counter() + seconds
        while True:
            start = process_time()
            for _ in range(self.batch):
                self.fn()
            self.times.append((process_time() - start) / self.batch)
            if perf_counter() > stop:
                return


def fft_pair_ms(shape):
    """Median ms of forward_dft_axis then inverse_dft_axis, averaged over axes."""
    import numpy as np
    from curvedirac.grid_spectral import SpinorField, forward_dft_axis, inverse_dft_axis, make_grid

    grid = make_grid(len(shape), 5.0, shape)
    rng = np.random.default_rng(0)
    size = (SPINOR_DIM,) + tuple(shape)
    f = SpinorField(rng.standard_normal(size) + 1j * rng.standard_normal(size), grid)
    per_axis = []
    for axis in range(grid.d):
        samples = []
        stop = perf_counter() + FFT_MIN_SECONDS
        while len(samples) < 5 or perf_counter() < stop:
            start = perf_counter()
            inverse_dft_axis(forward_dft_axis(f, axis), axis)
            samples.append(perf_counter() - start)
        per_axis.append(statistics.median(samples))
    return 1e3 * sum(per_axis) / len(per_axis)


def fft_size_rows():
    """Measured pair time at the paper's sizes, with computed flop and bytes."""
    rows = {}
    for n in FFT_SIZES:
        # two transforms, each over SPINOR_DIM components, 5 N log2 N flop apiece;
        # each transform reads and writes the complex128 field once
        rows[f"grid_spectral.fft_pair_ms.n{n}"] = fft_pair_ms((n,))
        rows[f"grid_spectral.fft_pair_flop_computed.n{n}"] = 2 * SPINOR_DIM * 5 * n * math.log2(n)
        rows[f"grid_spectral.fft_pair_bytes_computed.n{n}"] = 2 * 2 * 16 * SPINOR_DIM * n
    return rows


def measure(seconds, *passes):
    """Call each pass in turn, round after round, for about `seconds`.

    A pass returns (seconds, passed).  Returns per pass the seconds of its
    passing runs, or of all its runs when none passed.  Passes that alternate
    see the same drift in machine speed.
    """
    passed = [[] for _ in passes]
    every = [[] for _ in passes]
    rounds = []
    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        for one, ok_times, all_times in zip(passes, passed, every):
            elapsed, ok = one()
            all_times.append(elapsed)
            if ok:
                ok_times.append(elapsed)
        rounds.append(perf_counter() - start)
        # another round starts when at least half of it fits in the window
        if len(rounds) >= MIN_RUNS and perf_counter() + statistics.median(rounds) / 2 > deadline:
            return [ok_times or all_times for ok_times, all_times in zip(passed, every)]


def end_to_end(runner, seconds):
    from reference import RECIPES, Reference
    from workloads import build_setup

    recipe = RECIPES[runner.workload.name]
    interleaver = Interleaver(Reference(recipe, runner.scratch))
    setup = Sampler(lambda: build_setup(runner.cfg))
    walls, own, reference = [], [], []

    def one_round():
        wall, cpu, ok, probed = runner.run(interleaver)
        if probed is not None:
            (ref_cpu, calls), _ = probed
            walls.append(wall)
            own.append(cpu - ref_cpu)
            reference.append(ref_cpu / calls)
        # set-up is timed between runs, so that it sees the same drift in
        # the host's speed as the runs
        setup.run_for(wall * SETUP_SHARE / (1 - SETUP_SHARE))
        return cpu, ok

    measure(seconds, one_round)
    if not own:
        print("  no run passed its gate: no end-to-end figures")
        return {}
    # Each run is scaled by the reference that ran between its own steps;
    # the window's set-up by the mean reference time of its runs.
    times = [t * recipe.nominal_s / r for t, r in zip(own, reference)]
    run_s = statistics.median(times)
    setup_s = statistics.median(setup.times) * recipe.nominal_s / statistics.fmean(reference)
    # this process has run only this workload; the oracle check comes after
    # the reading, because its dense matrix is not the workload's memory
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if runner.workload.oracle:
        runner.check_oracle()
    label, worst = tail(times)
    failed_frac = runner.failed / runner.attempted
    print(f"  run_s        {run_s:10.4f} s    median of {len(times)} runs, CPU s at reference speed;"
          f" {label}: {worst:.4f} s")
    print(f"  setup_s      {setup_s:10.4f} s    median of {len(setup.times)} samples, at reference speed")
    print(f"  peak_rss_mb  {peak_mb:10.1f} MB   high-water mark of this workload's process")
    print(f"  failed_frac  {failed_frac:10.4f}      {runner.failed} of {runner.attempted} failed a gate")
    print(f"  as measured: run wall {statistics.median(walls):.4f} s with the reference between steps,"
          f" own CPU {statistics.median(own):.4f} s, set-up CPU {statistics.median(setup.times):.6f} s;"
          f" reference {statistics.median(reference):.6f} s CPU a call (medians)")
    return {"run_s": run_s, "setup_s": setup_s, "peak_rss_mb": peak_mb}


def per_layer(runner, seconds, units):
    from tracing import Tracer, layer_metrics, self_time_table

    tracer = Tracer()
    traced = []

    def traced_run():
        wall, _, ok, summary = runner.run(tracer)
        if summary is not None:
            traced.append(summary)
        return wall, ok

    def plain_run():
        wall, _, ok, _ = runner.run()
        return wall, ok

    plain, times = measure(TRACE_SHARE * seconds, plain_run, traced_run)
    if not traced:
        print("  no traced run passed its gate: no per-layer figures")
        return {}
    per_run = [layer_metrics(s) for s, _ in traced]
    metrics = {key: statistics.median(m[key] for m in per_run) for key in per_run[0]}

    counts = [(s["iterations"], s["count"].get("krylov.matvec", 0), s["count"].get("grid_spectral.fft", 0))
              for s, _ in traced]
    mb = statistics.median(m for _, m in traced)
    snapshot_s = metrics["harness.snapshot_ms"] / 1e3
    metrics.update({
        "harness.snapshot_mb": mb,
        "harness.snapshot_mb_per_s": mb / snapshot_s if snapshot_s else 0.0,
        "grid_spectral.fft_pair_ms": fft_pair_ms(runner.cfg.N),
        **fft_size_rows(),
        "trace.run_s": statistics.median(times),
        "trace.overhead_frac": statistics.median(times) / statistics.median(plain) - 1.0,
        "trace.count_spread": max(max(c) - min(c) for c in zip(*counts)),
        "trace.absent_names": len(tracer.absent),
    })

    middle = sorted(traced, key=lambda r: r[0]["total"].get("harness.run", 0.0))[len(traced) // 2][0]
    print(f"  self time of the median traced run ({len(traced)} traced, {len(plain)} untraced):")
    rows = self_time_table(middle)
    for name, ms, share in rows:
        print(f"    {name:30s} {ms:10.2f} ms  {100 * share:6.2f} %")
    print(f"    {'sum of self times':30s} {sum(r[1] for r in rows):10.2f} ms  "
          f"{100 * sum(r[2] for r in rows):6.2f} % of the traced run")
    if tracer.absent:
        print(f"  absent (layer reads zero): {', '.join(tracer.absent)}")
    for key in sorted(metrics):
        print(f"  {key:45s} {metrics[key]:14.6g} {units[key]}")
    return metrics


def run_all(args, names):
    """Each workload in a process of its own, one after another, so that each
    reads its own peak memory; the results are merged into one JSON line."""
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            raise SystemExit(f"bench: workload {name} exited with code {child.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)


def main(argv=None):
    units, whys = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(whys) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        run_all(args, list(whys))
        return

    pin_blas()
    import_solver()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    name = args.workload
    workload = WORKLOADS[name]
    cfg = workload.config(args.seed)
    print(f"# blas_threads {BLAS_THREADS} ({', '.join(BLAS_VARS)}; nproc {os.cpu_count()})"
          f"  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"# {name}: {whys[name]}")
    print(f"#   N={cfg.N} scheme={cfg.scheme} steps={cfg.steps()} stride={cfg.stride}"
          f" x0={tuple(round(x, 6) for x in cfg.ic_x0)} width={cfg.ic_width:.6g}"
          f" beta={cfg.ic_beta:.6g}")
    scratch = tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT)
    try:
        runner = Runner(workload, cfg, scratch)
        if args.trace:
            found, kind = per_layer(runner, args.seconds, units["per_layer"]), "per_layer"
        else:
            found, kind = end_to_end(runner, args.seconds), "end_to_end"
    finally:
        shutil.rmtree(scratch)
    metrics = {k: {"value": v, "unit": units[kind][k]} for k, v in found.items()}
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
