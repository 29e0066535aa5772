"""A boosted packet on a 1-D static curved background (preset exp1, CI scale).

The metric enters through a velocity field a(x) = e^(Phi - Psi) >= 1 and a
spin-connection shift; the semi-implicit Cayley scheme propagates 1000 steps.
The plain l2 norm wanders (it is not the conserved quantity in curved space)
while the weighted norm is flat to solver tolerance.
"""

import os

import numpy as np

from curvedirac import preset_config, run_simulation, sample_metric

cfg = preset_config("exp1", "ci")
print(f"grid N = {cfg.N[0]}, dt = {cfg.dt}, steps = {cfg.steps()}, scheme = {cfg.scheme}")
a = sample_metric(cfg.metric, cfg.grid()).velocity[0]
print(f"velocity bound sup a(x) = {np.max(a):.6f}")

out = os.path.join(os.path.dirname(__file__), "out", "exp1")
res = run_simulation(cfg.replace(out_dir=out, stride=250))

l2 = np.array([r.l2 for r in res.diagnostics])
l2g = np.array([r.l2_gamma for r in res.diagnostics])
it = [r.krylov_iters for r in res.diagnostics[1:]]
print(f"\nl2:        {l2[0]:.8f} -> {l2[-1]:.8f}   (swing {np.ptp(l2)/l2[0]:.2e})")
print(f"weighted:  {l2g[0]:.8f} -> {l2g[-1]:.8f}   (drift {np.max(np.abs(l2g-l2g[0]))/l2g[0]:.2e})")
print(f"Krylov iterations per step: median {int(np.median(it))}, max {max(it)}")
print(f"snapshots + diagnostics under {out}")
