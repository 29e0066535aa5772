"""Massless charge carriers on a rippled graphene sheet (preset exp4).

The ripple h(x) = a0 cos(2 pi k0 x / ell) strains the sheet; carriers see the
velocity field a = 1/(1 - f) with f = (h')^2/2 plus linear external potentials.
The physically conserved quantity is the weighted norm with weight (1 - f):
the weight exactly inverts the velocity, so the Cayley transport preserves it
to solver tolerance while the plain l2 norm visibly oscillates.
"""

import numpy as np

from curvedirac import gamma_weight, graphene_f, preset_config, run_simulation, sample_metric

cfg = preset_config("exp4", "paper")
g = cfg.grid()
f = graphene_f(g.axes[0], cfg.metric.a0, cfg.metric.k0, cfg.metric.ell)
a = sample_metric(cfg.metric, g).velocity[0]
w = gamma_weight(cfg.metric, g)
print(f"strain f in [{f.min():.4f}, {f.max():.4f}]  ->  velocity a in [{a.min():.4f}, {a.max():.4f}]")
print(f"weight * velocity == 1 exactly: max deviation {np.max(np.abs(w * a - 1)):.2e}")

res = run_simulation(cfg)
l2 = np.array([r.l2 for r in res.diagnostics])
l2g = np.array([r.l2_gamma for r in res.diagnostics])
print(f"\n{cfg.steps()} steps to T = {cfg.T}")
print(f"plain l2:     min {l2.min():.6f}, max {l2.max():.6f}  (coefficient of variation {np.std(l2)/np.mean(l2):.2e})")
print(f"weighted l2:  drift {np.max(np.abs(l2g - l2g[0]))/l2g[0]:.2e}  (conserved)")

t_marks = (0.4, 0.8, 1.2, 1.6)
print("\nweighted norm at snapshot times:")
for tm in t_marks:
    r = res.diagnostics[int(round(tm / cfg.dt))]
    print(f"  t = {r.t:.1f}: l2_gamma = {r.l2_gamma:.10f}")
