"""Dirac matrix algebra and the closed-form half step.

Shows the anticommutation relations, then the solver's half step
exp(-i tau M), M = beta G + alpha^1 g + V, as the public half_potential_step
applies it, checked node by node against an eigendecomposition.  The closed
form is e^{-i tau V} (cos(tau r) I - i sin(tau r) (beta G + alpha^1 g) / r),
r = sqrt(G^2 + g^2).  On massless flat space with A_x = -x and tau = 1 the
factor at node x is the shift that the directional transport sweep applies to
each Fourier mode: exp(-i theta alpha^1) = cos(theta) I - i sin(theta) alpha^1
at theta = x.
"""

import numpy as np

from curvedirac import (
    MetricModel, ScalarForm, SpinorField, StepWorkspace, alpha_matrix, beta_matrix,
    half_potential_step, make_grid,
)

print("anticommutators of the 4x4 set (should be 2 delta_ij I):")
for i in (1, 2, 3):
    for j in (1, 2, 3):
        ac = alpha_matrix(i, 4) @ alpha_matrix(j, 4) + alpha_matrix(j, 4) @ alpha_matrix(i, 4)
        tag = "2I" if i == j else "0 "
        print(f"  {{a{i}, a{j}}} -> max|.| = {np.max(np.abs(ac - 2 * (i == j) * np.eye(4))):.1e} ({tag})")


def half_step_matrices(model, grid, dt):
    """The half step factor at every node, (S, S, N): half_potential_step
    applied to the S unit spinors gives its columns."""
    S = model.spinor_dim
    ws = StepWorkspace(model, grid, dt)
    cols = []
    for b in range(S):
        unit = np.zeros((S,) + grid.shape, dtype=complex)
        unit[b] = 1.0
        cols.append(half_potential_step(SpinorField(unit, grid), ws, "lead").values)
    return np.stack(cols, axis=1)


grid = make_grid(1, 3.0, 7)
x = grid.axes[0]

# flat space: M = beta m + V - alpha^1 A_x
model = MetricModel("flat", spinor_dim=4, mass=0.7, ax_pot=ScalarForm("gauss", (1.5, 0.3)),
                    v_pot=ScalarForm("linear", (0.4,)))
dt = 0.8
E = half_step_matrices(model, grid, dt)
A, V = model.ax_pot.value(x), model.v_pot.value(x)
worst = unitarity = 0.0
for k in range(x.size):
    M = beta_matrix(4) * model.mass + V[k] * np.eye(4) - alpha_matrix(1, 4) * A[k]
    w, vecs = np.linalg.eigh(M)   # M is Hermitian: exp(-i tau M) = V diag(e^{-i tau w}) V^H
    reference = (vecs * np.exp(-0.5j * dt * w)) @ vecs.conj().T
    worst = max(worst, np.max(np.abs(E[..., k] - reference)))
    unitarity = max(unitarity, np.max(np.abs(E[..., k].conj().T @ E[..., k] - np.eye(4))))
print(f"\nhalf step vs eigendecomposition over {x.size} nodes: {worst:.3e}")
print(f"unitarity of the half step:                   {unitarity:.3e}")

print("\nsweep shift exp(-i theta alpha^1) = cos(theta) I - i sin(theta) alpha^1, theta = x:")
for S in (2, 4):
    shift_model = MetricModel("flat", spinor_dim=S, ax_pot=ScalarForm("linear", (-1.0,)))
    E = half_step_matrices(shift_model, grid, 2.0)   # tau = 1, M = alpha^1 x
    shift = (np.cos(x) * np.eye(S)[:, :, None]
             - 1j * np.sin(x) * alpha_matrix(1, S)[:, :, None])
    print(f"  S = {S}: max deviation over x in [-3, 3) {np.max(np.abs(E - shift)):.1e}")
