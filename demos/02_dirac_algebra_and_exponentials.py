"""Dirac matrix algebra and the closed-form exponential.

Shows the anticommutation relations, the one-line exponential
exp(i [beta G + alpha . Gvec]) = cos|G| I + i sin|G|/|G| (beta G + alpha . Gvec)
checked against an eigendecomposition, and the special case the directional
transport sweep applies to each Fourier mode:
exp_dirac(0, (-theta, 0, 0), S) = cos(theta) I - i sin(theta) alpha^1.
"""

import numpy as np

from curvedirac import alpha_matrix, beta_matrix, exp_dirac

print("anticommutators of the 4x4 set (should be 2 delta_ij I):")
for i in (1, 2, 3):
    for j in (1, 2, 3):
        ac = alpha_matrix(i, 4) @ alpha_matrix(j, 4) + alpha_matrix(j, 4) @ alpha_matrix(i, 4)
        tag = "2I" if i == j else "0 "
        print(f"  {{a{i}, a{j}}} -> max|.| = {np.max(np.abs(ac - 2 * (i == j) * np.eye(4))):.1e} ({tag})")

rng = np.random.default_rng(1)
G = rng.standard_normal()
gv = rng.standard_normal(3)
E = exp_dirac(G, gv, 4)
H = beta_matrix(4) * G + sum(alpha_matrix(k + 1, 4) * gv[k] for k in range(3))
w, V = np.linalg.eigh(H)   # H is Hermitian: exp(i H) = V diag(exp(i w)) V^H
reference = (V * np.exp(1j * w)) @ V.conj().T
print(f"\nclosed form vs eigendecomposition: {np.max(np.abs(E - reference)):.3e}")
print(f"unitarity of the closed form:      {np.max(np.abs(E.conj().T @ E - np.eye(4))):.3e}")

print("\nsweep shift exp(-i theta alpha^1) = cos(theta) I - i sin(theta) alpha^1:")
theta = np.linspace(-3.0, 3.0, 7)
for S in (2, 4):
    E = exp_dirac(0.0, (-theta, 0.0, 0.0), S)
    shift = (np.cos(theta) * np.eye(S)[:, :, None]
             - 1j * np.sin(theta) * alpha_matrix(1, S)[:, :, None])
    print(f"  S = {S}: max deviation over theta in [-3, 3] {np.max(np.abs(E - shift)):.1e}")
