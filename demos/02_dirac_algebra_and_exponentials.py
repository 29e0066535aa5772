"""Dirac matrix algebra and the closed-form exponential.

Shows the anticommutation relations, the one-line exponential
exp(i [beta G + alpha . Gvec]) = cos|G| I + i sin|G|/|G| (beta G + alpha . Gvec),
and the unitary diagonalization of the alpha matrices used by the directional
transport scheme.
"""

import numpy as np

from curvedirac import alpha_matrix, beta_matrix, diagonalize_alpha, exp_dirac
from curvedirac.spinor_algebra import expm_small

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
M = 1j * (beta_matrix(4) * G + sum(alpha_matrix(k + 1, 4) * gv[k] for k in range(3)))
print(f"\nclosed form vs reference expm: {np.max(np.abs(E - expm_small(M))):.3e}")
print(f"unitarity of the closed form:  {np.max(np.abs(E.conj().T @ E - np.eye(4))):.3e}")

print("\nalpha diagonalizations alpha^i = Pi Lam Pi^H:")
for S in (2, 4):
    for i in (1, 2) if S == 2 else (1, 2, 3):
        d = diagonalize_alpha(i, S)
        err = np.max(np.abs((d.Pi * d.Lam) @ d.Pi.conj().T - alpha_matrix(i, S)))
        print(f"  S = {S}, i = {i}: Lam = {d.Lam.astype(int)}, reconstruction error {err:.1e}")
