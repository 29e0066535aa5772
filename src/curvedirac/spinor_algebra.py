"""Pauli/Dirac matrix constants and the closed-form guard of the half step.

Two spinor sizes are supported.  For S = 4 the Dirac representation is used:
beta = diag(I2, -I2), alpha^i = offdiag(sigma^i, sigma^i).  For S = 2 (the
1-D/2-D reductions) the mapping is beta -> sigma^3, alpha^1 -> sigma^1,
alpha^2 -> sigma^2.

The half step exp(-i tau M) of the local potential M = beta G + alpha^1 g + V
has a closed form, since (beta G + alpha^1 g)^2 = r^2 I with
r = sqrt(G^2 + g^2):

    exp(-i tau M) = e^{-i tau V} (cos(tau r) I - i sin(tau r) (beta G + alpha^1 g) / r).

`propagators._half_factors` builds it as diagonal planes and one alpha^1
coupling, with `_cos_sinc` as its guard where r -> 0.  The directional
sweep needs only the special case exp(-i t alpha^i) = cos t - i sin t alpha^i.
"""

from __future__ import annotations

import numpy as np

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
ID2 = np.eye(2, dtype=np.complex128)

_PAULI = {1: SIGMA1, 2: SIGMA2, 3: SIGMA3}


def beta_matrix(S: int) -> np.ndarray:
    """beta: sigma^3 for S=2, diag(I2, -I2) for S=4."""
    if S == 2:
        return SIGMA3.copy()
    b = np.zeros((4, 4), dtype=np.complex128)
    b[:2, :2] = ID2
    b[2:, 2:] = -ID2
    return b


def alpha_matrix(i: int, S: int) -> np.ndarray:
    """alpha^i for i in 1..3 (S=2 supports only i=1,2, mapped to sigma^1,2)."""
    if i not in (1, 2, 3):
        raise ValueError(f"alpha index must be 1..3, got {i}")
    if S == 2:
        if i == 3:
            raise ValueError("alpha^3 is not available in the 2-component reduction")
        return _PAULI[i].copy()
    m = np.zeros((4, 4), dtype=np.complex128)
    m[:2, 2:] = _PAULI[i]
    m[2:, :2] = _PAULI[i]
    return m


def _cos_sinc(q):
    """c = cos(sqrt q) and s = sin(sqrt q) / sqrt q for real q >= 0;
    c = s = 1 where sqrt q < 1e-150."""
    mag = np.sqrt(q)
    small = mag < 1e-150
    if np.any(small):
        mag = np.where(small, 1.0, mag)
    c, s = np.empty_like(mag), np.empty_like(mag)
    np.cos(mag, out=c)
    np.sin(mag, out=s)
    s /= mag
    np.copyto(c, 1.0, where=small)
    np.copyto(s, 1.0, where=small)
    return c, s
