"""Pauli/Dirac matrix constants and the closed-form Dirac exponential.

Two spinor sizes are supported.  For S = 4 the Dirac representation is used:
beta = diag(I2, -I2), alpha^i = offdiag(sigma^i, sigma^i).  For S = 2 (the
1-D/2-D reductions) the mapping is beta -> sigma^3, alpha^1 -> sigma^1,
alpha^2 -> sigma^2.

The closed-form exponential exploits (beta*G + alpha.Gvec)^2 = (G^2 + Gvec^2) I:

    exp(i [beta G + alpha . Gvec]) = I cos|G| + i (beta G + alpha . Gvec) sin|G|/|G|,

with |G| = sqrt(G^2 + Gvec^2).  Every coefficient is real (a Hermitian
potential), so the factor is unitary.  The spin connection never comes
here: it is a gauge applied around the transport stage (see `propagators`).
The directional sweep needs only the special case
exp(-i t alpha^i) = cos t - i sin t alpha^i.
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


def _real_field(values, name):
    """values as a real float array; ValueError naming the term ``name``
    when a complex values has a nonzero imaginary part."""
    v = np.asarray(values)
    if not np.iscomplexobj(v):
        return v.astype(np.float64, copy=False)
    if not np.any(v.imag):
        return v.real
    raise ValueError(f"exp_dirac: {name} must be real")


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


def _fill(dst, terms):
    """dst = sum(sign * x for sign, x in terms), signs +/-1; 0 when terms
    is empty."""
    if not terms:
        dst.fill(0.0)
    for k, (sign, x) in enumerate(terms):
        if k == 0:
            np.copyto(dst, x) if sign > 0 else np.negative(x, out=dst)
        else:
            (np.add if sign > 0 else np.subtract)(dst, x, out=dst)


def exp_dirac(G, Gvec, S: int = 2) -> np.ndarray:
    """exp(i [beta G + alpha . Gvec]) via the closed form; |G| -> 0 is handled.

    G may be a scalar or a field array; Gvec a sequence of up to three scalars
    or field arrays (missing entries are treated as zero).  The result is a
    C-contiguous array of shape (S, S) + field_shape.

    Every coefficient must be real: a complex one with a nonzero imaginary
    part raises ValueError.  G^2 + Gvec^2 is then real and >= 0, c and s
    are taken in real arithmetic, and the result is unitary.  Each (a, b)
    entry of I c + i s (beta G + alpha . Gvec) is written once: the
    matrices' entries are 0, +/-1 or +/-i, so every real and imaginary part
    is a signed sum of c and the fields s * u, or 0.
    """
    fields = [_real_field(p, "G" if i == 0 else f"Gvec[{i - 1}]")
              for i, p in enumerate([G] + list(Gvec))]
    shape = np.broadcast_shapes(*(np.shape(u) for u in fields))
    # (matrix, u); a zero term is dropped, which also keeps zero third
    # components away from alpha^3 at S = 2
    terms = [(beta_matrix(S) if i == 0 else alpha_matrix(i, S), u)
             for i, u in enumerate(fields) if np.any(u)]
    q = sum(u * u for _, u in terms)
    c, s = _cos_sinc(np.asarray(q, dtype=np.float64))
    # exponent matrix times i, per term
    scaled = [(1j * mat, s * u) for mat, u in terms]
    out = np.empty((S, S) + shape, dtype=np.complex128)
    for a in range(S):
        for b in range(S):
            entry = out[a, b, ...]
            re = [(1.0, c)] if a == b else []
            re += [(m[a, b].real, t) for m, t in scaled if m[a, b].real]
            _fill(entry.real, re)
            _fill(entry.imag, [(m[a, b].imag, t) for m, t in scaled if m[a, b].imag])
    return out
