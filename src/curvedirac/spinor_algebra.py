"""Pauli/Dirac matrix constants, closed-form exponentials, alpha diagonalization.

Two spinor sizes are supported.  For S = 4 the Dirac representation is used:
beta = diag(I2, -I2), alpha^i = offdiag(sigma^i, sigma^i).  For S = 2 (the
1-D/2-D reductions) the mapping is beta -> sigma^3, alpha^1 -> sigma^1,
alpha^2 -> sigma^2.

The closed-form exponential exploits (beta*G + alpha.Gvec)^2 = (G^2 + Gvec^2) I:

    exp(i [beta G + alpha . Gvec]) = I cos|G| + i (beta G + alpha . Gvec) sin|G|/|G|,

with |G| = sqrt(G^2 + Gvec^2).  cos and sin/x are even, so the formula also
analytically continues to complex G, Gvec.  When G^2 + Gvec^2 is real it
becomes cosh and sinh/x where it is negative, which gives the real
hyperbolic factors of the spin connection (imaginary Gvec).

The alpha diagonalization is kept as a reference for the directional sweep,
which itself needs none: exp(-i t alpha^i) = cos t - i sin t alpha^i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SQ2 = np.sqrt(2.0)

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
ID2 = np.eye(2, dtype=np.complex128)
ID4 = np.eye(4, dtype=np.complex128)

_PAULI = {1: SIGMA1, 2: SIGMA2, 3: SIGMA3}


def identity(S: int) -> np.ndarray:
    return ID2 if S == 2 else ID4


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


def _real_field(values):
    """(u, imaginary) with values == u, or 1j * u when imaginary, for a real u;
    None when values is neither real nor purely imaginary."""
    v = np.asarray(values)
    if not np.iscomplexobj(v):
        return v.astype(np.float64, copy=False), False
    if not np.any(v.imag):
        return v.real, False
    if not np.any(v.real):
        return v.imag, True
    return None


def _cos_sinc(q):
    """c = cos(sqrt q) and s = sin(sqrt q) / sqrt q for real q, continued to
    q < 0 as cosh and sinh of sqrt(-q); c = s = 1 where sqrt|q| < 1e-150."""
    mag = np.sqrt(np.abs(q))
    small = mag < 1e-150
    if np.any(small):
        mag = np.where(small, 1.0, mag)
    pos = q >= 0
    neg = ~pos
    c, s = np.empty_like(mag), np.empty_like(mag)
    for out, trig, hyp in ((c, np.cos, np.cosh), (s, np.sin, np.sinh)):
        trig(mag, out=out, where=pos)
        hyp(mag, out=out, where=neg)
    s /= mag
    np.copyto(c, 1.0, where=small)
    np.copyto(s, 1.0, where=small)
    return c, s


def _fill(dst, terms):
    """dst = sum(sign * x for sign, x in terms), signs +/-1; dst is left as is
    when terms is empty."""
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

    When every coefficient is real or purely imaginary, G^2 + Gvec^2 is real
    and c, s are taken in real arithmetic (cos/sin where it is >= 0,
    cosh/sinh where it is < 0).  This covers the Hermitian potential and the
    spin connection's imaginary argument.  Each (a, b) entry of
    I c + i s (beta G + alpha . Gvec) is then written once: the matrices'
    entries are 0, +/-1 or +/-i, so every real and imaginary part is a signed
    sum of c and the fields s * u.  Other inputs take the complex formula.
    """
    parts = [G] + list(Gvec)
    shape = np.broadcast_shapes(*(np.shape(p) for p in parts))
    terms = []   # (matrix, field) with exponent i sum matrix * field
    for i, p in enumerate(parts):
        if not np.any(p):
            continue  # also keeps zero third components away from alpha^3 at S = 2
        mat = beta_matrix(S) if i == 0 else alpha_matrix(i, S)
        terms.append((mat, p))
    real = [_real_field(p) for _, p in terms]
    if any(r is None for r in real):
        return _exp_dirac_complex(terms, shape, S)

    q = sum(-u * u if imag else u * u for u, imag in real)
    c, s = _cos_sinc(np.asarray(q, dtype=np.float64))
    # exponent matrix times i, per term: i * mat, or -mat for an imaginary field
    scaled = [(-mat if imag else 1j * mat, s * u) for (mat, _), (u, imag) in zip(terms, real)]
    out = np.zeros((S, S) + shape, dtype=np.complex128)
    for a in range(S):
        for b in range(S):
            entry = out[a, b, ...]
            re = [(1.0, c)] if a == b else []
            re += [(m[a, b].real, t) for m, t in scaled if m[a, b].real]
            _fill(entry.real, re)
            _fill(entry.imag, [(m[a, b].imag, t) for m, t in scaled if m[a, b].imag])
    return out


def _exp_dirac_complex(terms, shape, S):
    """exp_dirac's complex formula, for coefficients neither real nor imaginary."""
    nd = len(shape)

    def lift(mat):
        return mat.reshape((S, S) + (1,) * nd)

    fields = [np.asarray(p, dtype=np.complex128) for _, p in terms]
    mag = np.sqrt(sum(p * p for p in fields))
    small = np.abs(mag) < 1e-150
    safe = np.where(small, 1.0, mag)
    c = np.where(small, 1.0, np.cos(safe))
    s = np.where(small, 1.0, np.sin(safe) / safe)
    arg = sum(lift(mat) * p for (mat, _), p in zip(terms, fields))
    out = np.empty((S, S) + shape, dtype=np.complex128)
    out[...] = lift(identity(S)) * c + 1j * s * arg
    return out


def expm_small(M: np.ndarray) -> np.ndarray:
    """Matrix exponential for a single S x S matrix (S <= 4).

    Hermitian / anti-Hermitian / normal inputs go through an eigendecomposition;
    anything else falls back to scaling-and-squaring on the Taylor series.
    """
    M = np.asarray(M, dtype=np.complex128)
    n = M.shape[0]
    nrm = np.linalg.norm(M)
    if nrm == 0.0:
        return np.eye(n, dtype=np.complex128)
    tol = 1e-13 * max(nrm, 1.0) ** 2
    if np.linalg.norm(M - M.conj().T) <= tol:
        w, V = np.linalg.eigh(M)
        return (V * np.exp(w)) @ V.conj().T
    if np.linalg.norm(M + M.conj().T) <= tol:
        w, V = np.linalg.eigh(-1j * M)
        return (V * np.exp(1j * w)) @ V.conj().T
    if np.linalg.norm(M @ M.conj().T - M.conj().T @ M) <= tol:
        w, V = np.linalg.eig(M)
        return (V * np.exp(w)) @ np.linalg.inv(V)
    # non-normal: scale so the series converges fast, square back
    s = max(0, int(np.ceil(np.log2(nrm))) + 1)
    T = M / (2.0 ** s)
    out = np.eye(n, dtype=np.complex128)
    term = np.eye(n, dtype=np.complex128)
    for j in range(1, 30):
        term = term @ T / j
        out = out + term
        if np.linalg.norm(term) < 1e-18:
            break
    for _ in range(s):
        out = out @ out
    return out


@dataclass(frozen=True)
class AlphaDiagonalization:
    """Unitary Pi and signed diagonal Lam with Pi diag(Lam) Pi^dagger = alpha^i."""

    Pi: np.ndarray
    Lam: np.ndarray  # 1-D array of +/-1 eigenvalues


# Hand-built eigenvector tables (phase convention: first nonzero component
# real positive), so repeated calls are bit-identical.
_DIAG_TABLES = {
    (1, 2): np.array([[1, 1], [1, -1]], dtype=np.complex128) / _SQ2,
    (2, 2): np.array([[1, 1], [1j, -1j]], dtype=np.complex128) / _SQ2,
    (1, 4): np.array(
        [[1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 0, -1], [1, 0, -1, 0]],
        dtype=np.complex128,
    ) / _SQ2,
    (2, 4): np.array(
        [[1, 0, 1, 0], [0, 1, 0, 1], [0, -1j, 0, 1j], [1j, 0, -1j, 0]],
        dtype=np.complex128,
    ) / _SQ2,
    (3, 4): np.array(
        [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, -1, 0], [0, -1, 0, 1]],
        dtype=np.complex128,
    ) / _SQ2,
}


def diagonalize_alpha(i: int, S: int = 2) -> AlphaDiagonalization:
    """Diagonalization alpha^i = Pi Lam Pi^dagger with Lam = diag(1,..,-1,..)."""
    if S == 2:
        if i == 3:
            # sigma^3 is already diagonal
            return AlphaDiagonalization(ID2.copy(), np.array([1.0, -1.0]))
        Pi = _DIAG_TABLES[(i, 2)].copy()
        lam = np.array([1.0, -1.0])
    else:
        Pi = _DIAG_TABLES[(i, 4)].copy()
        lam = np.array([1.0, 1.0, -1.0, -1.0])
    return AlphaDiagonalization(Pi, lam)
