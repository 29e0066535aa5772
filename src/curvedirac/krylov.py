"""Matrix-free restarted GMRES for the semi-implicit transport solve.

Works on arrays of any shape (the spinor-field tensor is treated as one flat
complex vector).  Each Arnoldi step orthogonalises against the whole basis at
once (blocked classical Gram-Schmidt: two BLAS products), with a second pass
only on severe cancellation (||w|| < 1e-8 ||w0||); Givens rotations on Python
complex scalars update the least-squares problem; warm starts supported
through x0.  The true residual is re-checked before a converged solve returns.
A non-finite operator output shows as a non-finite norm (of the residual or
of a new Arnoldi vector) and raises KrylovError.  A right-preconditioned
system A M^-1 y = b is passed as the operator y -> A M^-1 y, whose residual is
that of A x = b at x = M^-1 y, so `tol` keeps its meaning.  A caller that
knows a good approximate inverse of the operator as a scalar passes it as
``relax``: when the first check misses the tolerance, the solve takes one
defect correction x + relax r and checks again before any Arnoldi cycle.

Contract: every residual, the reported one included, is b - apply(x) on the
very b-shaped array x that is returned, so on every exit but b = 0 (where
apply is never called) the operator's last argument *is* the returned x, and a
caller may reuse what the operator computed from it.  That product is not
copied (the subtraction makes a fresh array); the Arnoldi products are, since
the new vector is changed in place.  x0 is not copied (only converted when it
is not complex128) and never written: each restart's correction makes a fresh
x, so a solve that meets the tolerance at its first check returns a b-shaped
view of x0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, KrylovError


def check_options(tol, restart, maxit):
    """Reject a tolerance that is not finite and positive, and a restart
    length or iteration cap that is not a whole number >= 1; return the
    counts as ints."""
    if not 0 < tol < math.inf:
        raise ConfigurationError(f"krylov tol must be positive and finite, got {tol}", "tol")
    for name, value in (("restart", restart), ("maxit", maxit)):
        if not (value >= 1 and float(value).is_integer()):
            raise ConfigurationError(
                f"krylov {name} must be >= 1 and a whole number, got {value}", name)
    return tol, int(restart), int(maxit)


@dataclass(frozen=True)
class KrylovOptions:
    tol: float = 1e-10
    restart: int = 30
    maxit: int = 200

    def __post_init__(self):
        _, restart, maxit = check_options(self.tol, self.restart, self.maxit)
        object.__setattr__(self, "restart", restart)
        object.__setattr__(self, "maxit", maxit)


def _norm(v):
    """The 2-norm of a complex array as a float: one BLAS dot product, about
    half the cost of np.linalg.norm's two strided ones."""
    return math.sqrt(np.vdot(v, v).real)


def _finite(norm):
    """norm itself, or KrylovError when it is not finite: a norm is
    non-finite whenever an entry of its vector is."""
    if not math.isfinite(norm):
        raise KrylovError("operator produced non-finite values")
    return norm


@dataclass
class KrylovReport:
    iterations: int          # Arnoldi steps; the defect correction is not one
    residual: float          # final relative residual ||b - apply(x)|| / ||b||, recomputed
    converged: bool
    products: int            # operator calls: every residual check and Arnoldi step


def gmres(apply, b, x0=None, tol=1e-10, restart=30, maxit=200, relax=None):
    """Solve apply(x) = b to relative residual `tol`.

    Parameters
    ----------
    apply : callable
        Linear operator mapping arrays shaped like b to arrays shaped like b.
    b : ndarray
        Right-hand side (any shape, complex).
    x0 : ndarray, optional
        Warm start; defaults to zero.
    relax : scalar, optional
        When the first residual r misses ``tol``, x becomes x + relax r
        once, and the true residual of that x is checked before any Arnoldi
        cycle.  The correction is not counted as an iteration.

    Returns
    -------
    (x, KrylovReport)
    """
    tol, restart, maxit = check_options(tol, restart, maxit)
    b = np.asarray(b, dtype=np.complex128)
    shape = b.shape
    bnorm = _norm(b)
    if bnorm == 0.0:
        return np.zeros(shape, dtype=np.complex128), KrylovReport(0, 0.0, True, 0)

    x = (np.zeros(shape, dtype=np.complex128) if x0 is None
         else np.asarray(x0, dtype=np.complex128).reshape(shape))
    total_iters = products = 0

    while True:
        r = (b - apply(x)).ravel()     # on x itself: see the module docstring
        products += 1
        beta = _finite(_norm(r))
        resid = beta / bnorm
        if resid <= tol:
            return x, KrylovReport(total_iters, resid, True, products)
        if relax is not None:
            # x + relax r, in r's fresh array: x (perhaps x0) is not written
            r *= relax
            x = np.add(x, r.reshape(shape), out=r.reshape(shape))
            relax = None
            continue
        if total_iters >= maxit:
            return x, KrylovReport(total_iters, resid, False, products)

        m = min(restart, maxit - total_iters)
        Q = np.empty((m + 1, b.size), dtype=np.complex128)
        H = np.zeros((m, m), dtype=np.complex128)   # upper triangle after rotation
        cs, sn = [], []
        g = [complex(beta)]
        Q[0] = r / beta

        k_used = 0
        for k in range(m):
            # copy: w is changed in place, and apply() may hand back a view of
            # its input (e.g. the identity)
            w = np.array(apply(Q[k].reshape(shape)), dtype=np.complex128).ravel()
            products += 1
            wnorm0 = _finite(_norm(w))
            basis = Q[:k + 1]
            # blocked classical Gram-Schmidt: h_j = <Q_j, w>, w -= sum_j h_j Q_j
            h = (basis @ w.conj()).conj()
            w -= h @ basis
            wnorm = _norm(w)
            if wnorm < 1e-8 * wnorm0:
                # severe cancellation: one re-orthogonalization pass
                corr = (basis @ w.conj()).conj()
                h += corr
                w -= corr @ basis
                wnorm = _norm(w)
            total_iters += 1
            k_used = k + 1

            # apply previous Givens rotations to the new column
            col = h.tolist()
            for j in range(k):
                c, s = cs[j], sn[j]
                hj, hj1 = col[j], col[j + 1]
                col[j] = c * hj + s * hj1
                col[j + 1] = -s.conjugate() * hj + c.conjugate() * hj1
            # new rotation annihilating the subdiagonal entry wnorm
            hk = col[k]
            denom = math.sqrt(abs(hk) ** 2 + wnorm ** 2)
            if denom == 0.0:
                c, s = 1.0, 0.0
            else:
                c, s = hk.conjugate() / denom, wnorm / denom
            cs.append(c)
            sn.append(s)
            col[k] = c * hk + s * wnorm
            H[:k + 1, k] = col
            g.append(-s.conjugate() * g[k])
            g[k] = c * g[k]

            estimate = abs(g[k + 1]) / bnorm
            if wnorm == 0.0 or estimate <= tol or total_iters >= maxit:
                break
            Q[k + 1] = w / wnorm

        # assemble the correction from the k_used-dimensional Krylov space
        rhs = np.array(g[:k_used])
        try:
            y = np.linalg.solve(H[:k_used, :k_used], rhs)
        except np.linalg.LinAlgError:
            # exact breakdown left a singular block; the outer loop re-checks
            # the true residual, so the least-squares correction stays honest
            y = np.linalg.lstsq(H[:k_used, :k_used], rhs, rcond=None)[0]
        x = x + (y @ Q[:k_used]).reshape(shape)
