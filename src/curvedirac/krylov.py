"""Matrix-free restarted GMRES for the semi-implicit transport solve.

Works on arrays of any shape (the spinor-field tensor is treated as one flat
complex vector).  Each Arnoldi step orthogonalises against the whole basis at
once (blocked classical Gram-Schmidt: two BLAS products), with a second pass
only on severe cancellation (||w|| < 1e-8 ||w0||); Givens rotations on Python
complex scalars update the least-squares problem; warm starts supported
through x0.  The true residual is re-checked before a converged solve returns.
A non-finite operator output shows as a non-finite norm (of the residual or
of a new Arnoldi vector) and raises KrylovError.

An optional residual weight makes the exit check measure ||weight r|| /
||weight b|| instead of ||r|| / ||b||.  A left-scaled system w A x = w b
passes weight = 1/w, so `tol` then holds for the unscaled residual of A x = b
(KrylovReport.residual reports the same figure).  The Arnoldi estimate only
tracks the unweighted residual, and stops at `estimate_tol` (default `tol`):
when it has met its target but the weighted residual has not, the next
restart cycle aims lower by their ratio, so the solve goes on to the weighted
`tol` instead of ending early or spinning.
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


@dataclass
class KrylovReport:
    iterations: int
    residual: float          # final relative residual, weighted when a weight is given
    converged: bool


def _flat(v):
    return np.ascontiguousarray(v).ravel()


def gmres(apply, b, x0=None, tol=1e-10, restart=30, maxit=200, weight=None, estimate_tol=None):
    """Solve apply(x) = b to relative residual `tol`.

    Parameters
    ----------
    apply : callable
        Linear operator mapping arrays shaped like b to arrays shaped like b.
    b : ndarray
        Right-hand side (any shape, complex).
    x0 : ndarray, optional
        Warm start; defaults to zero.
    weight : ndarray, optional
        Broadcasts against b; the exit check and the reported residual then
        measure ||weight (b - apply(x))|| / ||weight b||.
    estimate_tol : float, optional
        First stop of the Arnoldi estimate ||r|| / ||b|| (defaults to tol);
        a tighter value buys accuracy margin below the exit check.

    Returns
    -------
    (x, KrylovReport)
    """
    tol, restart, maxit = check_options(tol, restart, maxit)
    b = np.asarray(b, dtype=np.complex128)
    shape = b.shape
    bnorm = float(np.linalg.norm(b))
    wbnorm = bnorm if weight is None else float(np.linalg.norm(weight * b))
    if wbnorm == 0.0:
        return np.zeros(shape, dtype=np.complex128), KrylovReport(0, 0.0, True)

    x = np.zeros(shape, dtype=np.complex128) if x0 is None else np.array(x0, dtype=np.complex128)
    total_iters = 0

    def matvec(v):
        # copy: apply() may hand back a view of its input (e.g. the identity)
        return np.array(apply(v.reshape(shape)), dtype=np.complex128, copy=True).ravel()

    def finite(norm):
        # a norm is non-finite whenever an entry of its vector is
        if not math.isfinite(norm):
            raise KrylovError("operator produced non-finite values")
        return norm

    def true_resid(r):
        if weight is not None:
            r = weight * r.reshape(shape)
        return float(finite(np.linalg.norm(r))) / wbnorm

    target = tol if estimate_tol is None else estimate_tol   # stop of ||r|| / ||b||
    while True:
        r = _flat(b) - matvec(_flat(x))
        beta = finite(np.linalg.norm(r))
        resid = true_resid(r)
        if resid <= tol:
            return x.reshape(shape), KrylovReport(total_iters, resid, True)
        if total_iters >= maxit:
            return x.reshape(shape), KrylovReport(total_iters, resid, False)
        if beta / bnorm <= target:
            # the estimate met its target but the weighted residual did not
            target = tol * (beta / bnorm) / resid

        m = min(restart, maxit - total_iters)
        Q = np.empty((m + 1, b.size), dtype=np.complex128)
        H = np.zeros((m, m), dtype=np.complex128)   # upper triangle after rotation
        cs, sn = [], []
        g = [complex(beta)]
        Q[0] = r / beta

        k_used = 0
        for k in range(m):
            w = matvec(Q[k])
            wnorm0 = finite(np.linalg.norm(w))
            basis = Q[:k + 1]
            # blocked classical Gram-Schmidt: h_j = <Q_j, w>, w -= sum_j h_j Q_j
            h = (basis @ w.conj()).conj()
            w -= h @ basis
            wnorm = np.linalg.norm(w)
            if wnorm < 1e-8 * wnorm0:
                # severe cancellation: one re-orthogonalization pass
                corr = (basis @ w.conj()).conj()
                h += corr
                w -= corr @ basis
                wnorm = np.linalg.norm(w)
            wnorm = float(wnorm)
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
            if wnorm == 0.0 or estimate <= target or total_iters >= maxit:
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
