import math

import numpy as np
import pytest

from curvedirac.errors import ConfigurationError, KrylovError
from curvedirac.krylov import KrylovOptions, KrylovReport, gmres


def test_identity_converges_in_one_iteration(rng):
    b = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    x, rep = gmres(lambda v: v, b)
    assert rep.converged and rep.iterations == 1
    assert np.linalg.norm(x - b) < 1e-12


def test_zero_rhs_returns_zero_without_iterating():
    x, rep = gmres(lambda v: 2 * v, np.zeros((2, 8), dtype=complex))
    assert rep.converged and rep.iterations == 0
    assert not np.any(x)


def _contract_cases(rng):
    n = 24
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 12 * np.eye(n)
    b = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).reshape(2, 12)
    rot = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    return {
        "converged": (A, b, {}),
        "restarted": (A, b, {"restart": 4, "tol": 1e-12}),
        "stalled": (rot, b, {"restart": 4, "maxit": 12, "tol": 1e-14}),
        "warm": (A, b, {"x0": np.linalg.solve(A, b.ravel()).reshape(b.shape)}),
    }


@pytest.mark.parametrize("case", ["converged", "restarted", "stalled", "warm"])
def test_last_operator_argument_is_the_returned_solution(rng, case):
    # the residual on every exit is b - apply(x) on the returned x itself,
    # so a caller may reuse what the operator computed from it
    A, b, kw = _contract_cases(rng)[case]
    seen = []

    def apply(v):
        seen.append(v)
        return (A @ v.ravel()).reshape(v.shape)

    x, rep = gmres(apply, b, **kw)
    assert seen[-1] is x and x.shape == b.shape
    assert rep.converged == (case != "stalled")
    assert (rep.iterations == 0) == (case == "warm")
    if case == "restarted":
        assert rep.iterations > 4
    assert rep.residual == np.linalg.norm(b - apply(x)) / np.linalg.norm(b)


@pytest.mark.parametrize("case", ["converged", "restarted", "stalled", "warm"])
def test_caller_x0_is_never_written(rng, case):
    # x0 is not copied, so it is read-only here: a write into it raises
    A, b, kw = _contract_cases(rng)[case]
    x0 = kw.pop("x0", None)
    if x0 is None:
        x0 = rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
    keep = x0.copy()
    x0.flags.writeable = False
    x, rep = gmres(lambda v: (A @ v.ravel()).reshape(v.shape), b, x0=x0, **kw)
    assert np.array_equal(x0, keep)
    assert rep.converged == (case != "stalled")
    assert (rep.iterations == 0) == (case == "warm")


def test_zero_rhs_never_calls_the_operator():
    x, rep = gmres(lambda v: pytest.fail("operator called on b = 0"),
                   np.zeros((2, 8), dtype=complex), x0=np.ones((2, 8)))
    assert rep == KrylovReport(0, 0.0, True, 0) and not np.any(x)


def test_matches_dense_solve(rng):
    n = 48
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 20 * np.eye(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x, rep = gmres(lambda v: A @ v, b, tol=1e-11, restart=30, maxit=300)
    assert rep.converged
    assert np.linalg.norm(x - np.linalg.solve(A, b)) < 1e-9 * np.linalg.norm(x)
    assert np.linalg.norm(A @ x - b) <= 1.01 * rep.residual * np.linalg.norm(b) + 1e-15


def test_exact_warm_start_needs_no_iterations(rng):
    n = 16
    A = rng.standard_normal((n, n)) + 8 * np.eye(n)
    b = rng.standard_normal(n).astype(complex)
    xex = np.linalg.solve(A, b)
    x, rep = gmres(lambda v: A @ v, b, x0=xex)
    assert rep.converged and rep.iterations == 0


def counted(A):
    """The operator v -> A v on flat vectors, and the list of its inputs."""
    seen = []

    def apply(v):
        seen.append(v)
        return A @ v
    return apply, seen


def test_exact_relax_meets_tol_at_the_second_product(rng):
    # on d I the correction x + r / d is the solution: the second residual
    # check meets the tolerance before any Arnoldi step
    d = 2.5 - 0.5j
    b = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    apply, seen = counted(d * np.eye(20))
    x, rep = gmres(apply, b, relax=1 / d)
    assert rep.converged and rep.iterations == 0 and rep.products == len(seen) == 2
    assert seen[-1] is x and rep.residual <= 1e-10
    assert np.linalg.norm(x - b / d) <= 1e-14 * np.linalg.norm(b)


def test_missed_relax_converges_and_counts_only_arnoldi_steps(rng):
    # a correction that misses leaves GMRES to start from it: the same
    # iterations and bits as a plain solve from x0 + relax r, one product
    # more, x0 unwritten, and the report's residual that of the returned x
    A, b, _ = _contract_cases(rng)["converged"]
    b = b.ravel()
    x0 = rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
    x0.flags.writeable = False
    relax = 0.05
    apply, seen = counted(A)
    x, rep = gmres(apply, b, x0=x0, relax=relax)
    corrected = x0 + relax * (b - A @ x0)
    plain_x, plain = gmres(lambda v: A @ v, b, x0=corrected)
    assert rep.converged and rep.iterations == plain.iterations > 0
    assert rep.products == len(seen) == plain.products + 1 == rep.iterations + 3
    assert np.array_equal(x, plain_x) and seen[-1] is x
    assert rep.residual == np.linalg.norm(b - A @ x) / np.linalg.norm(b)


def test_start_that_meets_tol_ignores_relax(rng):
    # a NaN relax would poison x if it were taken
    n = 16
    A = rng.standard_normal((n, n)) + 8 * np.eye(n)
    b = rng.standard_normal(n).astype(complex)
    apply, seen = counted(A)
    x0 = np.linalg.solve(A, b)
    x, rep = gmres(apply, b, x0=x0, relax=math.nan)
    assert rep.converged and rep.iterations == 0 and rep.products == len(seen) == 1
    assert np.shares_memory(x, x0)


def test_shaped_operands_treated_as_flat_vector(rng):
    # the spinor-field tensor goes through as one flat complex vector
    shape = (2, 6, 5)
    diag = 3.0 + rng.random(shape)
    b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x, rep = gmres(lambda v: diag * v, b, tol=1e-12)
    assert x.shape == shape and rep.converged
    assert np.max(np.abs(diag * x - b)) < 1e-10


def test_reports_non_convergence(rng):
    n = 30
    # rotation-like spectrum around the origin defeats restarted GMRES quickly
    A = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    b = np.ones(n, dtype=complex)
    x, rep = gmres(lambda v: A @ v, b, tol=1e-14, restart=4, maxit=12)
    assert not rep.converged
    assert rep.iterations == 12
    assert rep.residual > 1e-14


def test_nan_from_operator_aborts():
    b = np.ones(8, dtype=complex)

    def bad(v):
        out = v.copy()
        out[0] = np.nan
        return out

    with pytest.raises(KrylovError):
        gmres(bad, b)


@pytest.mark.parametrize("bad_call", [1, 2, 4])
def test_nan_caught_by_each_norm(rng, bad_call):
    # operator call 1 gives the initial residual, call 2 the first Arnoldi
    # vector and, with maxit = 2, call 4 the residual returned on exit
    A = rng.standard_normal((8, 8)) + 8.0 * np.eye(8)
    calls = []

    def op(v):
        calls.append(v)
        out = A @ v
        if len(calls) == bad_call:
            out[0] = np.nan
        return out

    with pytest.raises(KrylovError):
        gmres(op, np.ones(8, dtype=complex), tol=1e-14, maxit=2)
    assert len(calls) == bad_call


@pytest.mark.parametrize("option", ["tol", "restart", "maxit"])
def test_nonpositive_options_rejected_before_iterating(option):
    # with restart = 0 every restart cycle runs no iteration, so nothing ends the loop
    with pytest.raises(ValueError, match=option):
        gmres(lambda v: 2 * v, np.ones(4), **{option: 0})


@pytest.mark.parametrize("option,value", [
    ("tol", math.inf),      # skipped the transport: every residual is <= inf
    ("maxit", math.inf),    # no cap on a stalled solve
    ("restart", 2.5),       # crashed inside np.empty
], ids=["tol-inf", "maxit-inf", "restart-fraction"])
def test_non_finite_and_fractional_options_rejected(option, value):
    with pytest.raises(ConfigurationError, match=option):
        KrylovOptions(**{option: value})
    with pytest.raises(ConfigurationError, match=option):
        gmres(lambda v: 2 * v, np.ones(4), **{option: value})


def test_whole_float_counts_are_accepted_as_ints():
    opts = KrylovOptions(restart=5.0, maxit=20.0)
    assert (opts.restart, opts.maxit) == (5, 20) and type(opts.restart) is int
    x, rep = gmres(lambda v: 2 * v, np.ones(4), restart=5.0, maxit=20.0)
    assert rep.converged and np.allclose(x, 0.5)


def test_residual_monotone_within_restart_cycle(rng):
    # truncate the same cycle at increasing depths: GMRES minimizes over a
    # growing Krylov space, so the true residuals must be non-increasing
    n = 60
    A = rng.standard_normal((n, n)) + 6 * np.eye(n)
    b = rng.standard_normal(n).astype(complex)
    residuals = []
    for it in range(1, 13):
        _, rep = gmres(lambda v: A @ v, b, tol=1e-300, restart=20, maxit=it)
        residuals.append(rep.residual)
    assert all(residuals[i + 1] <= residuals[i] * (1 + 1e-10) for i in range(len(residuals) - 1))


def _mgs_gmres(apply, b, x0, tol, restart, maxit):
    """Reference restarted GMRES: per-vector modified Gram-Schmidt (with the
    same severe-cancellation second pass) and numpy Givens rotations."""
    shape, n = b.shape, b.size
    b = b.ravel()
    bnorm = np.linalg.norm(b)
    x = x0.ravel().astype(complex)
    total = 0
    while True:
        r = b - apply(x.reshape(shape)).ravel()
        beta = np.linalg.norm(r)
        if beta / bnorm <= tol or total >= maxit:
            return x.reshape(shape), total
        m = min(restart, maxit - total)
        Q = np.empty((m + 1, n), dtype=complex)
        H = np.zeros((m + 1, m), dtype=complex)
        cs = np.zeros(m, dtype=complex)
        sn = np.zeros(m, dtype=complex)
        g = np.zeros(m + 1, dtype=complex)
        g[0], Q[0] = beta, r / beta
        for k in range(m):
            w = apply(Q[k].reshape(shape)).ravel().copy()
            wnorm0 = np.linalg.norm(w)
            for _ in range(2):
                for j in range(k + 1):
                    hjk = np.vdot(Q[j], w)
                    H[j, k] += hjk
                    w -= hjk * Q[j]
                wnorm = np.linalg.norm(w)
                if wnorm >= 1e-8 * wnorm0:
                    break
            H[k + 1, k] = wnorm
            total += 1
            for j in range(k):
                t = cs[j] * H[j, k] + sn[j] * H[j + 1, k]
                H[j + 1, k] = -np.conj(sn[j]) * H[j, k] + np.conj(cs[j]) * H[j + 1, k]
                H[j, k] = t
            denom = np.hypot(abs(H[k, k]), abs(H[k + 1, k]))
            cs[k], sn[k] = np.conj(H[k, k]) / denom, np.conj(H[k + 1, k]) / denom
            H[k, k] = cs[k] * H[k, k] + sn[k] * H[k + 1, k]
            H[k + 1, k] = 0.0
            g[k + 1] = -np.conj(sn[k]) * g[k]
            g[k] = cs[k] * g[k]
            if abs(g[k + 1]) / bnorm <= tol or total >= maxit:
                break
            Q[k + 1] = w / wnorm
        y = np.linalg.solve(H[:k + 1, :k + 1], g[:k + 1])
        x = x + y @ Q[:k + 1]


def test_exp5_solve_matches_modified_gram_schmidt_reference():
    # the blocked classical Gram-Schmidt solve takes the same path as MGS on
    # the graphene Cayley operator: same iterations, same solution
    from curvedirac.harness import initial_condition, preset_config
    from curvedirac.propagators import StepWorkspace, cn_apply_values, half_potential_step

    cfg = preset_config("exp5", "ci")
    grid = cfg.grid()
    ws = StepWorkspace(cfg.metric, grid, cfg.dt, cfg.pml)
    f = half_potential_step(initial_condition(cfg, grid), ws, "lead")
    b = 2.0 * f.values - cn_apply_values(f.values, ws)      # (I - E) psi

    def apply(v):
        return cn_apply_values(v, ws)

    opts = cfg.krylov
    x, rep = gmres(apply, b, x0=f.values, tol=opts.tol, restart=opts.restart, maxit=opts.maxit)
    xref, iters = _mgs_gmres(apply, b, f.values, opts.tol, opts.restart, opts.maxit)
    assert rep.converged and rep.iterations > opts.restart
    assert rep.iterations == iters
    assert np.linalg.norm(x - xref) <= 1e-12 * np.linalg.norm(xref)


def test_severe_cancellation_pass_keeps_basis_orthonormal(rng):
    # A = I + 1e-10 R: each new Arnoldi vector is 1e-10 of A q_k, so one
    # Gram-Schmidt pass leaves rounding of order eps/1e-10 = 1e-6 in the basis;
    # the second pass restores working precision.  GMRES applies A to each
    # basis vector, so the operator sees the basis.
    n = 200
    R = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    seen = []

    def apply(v):
        seen.append(v.copy())
        return v + 1e-10 * (R @ v)

    _, rep = gmres(apply, b, tol=1e-300, restart=30, maxit=6)
    assert rep.iterations == 6
    Q = np.array(seen[1:7])   # seen[0] is the zero start, seen[7] the exit check
    assert np.allclose(np.linalg.norm(Q, axis=1), 1.0, atol=1e-12)
    assert np.linalg.norm(np.eye(6) - Q.conj() @ Q.T) < 1e-12
