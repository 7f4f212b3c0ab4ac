"""Dense linear-algebra backends: full GMRES and an LU reference solve.

GMRES is written out in full (no restart) with modified Gram-Schmidt and one
reorthogonalization pass, because iteration counts are a reported quantity of
the benchmark harness and must not depend on a library's restart/termination
conventions.  Convergence is declared on the right-hand-side-relative
residual ||b - A x|| / ||b||.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

__all__ = ["SolveReport", "gmres", "lu_solve"]


@dataclass(frozen=True)
class SolveReport:
    """Solution vector plus the solve's diagnostic record."""

    x: np.ndarray = field(repr=False)
    iterations: int
    residual: float
    converged: bool
    method: str = "gmres"


def gmres(A, b, tol: float = 1e-8, maxiter: int | None = None) -> SolveReport:
    """Full GMRES for a dense matrix.

    Stops when ||b - A x_k|| / ||b|| <= tol (monitored via the Arnoldi
    least-squares residual, which is exact in exact arithmetic and protected
    here by reorthogonalization).
    """
    A = np.asarray(A)
    b = np.asarray(b, dtype=complex)
    N = b.size
    if maxiter is None:
        maxiter = N
    maxiter = min(maxiter, N)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return SolveReport(x=np.zeros_like(b), iterations=0, residual=0.0,
                           converged=True)

    V = np.empty((maxiter + 1, N), dtype=complex)
    H = np.zeros((maxiter + 1, maxiter), dtype=complex)
    cs = np.zeros(maxiter, dtype=complex)
    sn = np.zeros(maxiter, dtype=complex)
    g = np.zeros(maxiter + 1, dtype=complex)

    V[0] = b / bnorm
    g[0] = bnorm
    k_done = 0
    res = 1.0
    for k in range(maxiter):
        w = A @ V[k]
        # modified Gram-Schmidt + one reorthogonalization pass
        for i in range(k + 1):
            h = np.vdot(V[i], w)
            H[i, k] = h
            w = w - h * V[i]
        for i in range(k + 1):
            corr = np.vdot(V[i], w)
            H[i, k] += corr
            w = w - corr * V[i]
        hnorm = np.linalg.norm(w)
        H[k + 1, k] = hnorm
        # apply stored Givens rotations to the new column
        for i in range(k):
            t = cs[i] * H[i, k] + sn[i] * H[i + 1, k]
            H[i + 1, k] = -np.conj(sn[i]) * H[i, k] + np.conj(cs[i]) * H[i + 1, k]
            H[i, k] = t
        # new rotation eliminating H[k+1, k]
        a, bb = H[k, k], H[k + 1, k]
        r = np.sqrt(abs(a) ** 2 + abs(bb) ** 2)
        if r == 0.0:
            cs[k], sn[k] = 1.0, 0.0
        else:
            cs[k] = np.conj(a) / r
            sn[k] = np.conj(bb) / r
        H[k, k] = cs[k] * a + sn[k] * bb
        H[k + 1, k] = 0.0
        g[k + 1] = -np.conj(sn[k]) * g[k]
        g[k] = cs[k] * g[k]
        k_done = k + 1
        res = abs(g[k + 1]) / bnorm
        if res <= tol:
            break
        if hnorm == 0.0:
            break  # lucky breakdown: Krylov space exhausted
        if k + 1 < maxiter:
            V[k + 1] = w / hnorm
    # back-substitution for the projected triangular system
    y = scipy.linalg.solve_triangular(H[:k_done, :k_done], g[:k_done])
    x = y @ V[:k_done]
    return SolveReport(x=x, iterations=k_done, residual=float(res),
                       converged=bool(res <= tol), method="gmres")


def lu_solve(A, b) -> SolveReport:
    """Direct dense solve (LAPACK LU), for reference solutions and oracles."""
    M = np.asarray(A)
    b = np.asarray(b, dtype=complex)
    x = scipy.linalg.lu_solve(scipy.linalg.lu_factor(M), b)
    res = float(np.linalg.norm(b - M @ x) / max(np.linalg.norm(b), 1e-300))
    return SolveReport(x=x, iterations=0, residual=res, converged=True,
                       method="lu")
