"""Dense linear-algebra backends: full GMRES and an LU reference solve.

GMRES is written out in full (no restart) because iteration counts are a
reported quantity of the benchmark harness and must not depend on a
library's restart/termination conventions.  The Arnoldi basis is kept
orthogonal by classical Gram-Schmidt applied twice (CGS2, "twice is
enough"), two matrix-vector products with the stored basis per pass.  The
product Q of the Givens rotations (lower Hessenberg) rotates a new column in
one product, a new rotation changes two rows of Q, the rotated right-hand
side is ||b|| Q[:, 0], and convergence is declared on ||b - A x|| / ||b||.
The basis, the triangular factor H and Q start with room for 64 iterations
and double as needed, so a solve's memory grows with the iterations it
runs, not with maxiter.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

__all__ = ["SolveReport", "gmres", "lu_solve"]


@dataclass(frozen=True)
class SolveReport:
    """Solution vector plus the solve's diagnostic record.

    history holds the monitored relative residual after each iteration;
    reason says why the solve stopped: "tol" (converged), "maxiter", or
    "breakdown" (a singular projected system).
    """

    x: np.ndarray = field(repr=False)
    iterations: int
    residual: float
    converged: bool
    method: str = "gmres"
    history: tuple = field(default=(), repr=False)
    reason: str = "tol"


def gmres(A, b, tol: float = 1e-8, maxiter: int | None = None) -> SolveReport:
    """Full GMRES for any operand A that supports A @ x.

    Stops when ||b - A x_k|| / ||b|| <= tol (monitored via the Arnoldi
    least-squares residual, which is exact in exact arithmetic and protected
    here by reorthogonalization).  A zero pivot of the projected system
    stops the solve unconverged, with the iterate of the steps before it.
    """
    if not (maxiter is None
            or isinstance(maxiter, numbers.Integral) and maxiter >= 1):
        raise ValueError(f"maxiter {maxiter!r} is not None or an integer >= 1")
    b = np.asarray(b, dtype=complex)
    N = b.size
    maxiter = N if maxiter is None else min(maxiter, N)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return SolveReport(x=np.zeros_like(b), iterations=0, residual=0.0,
                           converged=True)

    # V, H and Q grow by doubling, with the iterations run, not with maxiter
    size = min(maxiter + 1, 64)
    V = np.empty((size, N), dtype=complex)
    H = np.zeros((size, size), dtype=complex)
    Q = np.zeros((size, size), dtype=complex)
    Q[0, 0] = 1.0
    history = []
    V[0] = b / bnorm
    res = 1.0
    reason = "maxiter"
    for k in range(maxiter):
        w = A @ V[k]
        Vk = V[:k + 1]
        # CGS2; (Vk @ w.conj()).conj() avoids copying the basis as Vk.conj()
        h = (Vk @ w.conj()).conj()
        w = w - h @ Vk
        c = (Vk @ w.conj()).conj()
        w = w - c @ Vk
        hnorm = float(np.linalg.norm(w))
        col = Q[:k + 1, :k + 1] @ (h + c)  # the rotations so far, applied
        # new rotation (cs, sn) eliminating the subdiagonal entry hnorm
        a = complex(col[k])
        r = (abs(a) ** 2 + hnorm ** 2) ** 0.5
        if r == 0.0:
            reason = "breakdown"
            break
        cs, sn = a.conjugate() / r, hnorm / r
        if k + 2 > size:
            size = min(2 * size, maxiter + 1)
            V = np.pad(V, ((0, size - len(V)), (0, 0)))
            H = np.pad(H, (0, size - len(H)))
            Q = np.pad(Q, (0, size - len(Q)))
        H[:k, k] = col[:k]
        H[k, k] = cs * a + sn * hnorm
        # the rotation changes rows k and k+1 of Q (row k+1 was e_{k+1})
        Q[k + 1, :k + 1] = -sn * Q[k, :k + 1]
        Q[k + 1, k + 1] = cs.conjugate()
        Q[k, :k + 1] *= cs
        Q[k, k + 1] = sn
        res = float(abs(Q[k + 1, 0]))
        history.append(res)
        if res <= tol:
            reason = "tol"
            break
        if hnorm == 0.0:
            reason = "breakdown"
            break
        if k + 1 < maxiter:
            V[k + 1] = w / hnorm
    # back-substitution for the projected triangular system
    k_done = len(history)
    y = scipy.linalg.solve_triangular(H[:k_done, :k_done],
                                      bnorm * Q[:k_done, 0])
    x = y @ V[:k_done]
    return SolveReport(x=x, iterations=k_done, residual=res,
                       converged=reason == "tol", history=tuple(history),
                       reason=reason)


def lu_solve(A, b) -> SolveReport:
    """Direct dense solve (LAPACK LU), for reference solutions and oracles."""
    M = np.asarray(A)
    b = np.asarray(b, dtype=complex)
    x = scipy.linalg.lu_solve(scipy.linalg.lu_factor(M), b)
    res = float(np.linalg.norm(b - M @ x) / max(np.linalg.norm(b), 1e-300))
    return SolveReport(x=x, iterations=0, residual=res, converged=True,
                       method="lu")
