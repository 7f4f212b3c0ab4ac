"""Periodic Fourier-multiplier calculus on 2-component densities.

Symbols are per-mode d x d matrices M(n) for n = -n_max .. n_max, with
d = 2 for multipliers on one density and d = 4 for multipliers on Cauchy
data.  The scalar building blocks are

* Lambda^{-1}   : 1 at n = 0, |n| otherwise;
* H             : sign(n), with +1 at n = 0;
* Lambda_kappa  : (n^2 - kappa^2)^{-1/2}, principal square root, and its
  inverse.  With Re kappa > 0, Im kappa > 0 the root (n^2 - kappa^2)^{1/2}
  has Re > 0 and Im < 0, so Lambda_kappa has positive real and imaginary
  parts at every mode (the coercive branch).

The matrix operator bold-H acts per mode as H(n) J with J = [[0,-1],[1,0]],
so bold-H^2 = -I exactly.  From these we build the principal-symbol
Dirichlet-to-Neumann maps, the transmission regularizer R_kappa, and the
generalized-Robin transmission operators Upsilon_+/-.

A Symbol is an operator on the nodal values of the uniform 2n-point grid:
`sym @ x` applies it to the rows of x and `A @ sym` to the columns of A, so
`A @ sym` is A times the multiplier's matrix (symbol_matrix) without forming
it.  Rows are laid out as in the systems: a 2x2 symbol acts on interleaved
nodal 2-vectors (x_0, y_0, x_1, y_1, ...), a 4x4 symbol on stacked Cauchy
data (the 2N trace rows, then the 2N traction rows).  Both products are
FFTs over the nodes (apply_multiplier); x may be a vector or a matrix, and
A @ sym runs on the rows of A as conj(M^H A^H)^T.
A dense multiplier (symbol_matrix) follows the one rule of the quadrature
module: component (a, b) is the circulant of ifft(M(k)[a, b]) at the grid
modes.  Compose per mode (sym @ sym2) and realize the result once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .quadrature import _I2, _J, _grid_modes

__all__ = [
    "Symbol",
    "TransmissionRegularizer",
    "make_symbol",
    "apply_multiplier",
    "symbol_matrix",
    "symbol_transpose",
    "ps_dtn",
    "make_transmission_regularizer",
    "transmission_operators",
]

_SCALAR_KINDS = ("LambdaInv", "H", "LambdaKappa", "LambdaKappaInv")


@dataclass(frozen=True)
class Symbol:
    """Per-mode d x d multiplier: values[n + n_max] is the matrix at mode n.

    sym @ sym2 is the per-mode product; sym @ x and A @ sym apply the
    multiplier to arrays (see the module docstring).
    """

    n_max: int
    values: np.ndarray = field(repr=False)  # (2 n_max + 1, d, d) complex

    __array_ufunc__ = None  # ndarray @ Symbol defers to __rmatmul__

    def at(self, n: int) -> np.ndarray:
        """The d x d matrix acting on Fourier mode n."""
        if abs(n) > self.n_max:
            raise ValueError(f"mode {n} outside n_max={self.n_max}")
        return self.values[n + self.n_max]

    def __matmul__(self, other):
        if not isinstance(other, Symbol):
            return apply_multiplier(self, other)
        _check_same(self, other)
        return Symbol(self.n_max, self.values @ other.values)

    def __rmatmul__(self, other):
        # A M = conj(M^H A^H)^T, with A^H one C-ordered copy so that its rows
        # are A's rows.  The adjoint acts at the same modes, so the grid's
        # Nyquist mode keeps the symbol value that symbol_matrix gives it
        # (M(-n)^T per mode would not).
        adjoint = Symbol(self.n_max, self.values.conj().swapaxes(1, 2).copy())
        out = apply_multiplier(adjoint, np.conjugate(np.asarray(other).T,
                                                    order="C"))
        return np.conjugate(out, out=out).T

    # -- algebra on symbols (per-mode matrix operations) --------------------
    def __add__(self, other: "Symbol") -> "Symbol":
        _check_same(self, other)
        return Symbol(self.n_max, self.values + other.values)

    def __sub__(self, other: "Symbol") -> "Symbol":
        _check_same(self, other)
        return Symbol(self.n_max, self.values - other.values)

    def __rmul__(self, c) -> "Symbol":
        return Symbol(self.n_max, c * self.values)

    def inv(self) -> "Symbol":
        """Per-mode matrix inverse."""
        return Symbol(self.n_max, np.linalg.inv(self.values))


def _check_same(a: Symbol, b: Symbol) -> None:
    if a.n_max != b.n_max:
        raise ValueError("symbols have different n_max")


def _scalar_values(kind: str, kappa, n_max: int) -> np.ndarray:
    n = np.arange(-n_max, n_max + 1, dtype=float)
    if kind == "LambdaInv":
        return np.where(n == 0.0, 1.0, np.abs(n)).astype(complex)
    if kind == "H":
        return np.where(n >= 0.0, 1.0, -1.0).astype(complex)
    # kappa variants
    if kappa is None:
        raise ValueError(f"kind {kind!r} requires kappa")
    kappa = complex(kappa)
    if kappa.imag == 0.0:
        raise ValueError("kappa on the real axis: square-root branch ambiguous")
    if kappa.real <= 0.0 or kappa.imag <= 0.0:
        raise ValueError("kappa must satisfy Re kappa > 0, Im kappa > 0")
    root = np.sqrt(n.astype(complex) ** 2 - kappa**2)  # Re > 0, Im < 0
    if kind == "LambdaKappa":
        return 1.0 / root
    if kind == "LambdaKappaInv":
        return root
    raise ValueError(f"unknown symbol kind {kind!r}")


def make_symbol(kind: str, kappa: complex | None = None, *,
                n_max: int) -> Symbol:
    """Build one of the named multipliers as a per-mode 2x2 Symbol.

    'H' yields the matrix operator bold-H (per mode H(n) J); the remaining
    kinds are scalar multipliers times the identity.
    """
    if kind not in _SCALAR_KINDS:
        raise ValueError(f"unknown symbol kind {kind!r}")
    scal = _scalar_values(kind, kappa, n_max)
    base = _J if kind == "H" else _I2
    values = scal[:, None, None] * base
    return Symbol(n_max=n_max, values=values.astype(complex))


def _on_grid(symbol: Symbol, N: int) -> np.ndarray:
    """The symbol's (N, d, d) values at the N-point grid's modes, FFT order."""
    modes = _grid_modes(N)
    if np.abs(modes).max() > symbol.n_max:
        raise ValueError("grid Nyquist mode exceeds symbol n_max")
    return symbol.values[modes + symbol.n_max]


def apply_multiplier(symbol: Symbol, x: np.ndarray) -> np.ndarray:
    """Apply the multiplier to x, a vector or the columns of a matrix.

    A d x d symbol reads each vector as d/2 stacked blocks of interleaved
    nodal 2-vectors on the N-point grid (length d N; see the module
    docstring).  Forward FFT over the nodes, per-mode d x d multiply,
    inverse FFT.  Exact on band-limited densities up to roundoff.  The
    result has the shape of x and, for C-ordered x, its memory order.
    """
    x = np.asarray(x)
    d = symbol.values.shape[-1]
    N, rest = divmod(len(x), d)
    if rest or N == 0:
        raise ValueError(f"length {len(x)} does not hold {d} values per node")
    M = _on_grid(symbol, N).reshape(N, d // 2, 2, d // 2, 2)
    lanes = x.reshape(d // 2, N, 2, -1)
    fhat = np.fft.fft(lanes, axis=1)
    step = -(-N // 8)  # in place, by eighths: 1/8 of fhat more memory
    for k in range(0, N, step):
        m = slice(k, k + step)
        fhat[:, m] = np.einsum("kpaqb,qkbj->pkaj", M[m], fhat[:, m])
    return np.fft.ifft(fhat, axis=1, out=fhat).reshape(x.shape)


def symbol_matrix(symbol: Symbol, n: int) -> np.ndarray:
    """Dense (4n x 4n) matrix realizing the multiplier on the interleaved
    nodal layout of the 2n-point grid.  Block (i, j) is (1/N) sum_k e^{i k t_i}
    M(k) e^{-i k t_j}: plane out[a::2, b::2] is circulant(ifft(M[:, a, b]))."""
    M = _on_grid(symbol, 2 * n)
    out = np.empty((4 * n, 4 * n), dtype=complex)
    for a in range(2):
        for b in range(2):
            out[a::2, b::2] = scipy.linalg.circulant(np.fft.ifft(M[:, a, b]))
    return out


def symbol_transpose(symbol: Symbol) -> Symbol:
    """Transposed multiplier symbol: M(n) -> M(-n)^T per mode (the transpose
    of the multiplier except at a grid's Nyquist mode)."""
    values = np.transpose(symbol.values[::-1], (0, 2, 1)).copy()
    return Symbol(n_max=symbol.n_max, values=values)


def ps_dtn(material, side: str, kappa: complex | None = None, *,
           n_max: int) -> Symbol:
    """Principal symbol of the Dirichlet-to-Neumann map.

    exterior: -(1/beta) Lambda^{-1} (1/2 I - alpha bold-H)
    interior: +(1/beta) Lambda^{-1} (1/2 I + alpha bold-H)

    and the complexified variants with Lambda_kappa^{-1} when kappa is given.
    """
    if side not in ("exterior", "interior"):
        raise ValueError("side must be 'exterior' or 'interior'")
    lam_inv = make_symbol("LambdaInv" if kappa is None else "LambdaKappaInv",
                          kappa=kappa, n_max=n_max)
    H = make_symbol("H", n_max=n_max)
    sgn = -1.0 if side == "exterior" else 1.0
    inner = Symbol(n_max, 0.5 * _I2 + (sgn * material.alpha) * H.values)
    return (sgn / material.beta) * (lam_inv @ inner)


# P = [[0, I], [-I, 0]] on Cauchy data: P X P^T = [[X22, -X21], [-X12, X11]]
_P = np.kron([[0.0, 1.0], [-1.0, 0.0]], _I2)


@dataclass(frozen=True)
class TransmissionRegularizer:
    """R_kappa = (1/rho)(C+^k + C-^k)(1/2 I + C-^k) as a 4x4 symbol on
    Cauchy data, with blocks R = [[R11, R12], [R21, R22]]."""

    R: Symbol

    @property
    def RT(self) -> Symbol:
        """Block transpose [[R22^T, -R12^T], [-R21^T, R11^T]] of R, with
        multiplier transposes: P R(-n)^T P^T per mode."""
        return Symbol(self.R.n_max, _P @ symbol_transpose(self.R).values @ _P.T)


def _calderon_symbol(material, kappa: complex, n_max: int) -> np.ndarray:
    """Per-mode 4x4 principal Calderon symbol C^kappa of one material:
    [[alpha H, -beta L_k], [delta L_k^{-1}, -alpha H]]."""
    lk = _scalar_values("LambdaKappa", kappa, n_max)  # (2n_max+1,)
    H = _scalar_values("H", None, n_max)
    m = 2 * n_max + 1
    C = np.zeros((m, 4, 4), dtype=complex)
    aH = material.alpha * H[:, None, None] * _J
    C[:, 0:2, 0:2] = aH
    C[:, 0:2, 2:4] = -material.beta * lk[:, None, None] * _I2
    C[:, 2:4, 0:2] = material.delta * (1.0 / lk)[:, None, None] * _I2
    C[:, 2:4, 2:4] = -aH
    return C


def rho_constant(mat_plus, mat_minus) -> float:
    """Closed-form rho = -[(b+ + b-)(d+ + d-) - (a+ + a-)^2], simplified to a
    ratio of Lame-parameter polynomials.

    With t = mu/(lam + 2 mu), s = mu-/mu+, P = (1 + t+)(1 - t-) and
    Q = (1 + t-)(1 - t+), rho = (1 + t+ t-)/2 + (P s + Q/s)/4, so

        rho >= cos^2((theta+ - theta-)/2),  theta = arccos t,

    with equality at s = sqrt(Q/P).  rho = 1 when s = 1 or s = Q/P, and
    rho < 1 exactly when s lies strictly between 1 and Q/P.  rho > 1/2 for
    every admissible pair (lam + mu > 0), and rho > (2 + sqrt 3)/4 when
    lam+, lam- >= 0.
    """
    lp, mp = mat_plus.lam, mat_plus.mu
    lm, mm = mat_minus.lam, mat_minus.mu
    num = (lp * (mp + mm) + mp * (mp + 3.0 * mm)) * (
        lm * (mp + mm) + mm * (3.0 * mp + mm)
    )
    den = 4.0 * mp * mm * (lp + 2.0 * mp) * (lm + 2.0 * mm)
    return num / den


def make_transmission_regularizer(mat_plus, mat_minus, kappa=None, *,
                                  n_max: int) -> TransmissionRegularizer:
    """Build R_kappa = (1/rho)(C+^k + C-^k)(1/2 I + C-^k) mode by mode.

    kappa: a shared complexified wavenumber used in both Calderon symbols,
    or None (default) to complexify each material's symbol with its own
    kappa = ks + 0.4i ks^(1/3); the per-material choice is the one used by
    the iteration-count benchmarks.  The exact algebraic identities
    (C+ + C-)^2 = rho I and (C+ + C-) R = 1/2 I + C- hold only for a
    shared kappa.
    """
    if kappa is None:
        kap_p, kap_m = complex(mat_plus.kappa), complex(mat_minus.kappa)
    else:
        kap_p = kap_m = complex(kappa)
    Cp = _calderon_symbol(mat_plus, kap_p, n_max)
    Cm = _calderon_symbol(mat_minus, kap_m, n_max)
    S = Cp + Cm
    rho = rho_constant(mat_plus, mat_minus)
    if kap_p == kap_m:
        # Consistency of the closed-form rho with (C+ + C-)^2 = rho I.
        probe = S[n_max + 1] @ S[n_max + 1]
        if not np.allclose(probe, rho * np.eye(4), atol=1e-11 * max(1.0, rho)):
            raise AssertionError("(C+ + C-)^2 = rho I failed at mode 1")
    R = Symbol(n_max, (S @ (0.5 * np.eye(4) + Cm)) / rho)
    return TransmissionRegularizer(R=R)


def transmission_operators(mat_plus, mat_minus, kappa: complex, *,
                           n_max: int):
    """Generalized-Robin transmission operators Upsilon_+/-.

    Upsilon_- = -PS_kappa(Y_+) = +(1/beta+) Lambda_k^{-1} (1/2 I - alpha+ bold-H)
    Upsilon_+ = -PS_kappa(Y_-) = -(1/beta-) Lambda_k^{-1} (1/2 I + alpha- bold-H)

    so Im<Upsilon_+ g, conj g> > 0 and Im<Upsilon_- g, conj g> < 0.
    """
    ups_plus = -1.0 * ps_dtn(mat_minus, "interior", kappa=kappa, n_max=n_max)
    ups_minus = -1.0 * ps_dtn(mat_plus, "exterior", kappa=kappa, n_max=n_max)
    return ups_plus, ups_minus
