"""Periodic Fourier-multiplier calculus on 2-component densities.

Symbols are per-mode 2x2 matrices M(n) for n = -n_max .. n_max.  The scalar
building blocks are

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quadrature import _I2, _J

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
    """Per-mode 2x2 multiplier: values[n + n_max] is the matrix at mode n."""

    n_max: int
    values: np.ndarray = field(repr=False)  # (2 n_max + 1, 2, 2) complex

    def at(self, n: int) -> np.ndarray:
        """The 2x2 matrix acting on Fourier mode n."""
        if abs(n) > self.n_max:
            raise ValueError(f"mode {n} outside n_max={self.n_max}")
        return self.values[n + self.n_max]

    # -- algebra on symbols (per-mode matrix operations) --------------------
    def __matmul__(self, other: "Symbol") -> "Symbol":
        _check_same(self, other)
        return Symbol(self.n_max, self.values @ other.values)

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


def identity_symbol(n_max: int) -> Symbol:
    values = np.broadcast_to(_I2, (2 * n_max + 1, 2, 2)).astype(complex).copy()
    return Symbol(n_max=n_max, values=values)


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


def make_symbol(kind: str, kappa: complex | None = None, n_max: int = 256) -> Symbol:
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


def _modes_for(N: int) -> np.ndarray:
    """FFT mode numbers for a length-N grid (fftfreq ordering)."""
    return np.fft.fftfreq(N, d=1.0 / N).astype(int)


def apply_multiplier(symbol: Symbol, density: np.ndarray) -> np.ndarray:
    """Apply the multiplier to a (N, 2) nodal density on the uniform grid.

    Forward FFT per component, per-mode 2x2 multiply, inverse FFT.  Exact on
    band-limited densities up to roundoff.
    """
    density = np.asarray(density)
    if density.ndim != 2 or density.shape[1] != 2:
        raise ValueError("density must have shape (N, 2)")
    N = density.shape[0]
    modes = _modes_for(N)
    if np.abs(modes).max() > symbol.n_max:
        raise ValueError("grid Nyquist mode exceeds symbol n_max")
    fhat = np.fft.fft(density, axis=0)  # (N, 2)
    M = symbol.values[modes + symbol.n_max]  # (N, 2, 2)
    ghat = np.einsum("nij,nj->ni", M, fhat)
    return np.fft.ifft(ghat, axis=0)


def symbol_matrix(symbol: Symbol, n: int) -> np.ndarray:
    """Dense (4n x 4n) matrix realizing the multiplier on the interleaved
    nodal layout of the 2n-point grid (for composition with dense operators)."""
    N = 2 * n
    modes = _modes_for(N)
    if np.abs(modes).max() > symbol.n_max:
        raise ValueError("grid Nyquist mode exceeds symbol n_max")
    F = np.fft.fft(np.eye(N), axis=0)  # F[k, j] = exp(-2 pi i k j / N)
    M = symbol.values[modes + symbol.n_max]  # (N, 2, 2)
    # block (i, j) = (1/N) sum_k e^{i k t_i} M(k) e^{-i k t_j}; its component
    # (a, b) fills the plane out[a::2, b::2]
    out = np.empty((2 * N, 2 * N), dtype=complex)
    for a in range(2):
        for b in range(2):
            out[a::2, b::2] = np.fft.ifft(M[:, a, b][:, None] * F, axis=0)
    return out


def symbol_transpose(symbol: Symbol) -> Symbol:
    """Transpose of the multiplier operator: M(n) -> M(-n)^T per mode."""
    values = np.transpose(symbol.values[::-1], (0, 2, 1)).copy()
    return Symbol(n_max=symbol.n_max, values=values)


def ps_dtn(material, side: str, kappa: complex | None = None,
           n_max: int = 256) -> Symbol:
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
    inner = 0.5 * identity_symbol(n_max) + (sgn * material.alpha) * H
    return (sgn / material.beta) * (lam_inv @ inner)


@dataclass(frozen=True)
class TransmissionRegularizer:
    """Blocks of R_kappa = (1/rho)(C+^k + C-^k)(1/2 I + C-^k) per mode."""

    R11: Symbol
    R12: Symbol
    R21: Symbol
    R22: Symbol
    rho: float
    kappa: tuple  # (kappa_plus, kappa_minus) used in (C+, C-)


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


def make_transmission_regularizer(mat_plus, mat_minus, kappa=None,
                                  n_max: int = 256) -> TransmissionRegularizer:
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
    R = (S @ (0.5 * np.eye(4) + Cm)) / rho  # (m, 4, 4)

    def block(i, j):
        return Symbol(n_max, R[:, 2 * i:2 * i + 2, 2 * j:2 * j + 2].copy())

    return TransmissionRegularizer(R11=block(0, 0), R12=block(0, 1),
                                   R21=block(1, 0), R22=block(1, 1),
                                   rho=rho, kappa=(kap_p, kap_m))


def transmission_operators(mat_plus, mat_minus, kappa: complex,
                           n_max: int = 256):
    """Generalized-Robin transmission operators Upsilon_+/-.

    Upsilon_- = -PS_kappa(Y_+) = +(1/beta+) Lambda_k^{-1} (1/2 I - alpha+ bold-H)
    Upsilon_+ = -PS_kappa(Y_-) = -(1/beta-) Lambda_k^{-1} (1/2 I + alpha- bold-H)

    so Im<Upsilon_+ g, conj g> > 0 and Im<Upsilon_- g, conj g> < 0.
    """
    ups_plus = -1.0 * ps_dtn(mat_minus, "interior", kappa=kappa, n_max=n_max)
    ups_minus = -1.0 * ps_dtn(mat_plus, "exterior", kappa=kappa, n_max=n_max)
    return ups_plus, ups_minus
