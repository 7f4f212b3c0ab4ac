"""Elastodynamic boundary-integral kernels and their singularity splittings.

Kernels are expressed in the parameterized convention with ROW index tau
(observation) and COLUMN index t (integration), r = x(tau) - x(t) and
UNNORMALIZED normals nu = (x2', -x1'):

    V (tau,t)  = Phi(x(tau), x(t))                      single layer
    K (tau,t)  = [T_t Phi(x(tau), x(t))]^T              double layer
    W (tau,t)  =  T_tau [T_t Phi(x(tau), x(t))]^T       hypersingular

Every kernel is split as

    kernel = c_hs (1/4pi) csc^2((tau-t)/2) I
           + c_pv (1/4pi) cot((tau-t)/2) J        (J = [[0,-1],[1,0]])
           + M_log(tau,t) log(4 sin^2((tau-t)/2))
           + M_smooth(tau,t)

with smooth biperiodic matrices M_log, M_smooth.  M_log is computed
analytically: replacing every radial Hankel function phi_j by the coefficient
of log z in its small-argument splitting (i.e. phi_j -> -(1/2pi) J_j) turns a
kernel formula into the formula for its log r coefficient, and the factor 1/2
converts log r into log(4 sin^2((tau-t)/2)).  M_smooth follows by subtraction
off the diagonal; diagonal values of M_smooth (and of M_log for W) are
obtained by even-part Richardson extrapolation along the parameterization.

Evaluation.  One evaluator, `_Pairs.kernel`, gives V, K and W on a batch of
point pairs from a radial suite: each kernel is a set of coefficient fields,
linear in the suite, on the outer products of the row normal m, the column
normal n and r (and on I), contracted one 2x2 component at a time.  Since a
kernel is linear in its suite, every split value is the kernel of a weighted
suite a H + b L of the Hankel suite H and the log suite L: M_log has weights
(0, 1/2) and M_smooth (1, -1/2 log 4 sin^2) less the singular parts.  So an
assembled operator entry off the diagonal, w M_smooth + 2 pi R M_log plus the
c_hs T and c_pv pv terms, is the kernel of w H + beta L, with
beta = (2 pi R - w log 4 sin^2)/2, plus terms that depend on the node offset
only; `_assemble` writes it straight into the operator.  Kernels are
evaluated on the N(N-1)/2 node pairs i < j only: r and the radial suites are
symmetric under the swap of the two points, V and W are block-symmetric (the
lower triangle is the block transpose of the upper one), and K's lower
triangle is K's formula with r negated and the normals exchanged, on the same
suites.  Assembly takes those pairs in row blocks of a fixed number of pairs
(`_PAIR_BLOCK`), so none of its temporaries grows with N^2, and one pass over
them serves one or two materials: each block's geometry is built once, and
each entry written is the sum, with coefficients +-1, of the materials'
kernels (the transmission systems' C- - C+ and C+ + C-).  The adjoint
double layer K^T is K's transpose.  Splits are stored component-major, as
(2, 2, N, N) arrays indexed [p, q, i, m].
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .quadrature import _I2, _J, _weight_columns
from .special import RadialSuite, radial_suite

__all__ = ["KernelSplit", "kernel_split", "TAGS"]

TAGS = ("V", "K", "W")


# ---------------------------------------------------------------------------
# pointwise kernel evaluation, component-major: a batch of vectors is a
# (2, ...) array and a batch of 2x2 tensors a (2, 2, ...) array
# ---------------------------------------------------------------------------


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


class _Pairs:
    """Real geometry of a batch of (row, column) point pairs, and the
    kernels V, K and W of any material on it.

    With r = x_row - x_col, rho = 1/r^2, m the row normal and n the column
    normal, each kernel is a sum of coefficient fields times the outer
    products of m, n and r and times I.  The coefficients are linear in the
    radial suite, so a kernel of a weighted sum of suites is the weighted sum
    of the kernels.  The row normal enters W only and may be None otherwise.
    The material's Lame constants enter the coefficients only.
    """

    def __init__(self, x_r, nu_r, x_c, nu_c):
        self.m, self.n = nu_r, nu_c
        self.rvec = x_r - x_c
        r2 = _dot(self.rvec, self.rvec)
        self.r = np.sqrt(r2)
        self.rho = 1.0 / r2

    def swapped(self):
        """The same pairs with row and column exchanged: r negated and the
        normals swapped."""
        out = copy.copy(self)
        out.rvec, out.m, out.n = -self.rvec, self.n, self.m
        return out

    def components(self, material, tag, rs):
        """Yield (p, q, component (p, q)) of kernel `tag` (V, K or W) of
        `material` from its radial suite rs: the coefficient fields
        contracted with component (p, q) of their outer products, one
        component at a time."""
        terms, diag = getattr(self, f"_{tag}")(material, rs)
        for p in range(2):
            for q in range(2):
                (c, a, b), *rest = terms
                acc = c * (a[p] * b[q])
                for c, a, b in rest:
                    acc += c * (a[p] * b[q])
                if p == q:
                    acc += diag
                yield p, q, acc

    def kernel(self, material, tag, rs):
        """Kernel `tag` of `material` from its radial suite rs, as (2, 2, ...)
        values."""
        values = [[None, None], [None, None]]
        for p, q, component in self.components(material, tag, rs):
            values[p][q] = component
        return np.array(values)

    def _V(self, material, rs):
        # V = Phi1 I + Phi2 G with G = rho r r^T
        return [(rs.Phi2 * self.rho, self.rvec, self.rvec)], rs.Phi1

    def _radial(self, rs):
        """f1 = Phi1'/r, f2 = Phi2'/r and f3 = Phi2/r^2."""
        inv_r = 1.0 / self.r
        return rs.dPhi1 * inv_r, rs.dPhi2 * inv_r, rs.Phi2 * self.rho

    def _K(self, material, rs):
        # K = -f1 A - f2 G A - f3 C with A = U1(n, r)^T, C = U2(n, r)^T:
        #   A   = lam r n^T + mu n r^T + mu s_n I,
        #   G A = lam r n^T + 2 mu s_n rho r r^T,
        #   C   = (lam + 2 mu) r n^T + mu n r^T - 4 mu s_n rho r r^T + mu s_n I.
        lam, mu, r, n = material.lam, material.mu, self.rvec, self.n
        f1, f2, f3 = self._radial(rs)
        s_n = _dot(n, r)
        c_nr = -mu * (f1 + f3)
        return ([(-lam * (f1 + f2) - (lam + 2.0 * mu) * f3, r, n),
                 (c_nr, n, r),
                 ((2.0 * mu * self.rho * s_n) * (2.0 * f3 - f2), r, r)],
                s_n * c_nr)

    # The hypersingular kernel W = T_m K is
    #   W = -f1' U1(m, r) A - f1 T A - f2' U1(m, r) G A - f2 T[G A]
    #       - f3' U1(m, r) C - f3 T C,
    # with f' = (f/r)'/r, from T_m[f(r) I] = (f'/r) U1(m, r) and the tractions
    # at the row point of A, G A and C, from the identities
    #   T[G] = (1/r^2) U2(m, r),       T[r n^T] = 2(lam+mu) m n^T,
    #   T[n r^T] = T[(n.r) I] = lam m n^T + mu n m^T + mu (m.n) I,
    #   T[w r^T] = lam m w^T + mu w m^T + mu (m.w) I + T(w) r^T.
    # With s_m = m.r, s_n = n.r and rho = 1/r^2:
    #   U1(m, r) A   = lam^2 r^2 m n^T + 2 lam mu (s_n m r^T + s_m r n^T)
    #                  + mu^2 ((m.n) r r^T + s_n r m^T + s_m n r^T + s_m s_n I)
    #   U1(m, r) G A = lam^2 r^2 m n^T + 2 lam mu (s_n m r^T + s_m r n^T)
    #                  + 4 mu^2 s_m s_n G
    #   U1(m, r) C   = U1(m, r) A + 2 lam mu r^2 m n^T + 4 mu^2 s_m r n^T
    #                  - 4 lam mu s_n m r^T - 8 mu^2 s_m s_n G
    #   T A   = 2 lam (lam+2mu) m n^T + 2 mu^2 (n m^T + (m.n) I)
    #   T[GA] = 2 lam (lam+mu) m n^T + 4 mu (lam+mu) Z + 2 mu^2 (X + Y)
    #   T C   = (2 (lam+2mu)(lam+mu) + 2 lam mu) m n^T
    #           + 2 mu^2 (n m^T + (m.n) I) - 8 mu (lam+mu) Z - 4 mu^2 (X + Y)
    # with X = rho (s_n r m^T + s_m n r^T + s_m s_n I),
    # Y = ((m.n) - 4 rho s_m s_n) G and Z = rho s_n m r^T.  Collected on each
    # outer product, with a_k = r^2 f_k' (a1 = Phi1'' - f1, a2 = Phi2'' - f2,
    # a3 = f2 - 2 f3),
    #   W = c_mn m n^T + y (n m^T + (m.n) I) + rho s_n c_mr m r^T
    #       + rho s_m c_rn r n^T + x X
    #       + rho ((m.n) x - 4 mu^2 rho s_m s_n (a2 - 4 f2 + 8 f3)) r r^T
    # with x = -mu^2 (a1 + a3 + 2 f2 - 4 f3), y = -2 mu^2 (f1 + f3) and
    # c_mn, c_mr, c_rn as below.

    def _W(self, material, rs):
        lam, mu = material.lam, material.mu
        m, n, r, rho = self.m, self.n, self.rvec, self.rho
        lm, mm = lam * mu, mu * mu
        f1, f2, f3 = self._radial(rs)
        a1, a2, a3 = rs.d2Phi1 - f1, rs.d2Phi2 - f2, f2 - 2.0 * f3
        x = -mm * (a1 + a3 + 2.0 * f2 - 4.0 * f3)
        y = -2.0 * mm * (f1 + f3)
        c_mn = (-lam * lam * (a1 + a2) - lam * (lam + 2.0 * mu) * (a3 + 2.0 * f1)
                - 2.0 * lam * (lam + mu) * f2
                - (2.0 * (lam + 2.0 * mu) * (lam + mu) + 2.0 * lm) * f3)
        c_mr = 2.0 * lm * (a3 - a1 - a2) + 4.0 * mu * (lam + mu) * (2.0 * f3 - f2)
        c_rn = -2.0 * lm * (a1 + a2) - 2.0 * mu * (lam + 2.0 * mu) * a3
        c_rr = a2 - 4.0 * f2 + 8.0 * f3
        del f1, f2, f3, a1, a2, a3  # freed: the factors below scale in place
        s_m, s_n, s_mn = _dot(m, r), _dot(n, r), _dot(m, n)
        rho_s_m, rho_s_n = rho * s_m, rho * s_n
        c_mr *= rho_s_n
        c_rn *= rho_s_m
        c_rr *= 4.0 * mm * rho_s_m * s_n
        np.subtract(s_mn * x, c_rr, out=c_rr)
        c_rr *= rho
        diag = (rho_s_m * s_n) * x + s_mn * y
        x_rm = rho_s_n * x
        x *= rho_s_m
        return ([(c_mn, m, n), (y, n, m), (c_mr, m, r), (c_rn, r, n),
                 (x_rm, r, m), (x, n, r), (c_rr, r, r)], diag)


def _radial_suites(material, r, tags):
    """Log-basis and Hankel-basis radial suites at the distances r."""
    return radial_suite(material, r, basis=("log", "hankel"), second="W" in tags)


def _weighted(suites, a, b):
    """The radial suite a H + b L of the suites (L, H) = `suites`, for a
    scalar a and scalar or per-pair b; a = 0 gives the real suite b L."""
    return RadialSuite(*(None if h is None else (b * l if a == 0 else a * h + b * l)
                         for l, h in zip(*suites)))


def _c_hs(material, tag):
    if tag == "W":
        return -material.delta  # = mu (lam + mu)/(lam + 2 mu)
    return 0.0


def _c_pv(material, tag):
    if tag == "K":
        return -material.mu / (material.lam + 2.0 * material.mu)
    return 0.0


def _subtract_singular(material, tag, dtau, values):
    """values -= c_hs (1/4pi) csc^2(d/2) I + c_pv (1/4pi) cot(d/2) J at
    offsets d = dtau, in place on (2, 2, ...) values."""
    chs = _c_hs(material, tag)
    cpv = _c_pv(material, tag)
    if chs != 0.0:
        csc2 = chs / (4.0 * np.pi) / np.sin(0.5 * dtau) ** 2
        values[0, 0] -= csc2
        values[1, 1] -= csc2
    if cpv != 0.0:
        cot = cpv / (4.0 * np.pi) / np.tan(0.5 * dtau)
        values[0, 1] += cot  # J = [[0, -1], [1, 0]]
        values[1, 0] -= cot


def _smooth_values(material, pairs, suites, tags, dtau):
    """M_smooth of each kernel of `tags` on pairs off the diagonal at
    parameter offsets dtau: the kernel of the suites weighted
    (1, -1/2 log 4 sin^2), less the singular parts."""
    smooth = _weighted(suites, 1.0, -0.5 * np.log(4.0 * np.sin(0.5 * dtau) ** 2))
    values = [pairs.kernel(material, tag, smooth) for tag in tags]
    for tag, v in zip(tags, values):
        _subtract_singular(material, tag, dtau, v)
    return values


@dataclass(frozen=True)
class KernelSplit:
    """Split of one boundary-integral kernel on a grid.

    kernel[i, m] = c_hs (1/4pi) csc^2((t_i - t_m)/2) I
                 + c_pv (1/4pi) cot((t_i - t_m)/2) J
                 + M_log[:, :, i, m] log(4 sin^2((t_i - t_m)/2))
                 + M_smooth[:, :, i, m]

    M_log and M_smooth have shape (2, 2, N, N): component (p, q) of the 2x2
    block of the node pair (i, m) is M[p, q, i, m].
    """

    c_hs: float
    c_pv: complex
    M_log: np.ndarray = field(repr=False)
    M_smooth: np.ndarray = field(repr=False)


# Diagonal extrapolation steps h_j = h_0 2^(-j/2) over h_0, and the weight of
# the samples at +-h_j: half the Lagrange weight at 0 of the interpolant in h^2.
_STEPS = (0.5**0.5) ** np.arange(7)
_LIMIT_WEIGHTS = np.tile([0.5 * np.prod([x / (x - xj) for x in np.delete(
    _STEPS**2, j)]) for j, xj in enumerate(_STEPS**2)], 2)


def _check_tags(tags) -> tuple:
    tags = tuple(dict.fromkeys(tags))
    for tag in tags:
        if tag not in TAGS:
            raise ValueError(f"unknown kernel tag {tag!r}; expected one of {TAGS}")
    return tags


def _diagonal_limits(material, grid, tags) -> tuple[dict, dict]:
    """Diagonal limits, as (2, 2, N) component arrays, of M_smooth and M_log
    for every tag.

    M_smooth (and W's M_log, the suites weighted (0, 1/2)) is evaluated at
    the parameter pairs (t_i +- h, t_i) of all steps h from one pair-geometry
    build and extrapolated to h -> 0 as one weighted sum, which interpolates
    its even part in h^2.  M_log of V is -beta/(2 pi) I (L Phi2 = O(r^2) and G
    stays bounded, so only (1/2) L Phi1(0) I survives); K's vanishes.

    Steps stay >= ~4e-3 so the subtractive evaluation of the remainder never
    enters its rounding-noise regime (the hypersingular remainder is computed
    as a difference of csc^2-sized terms); the ratio 1/sqrt(2) trades step
    count for depth, which the interpolation in h^2 converts into ~1e-8
    absolute accuracy of the diagonal limits.
    """
    curve, t = grid.curve, grid.t[None, :]
    hs = min(5e-2, 0.8 / material.ks) * _STEPS
    tau = t + np.concatenate([hs, -hs])[:, None]  # offsets +hs, then -hs
    pairs = _Pairs(*(np.moveaxis(v, -1, 0) for v in (
        curve.eval(tau), curve.normal(tau), curve.eval(t), curve.normal(t))))
    suites = _radial_suites(material, pairs.r, tags)
    vals = _smooth_values(material, pairs, suites, tags, tau - t)
    if "W" in tags:
        vals.append(pairs.kernel(material, "W", _weighted(suites, 0.0, 0.5)))
    limits = np.tensordot(np.stack(vals), _LIMIT_WEIGHTS, axes=([-2], [0]))
    N = grid.size
    logs = {"V": np.broadcast_to((-material.beta / (2.0 * np.pi) * _I2)[:, :, None],
                                 (2, 2, N)),
            "K": np.zeros((2, 2, N))}
    if "W" in tags:
        logs["W"] = limits[-1].real  # the log basis is real
    return dict(zip(tags, limits)), {tag: logs[tag] for tag in tags}


def _node_pairs(grid, rows, cols):
    """Pair geometry of the grid nodes rows[k] (row) and cols[k] (column)."""
    # take() keeps the (2, P) rows contiguous; x.T[:, i] would interleave them
    x, nu = grid.x.T, grid.nu.T
    return _Pairs(x.take(rows, 1), nu.take(rows, 1), x.take(cols, 1), nu.take(cols, 1))


def kernel_split(material, grid, tag: str) -> KernelSplit:
    """Compute the four-way singularity split of kernel `tag` on `grid`.

    Off the diagonal, M_log and M_smooth are the kernel of the suites
    weighted (0, 1/2) and (1, -1/2 log 4 sin^2), the latter less the singular
    parts, on the pairs i < j and, for K, on the swapped pairs; V and W fill
    their lower triangle by block transposition.
    """
    (tag,) = _check_tags((tag,))
    N = grid.size
    i, j = np.triu_indices(N, 1)
    d = grid.t[i] - grid.t[j]
    upper = _node_pairs(grid, i, j)
    suites = _radial_suites(material, upper.r, (tag,))
    log_suite = _weighted(suites, 0.0, 0.5)
    ups = (upper.kernel(material, tag, log_suite),
           *_smooth_values(material, upper, suites, (tag,), d))
    if tag == "K":
        swapped = upper.swapped()
        lows = (swapped.kernel(material, tag, log_suite),
                *_smooth_values(material, swapped, suites, (tag,), -d))
    else:
        lows = tuple(v.swapaxes(0, 1) for v in ups)
    smooth_diag, log_diag = _diagonal_limits(material, grid, (tag,))
    flat_up, flat_low, flat_diag = i * N + j, j * N + i, np.arange(N) * (N + 1)

    def plane(up, low, diagonal):
        """(2, 2, N, N) planes from the values on the pairs i < j, the swapped
        pairs and the diagonal, written through flat indices."""
        out = np.empty((2, 2, N * N), dtype=np.result_type(up, diagonal))
        out[:, :, flat_up] = up
        out[:, :, flat_low] = low
        out[:, :, flat_diag] = diagonal
        return out.reshape(2, 2, N, N)

    return KernelSplit(_c_hs(material, tag), _c_pv(material, tag),
                       plane(ups[0], lows[0], log_diag[tag]),
                       plane(ups[1], lows[1], smooth_diag[tag]))


# The tensors that the node-offset terms of _upper_pairs multiply: c_hs (...) I
# for W and c_pv (...) J^T for K.
_OFFSET_TERM_PATTERN = {"V": np.zeros((2, 2)), "K": _J.T, "W": _I2}

# Node pairs per block of the assembly, fixed by timing calderon_matrix for
# blocks of 1024 to 16384 pairs at n = 128, 256 and 512: smaller blocks were
# slower, larger ones no faster.  A block's temporaries take about 3 MiB for
# one material and 4 MiB for two, whatever the grid size.
_PAIR_BLOCK = 4096


def _pair_blocks(N):
    """The node pairs i < j in row-major order, in blocks of _PAIR_BLOCK
    pairs (the last one shorter), as index arrays (i, j) found from the
    first pair of each row."""
    per_row = np.arange(N - 1, -1, -1)
    row_start = np.cumsum(per_row) - per_row  # row i's first pair
    total = N * (N - 1) // 2
    for start in range(0, total, _PAIR_BLOCK):
        k = np.arange(start, min(start + _PAIR_BLOCK, total))
        i = np.searchsorted(row_start, k, side="right") - 1
        yield i, k - row_start[i] + i + 1


def _upper_pairs(materials, grid, tags, columns, i, j):
    """What assembly reads on the node pairs (i, j), i < j: their geometry
    and, per material, the weighted suite w H + beta L and the node-offset
    terms c_hs (T - w csc^2/4pi) of W and c_pv (w cot/4pi + pv/2) of K, where
    columns holds the first columns of R, T and pv."""
    R, T, pv = columns
    w = np.pi / grid.n
    # R, T and pv are circulants: entry (i, j) is entry (i - j) mod N of
    # their first column
    offset = i - j + grid.size
    half = 0.5 * (grid.t[i] - grid.t[j])
    sin2 = np.sin(half) ** 2
    beta = 0.5 * (2.0 * np.pi * R[offset] - w * np.log(4.0 * sin2))
    pairs = _node_pairs(grid, i, j)
    weights = {}
    if "W" in tags:
        weights["W"] = T[offset] - w / (4.0 * np.pi) / sin2
    if "K" in tags:
        weights["K"] = w / (4.0 * np.pi) / np.tan(half) + 0.5 * pv[offset]
    constants = {"W": _c_hs, "K": _c_pv}
    suites = [_weighted(_radial_suites(material, pairs.r, tags), w, beta)
              for material in materials]
    terms = [{tag: constants[tag](material, tag) * weight
              for tag, weight in weights.items()} for material in materials]
    return pairs, suites, terms


def _signed_sum(values, coefs, out):
    """sum_k coefs[k] values[k] for coefficients -1, 0 or 1: values[k]
    itself for a single coefficient 1, else computed in `out`.  Positive
    terms go first; a sum of two terms is then one IEEE a + b or
    a - b = a + (-b), which rounds to the same bits in either order."""
    (c, acc), *rest = sorted(((c, v) for c, v in zip(coefs, values) if c),
                             key=lambda term: -term[0])
    if c < 0:
        acc = np.negative(acc, out=out)
    for c, v in rest:
        acc = (np.add if c > 0 else np.subtract)(acc, v, out=out)
    return acc


def _assemble(materials, grid, shapes, blocks) -> list:
    """The C-ordered complex arrays of `shapes`, all with the same number of
    columns, that hold the dense operators `blocks` names.

    blocks maps each kernel tag to its targets (a, start, coefs,
    transposed): the sum over `materials` of coefs[k] (-1, 0 or 1) times
    material k's 4n x 4n operator on interleaved densities, or the sum's
    transpose, with its entry (0, 0) at flat index `start` of array a.

    One pass over the pairs i < j serves every material, in row blocks of
    _PAIR_BLOCK pairs, each written out and dropped before the next,
    so no temporary grows with N^2.  A block builds the pair geometry, the
    indices and the node-offset weights once.  Each pair (and, for K, its
    swap) is one contraction per material and component of the material's
    weighted suite w H + beta L, plus its node-offset terms on W's diagonal
    and K's off-diagonal components; the materials are contracted in
    lockstep, one component each at a time, and each target is written its
    signed sum once.  The diagonal blocks are each material's
    w M_smooth + 2 pi R M_log + c_hs T from its extrapolated limits, summed
    the same way.  V and W write each pair's block transposed for the pair
    (j, i).
    """
    tags = tuple(blocks)
    (nc,) = {shape[-1] for shape in shapes}
    R, T, _ = columns = _weight_columns(grid.n)
    diagonals = []
    for material in materials:
        smooth_diag, log_diag = _diagonal_limits(material, grid, tags)
        diagonals.append({tag: np.pi / grid.n * smooth_diag[tag]
                          + 2.0 * np.pi * R[0] * log_diag[tag]
                          + _c_hs(material, tag) * T[0] * _I2[:, :, None]
                          for tag in tags})
    # allocated after the diagonal limits, whose temporaries grow with N
    outs = [np.empty(shape, dtype=complex) for shape in shapes]
    flats = [out.reshape(-1) for out in outs]

    def by_coefs(targets):
        """The targets as (coefs, [(flat array, start, transposed), ...])."""
        groups = {}
        for a, start, coefs, transposed in targets:
            groups.setdefault(tuple(coefs), []).append((flats[a], start, transposed))
        return list(groups.items())

    def write(p, q, values, f_ab, f_ba, groups):
        """Component (p, q) of the blocks (a, b), values[k] of material k,
        as each target's signed sum to rows 2a+p, columns 2b+q, or to rows
        2b+q, columns 2a+p of a transposed target."""
        buf = np.empty_like(values[0])
        for coefs, targets in groups:
            v = _signed_sum(values, coefs, buf)
            for flat, start, transposed in targets:
                if transposed:
                    flat[start + q * nc + p:][f_ba] = v
                else:
                    flat[start + p * nc + q:][f_ab] = v

    # V and W also write each pair's block, transposed, for the pair (j, i)
    pair_groups = {tag: by_coefs(targets if tag == "K" else targets + [
        (a, start, coefs, not tr) for a, start, coefs, tr in targets])
                   for tag, targets in blocks.items()}
    for i, j in _pair_blocks(grid.size):
        upper, suites, offset_terms = _upper_pairs(materials, grid, tags, columns, i, j)
        f_up, f_low = 2 * (i * nc + j), 2 * (j * nc + i)
        for tag in tags:
            if tag == "K":
                # the swapped pairs' cot and pv terms change sign
                sets = ((upper, f_up, f_low, 1.0), (upper.swapped(), f_low, f_up, -1.0))
            else:
                sets = ((upper, f_up, f_low, 1.0),)
            terms = [material_terms.pop(tag, None) for material_terms in offset_terms]
            for pairs, f_ab, f_ba, side in sets:
                # a temporary zip: the generators it leaves unexhausted
                # (and their coefficient fields) go with it
                for components in zip(*(pairs.components(material, tag, suite)
                                        for material, suite in zip(materials, suites))):
                    p, q, _ = components[0]
                    values = [v for _, _, v in components]
                    coef = side * _OFFSET_TERM_PATTERN[tag][p, q]
                    if coef:
                        for v, term in zip(values, terms):
                            re = v.real
                            re += term if coef > 0 else -term
                    write(p, q, values, f_ab, f_ba, pair_groups[tag])
    f_diag = 2 * (nc + 1) * np.arange(grid.size)
    for tag in tags:
        groups = by_coefs(blocks[tag])
        for p in range(2):
            for q in range(2):
                write(p, q, [d[tag][p, q] for d in diagonals], f_diag, f_diag, groups)
    return outs
