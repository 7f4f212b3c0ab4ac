"""Acceptance suite: the twelve benchmark-level criteria.

Each test pins one published-table reproduction or analytic invariant with
explicit tolerances.  Heavy discretizations are shared through module-scoped
fixtures.  The published lower bound rho >= 1 is false for general positive
Lame pairs; criterion 06 asserts the sharp, attained bound
rho >= cos^2((theta+ - theta-)/2) in its place (see
test_criterion_06_rho_lower_bound for the derivation and a counterexample).
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from elastobie import (assemble_ddm, assemble_dirichlet, assemble_transmission,
                       eps_inf, far_field, gmres, lu_solve, make_curve,
                       make_material, make_symbol, plane_wave,
                       reconstruct_fields, sample_grid)
from elastobie.ddm import rtr_exterior, rtr_interior
from elastobie.formulations import boundary_operators, calderon_matrix
from elastobie.harness import PRESETS, run_experiment
from elastobie.multipliers import (Symbol, _calderon_symbol,
                                   make_transmission_regularizer, ps_dtn,
                                   rho_constant, symbol_matrix,
                                   transmission_operators)
from elastobie.quadrature import flatten_density


def _within(count, target, frac=0.2):
    return (1.0 - frac) * target <= count <= (1.0 + frac) * target


def _counts(rows):
    return {(r.omega, r.n, r.formulation): r.iterations for r in rows}


# ---------------------------------------------------------------------------
# 1. manufactured-solution convergence (starfish, lambda = mu = 1, omega = 16)
# ---------------------------------------------------------------------------


def test_criterion_01_manufactured_convergence():
    config = dict(PRESETS["manufactured"],
                  formulations=[{"name": "V"}, {"name": "W"}],
                  cases=[{"omega": 16, "n": 64}, {"omega": 16, "n": 128}])
    t0 = time.perf_counter()
    rows = run_experiment(config)
    elapsed = time.perf_counter() - t0
    err = {(r.n, r.formulation): r.eps_inf for r in rows}
    assert err[(64, "V")] <= 1e-5
    assert err[(128, "V")] <= 1e-11
    assert err[(64, "W")] <= 1e-5
    assert err[(128, "W")] <= 1e-7
    assert elapsed < 2 * 120.0  # < 2 minutes per column, two columns run


# ---------------------------------------------------------------------------
# 2. Dirichlet iteration counts (unit circle, tol 1e-8)
# ---------------------------------------------------------------------------


TARGETS_DIRICHLET = {
    (10.0, 64): (31, 22, 21),
    (20.0, 128): (50, 27, 30),
    (40.0, 256): (97, 28, 38),
}

# The counts this code gives.  A refactor keeps every one of them; the
# published targets above bound them only to within 20%.
PINNED_DIRICHLET = {
    (10.0, 64): (30, 21, 20),
    (20.0, 128): (49, 26, 28),
    (40.0, 256): (93, 27, 31),
}


def test_criterion_02_dirichlet_circle_counts():
    rows = run_experiment(PRESETS["dirichlet-circle"])
    got = _counts(rows)
    labels = ("CFIE(eta=1)", "CFIE(eta-opt)", "CFIER")
    for (omega, n), targets in TARGETS_DIRICHLET.items():
        for label, target, pinned in zip(labels, targets,
                                         PINNED_DIRICHLET[(omega, n)]):
            assert _within(got[(omega, n, label)], target), \
                (omega, label, target, got)
            assert got[(omega, n, label)] == pinned, (omega, label, got)


# ---------------------------------------------------------------------------
# 3. Neumann CFIER n-independence vs CFIE growth (starfish, tol 1e-8)
# ---------------------------------------------------------------------------


def test_criterion_03_neumann_refinement_contrast():
    config = dict(PRESETS["neumann-starfish"],
                  formulations=[{"name": "CFIE", "coupling": 1.0,
                                 "label": "CFIE(eta=1)"},
                                {"name": "CFIER", "label": "CFIER"}])
    got = _counts(run_experiment(config))
    pinned = {"CFIE(eta=1)": (102, 136, 196, 266), "CFIER": (37, 37, 49, 49)}
    cases = ((10.0, 64), (10.0, 128), (20.0, 128), (20.0, 256))
    for label, counts in pinned.items():
        assert [got[(omega, n, label)] for omega, n in cases] \
            == list(counts), (label, got)
    for omega, n_coarse, n_fine in ((10.0, 64, 128), (20.0, 128, 256)):
        coarse = got[(omega, n_coarse, "CFIER")]
        fine = got[(omega, n_fine, "CFIER")]
        assert abs(coarse - fine) <= 1, (omega, coarse, fine)
        assert got[(omega, n_fine, "CFIE(eta=1)")] \
            > got[(omega, n_coarse, "CFIE(eta=1)")], omega


# ---------------------------------------------------------------------------
# 4. transmission iteration counts (starfish, (2,8)/(1,1), P-wave, tol 1e-6)
# ---------------------------------------------------------------------------


TARGETS_TRANSMISSION = {
    (10.0, 128): {"KR": 90, "CFIER": 44, "OS": 27},
    (20.0, 256): {"KR": 146, "CFIER": 72, "OS": 36},
}

PINNED_TRANSMISSION = {
    (10.0, 128): {"KR": 72, "CFIER": 43, "OS": 27},
    (20.0, 256): {"KR": 130, "CFIER": 58, "OS": 38},
}


def test_criterion_04_transmission_starfish_counts():
    got = _counts(run_experiment(PRESETS["transmission-starfish"]))
    for (omega, n), targets in TARGETS_TRANSMISSION.items():
        for label, target in targets.items():
            assert _within(got[(omega, n, label)], target), \
                (omega, label, target, got)
            assert got[(omega, n, label)] \
                == PINNED_TRANSMISSION[(omega, n)][label], (omega, label, got)


def test_criterion_04_transmission_cavity_os_counts():
    config = dict(PRESETS["transmission-cavity"],
                  formulations=[{"name": "OS", "label": "OS"}])
    got = _counts(run_experiment(config))
    assert got == {(10.0, 128, "OS"): 40, (20.0, 256, "OS"): 57}, got


# ---------------------------------------------------------------------------
# 5. symbol identities
# ---------------------------------------------------------------------------


def test_criterion_05_symbol_identities(bplus_principal_symbol):
    rng = np.random.default_rng(42)
    for _ in range(100):
        lam, mu, om = rng.uniform(0.1, 10.0, 3)
        m = make_material(lam=lam, mu=mu, omega=om)
        assert abs(m.alpha**2 + m.beta * m.delta + 0.25) <= 1e-14

    H = make_symbol("H", n_max=48)
    for k in range(-48, 49):
        assert np.allclose(H.at(k) @ H.at(k), -np.eye(2), atol=1e-15)

    mp = make_material(lam=1.0, mu=1.0, omega=5.0)
    mm = make_material(lam=2.0, mu=8.0, omega=5.0)
    kappa = mm.kappa
    reg = make_transmission_regularizer(mp, mm, kappa, n_max=48)
    cp = _calderon_symbol(mp, kappa, 48)
    cm = _calderon_symbol(mm, kappa, 48)
    for idx in range(97):
        lhs = (cp[idx] + cm[idx]) @ reg.R.values[idx]
        assert np.abs(lhs - (0.5 * np.eye(4) + cm[idx])).max() <= 1e-13

    bsym = bplus_principal_symbol(mp, mm, kappa, n_max=48)
    for k in range(-48, 49):
        assert np.abs(bsym.at(k) - np.eye(2)).max() <= 1e-12

    # exact rational value for the benchmark pair (2, 8) / (1, 1)
    lp, up_, lm, um = map(Fraction, (2, 8, 1, 1))
    exact = ((lp * (up_ + um) + up_ * (up_ + 3 * um))
             * (lm * (up_ + um) + um * (3 * up_ + um))
             / (4 * up_ * um * (lp + 2 * up_) * (lm + 2 * um)))
    assert exact == Fraction(3604, 1728)
    assert abs(rho_constant(mp, mm) - float(exact)) <= 1e-14


# ---------------------------------------------------------------------------
# 6. rho properties
# ---------------------------------------------------------------------------


def test_criterion_06_rho_lower_bound():
    """The sharp, attained lower bound of rho over 1000 random admissible pairs.

    With t = mu/(lam + 2 mu) and s = mu-/mu+, the constants of make_material
    are Im alpha = t/2, beta = (1 + t)/(4 mu) and delta = -mu (1 - t), so the
    closed form of rho_constant reads

        rho = (1 + t+ t-)/2 + (P s + Q/s)/4,
        P = (1 + t+)(1 - t-),  Q = (1 + t-)(1 - t+).

    By AM-GM over s,

        rho >= (1 + t+ t- + sqrt((1 - t+^2)(1 - t-^2)))/2
             = cos^2((theta+ - theta-)/2),  theta = arccos t,

    with equality at s* = sqrt(Q/P).  Since P + Q = 2 - 2 t+ t-,
    rho - 1 = P (s - 1)(s - Q/P)/(4 s): rho < 1 exactly when s lies strictly
    between 1 and Q/P.  For lam >= 0, t is in (0, 1/2], so Q/P is in
    [1/3, 3] and rho > (2 + sqrt 3)/4; for every admissible pair
    (lam + mu > 0), t is in (0, 1) and rho > 1/2.

    The published lemma rho >= 1 is therefore false: about 10% of these
    draws fall below 1.  Witness (verified at operator level via
    (C+ + C-)^2 = rho I): (lam+, mu+, lam-, mu-) =
    (0.22043..., 1.07018..., 2.99071..., 0.87844...) gives rho = 0.98230.
    """
    rng = np.random.default_rng(2026)
    below_one = 0
    for _ in range(1000):
        lp, up_, lm, um = rng.uniform(0.2, 5.0, 4)
        mp = make_material(lam=lp, mu=up_, omega=1.0)
        rho = rho_constant(mp, make_material(lam=lm, mu=um, omega=1.0))
        tp, tm = up_ / (lp + 2.0 * up_), um / (lm + 2.0 * um)
        bound = np.cos((np.arccos(tp) - np.arccos(tm)) / 2.0) ** 2
        P, Q = (1.0 + tp) * (1.0 - tm), (1.0 + tm) * (1.0 - tp)

        # 1. the sharp lower bound
        assert rho >= bound - 1e-14, ((lp, up_, lm, um), rho, bound)

        # 2. attained at s* = sqrt(Q/P); scaling lam- with mu- keeps t-
        scale = np.sqrt(Q / P) * up_ / um
        rho_star = rho_constant(
            mp, make_material(lam=lm * scale, mu=um * scale, omega=1.0))
        assert abs(rho_star - bound) <= 1e-14, ((lp, up_, lm, um), rho_star,
                                                bound)

        # 3. rho < 1 exactly when s is strictly between 1 and Q/P
        s, r = um / up_, Q / P
        if abs(s - 1.0) > 1e-9 and abs(s - r) > 1e-9 * r:
            inside = min(1.0, r) < s < max(1.0, r)
            assert (rho < 1.0) == inside, ((lp, up_, lm, um), rho, s, r)
            below_one += rho < 1.0

        # 4. the floor for lam >= 0
        assert rho > (2.0 + np.sqrt(3.0)) / 4.0, ((lp, up_, lm, um), rho)

    # the draws cover both sides of rho = 1
    assert 0 < below_one < 1000


def test_criterion_06_rho_is_one_at_both_roots():
    # rho - 1 = P (s - 1)(s - Q/P)/(4 s) with s = mu-/mu+ (see
    # test_criterion_06_rho_lower_bound): rho = 1 at equal shear moduli and
    # again at s = Q/P, reached by scaling lam- and mu- together (t- fixed).
    rng = np.random.default_rng(7)
    for _ in range(200):
        lp, lm, mu = rng.uniform(0.2, 5.0, 3)
        mp = make_material(lam=lp, mu=mu, omega=1.0)
        rho = rho_constant(mp, make_material(lam=lm, mu=mu, omega=1.0))
        assert abs(rho - 1.0) <= 1e-14

        tp, tm = mu / (lp + 2.0 * mu), mu / (lm + 2.0 * mu)
        scale = (1.0 + tm) * (1.0 - tp) / ((1.0 + tp) * (1.0 - tm))  # Q/P
        rho = rho_constant(mp, make_material(lam=lm * scale, mu=mu * scale,
                                             omega=1.0))
        assert abs(rho - 1.0) <= 1e-14, ((lp, lm, mu), rho)


def test_criterion_06_rho_bound_in_provable_regime():
    # Supplementary green check of the corrected statement: the bound holds
    # whenever the shear-modulus contrast is at least 3.
    rng = np.random.default_rng(11)
    for _ in range(1000):
        lp, up_, lm = rng.uniform(0.2, 5.0, 3)
        um = up_ * rng.choice([rng.uniform(3.0, 30.0),
                               rng.uniform(0.02, 1.0 / 3.0)])
        rho = rho_constant(make_material(lam=lp, mu=up_, omega=1.0),
                           make_material(lam=lm, mu=um, omega=1.0))
        assert rho >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# 7. discrete Calderon projector (circle, omega = 4, n = 128)
# ---------------------------------------------------------------------------


def test_criterion_07_discrete_calderon_projector():
    mat = make_material(lam=2.0, mu=1.0, omega=4.0)
    grid = sample_grid(make_curve("circle"), 128)
    C = calderon_matrix(mat, grid)
    g = np.zeros((grid.size, 2), dtype=complex)
    g[:, 0] = np.exp(3j * grid.t) + 0.5 * np.cos(7.0 * grid.t)
    g[:, 1] = np.exp(-5j * grid.t)
    v = np.concatenate([flatten_density(g), flatten_density(0.4 * g)])
    res = np.linalg.norm(4.0 * (C @ (C @ v)) - v) / np.linalg.norm(v)
    assert res <= 1e-7


# ---------------------------------------------------------------------------
# 8. coercivity signs
# ---------------------------------------------------------------------------


def _band_limited(rng, N, band):
    t = np.arange(N) * 2.0 * np.pi / N
    g = np.zeros((N, 2), dtype=complex)
    for k in range(-band, band + 1):
        g += rng.standard_normal((1, 2)) * np.exp(1j * k * t)[:, None] \
            + 1j * rng.standard_normal((1, 2)) * np.exp(1j * k * t)[:, None]
    return g


def test_criterion_08_coercivity_signs(discrete_dtn_exterior):
    rng = np.random.default_rng(3)
    mat = make_material(lam=2.0, mu=1.0, omega=4.0)
    grid = sample_grid(make_curve("circle"), 48)
    Y = discrete_dtn_exterior(mat, grid)
    for _ in range(50):
        g = flatten_density(_band_limited(rng, grid.size, 12))
        assert np.imag(np.vdot(g, Y @ g)) > 0.0  # Im <Y+ g, g-bar> > 0

    mp = make_material(lam=1.0, mu=1.0, omega=4.0)
    mm = make_material(lam=2.0, mu=8.0, omega=4.0)
    up_sym, um_sym = transmission_operators(mp, mm, mm.kappa, n_max=48)
    Up = symbol_matrix(up_sym, 48)
    Um = symbol_matrix(um_sym, 48)
    for _ in range(50):
        g = flatten_density(_band_limited(rng, 96, 12))
        assert np.imag(np.vdot(g, Up @ g)) > 0.0
        assert np.imag(np.vdot(g, Um @ g)) < 0.0

    # Lemma-level regularizer properties (shared kappa)
    reg = make_transmission_regularizer(mp, mm, mm.kappa, n_max=48)
    R11, R12, R21, R22 = (
        Symbol(48, reg.R.values[:, i:i + 2, j:j + 2])
        for i in (0, 2) for j in (0, 2))
    for _ in range(50):
        g = flatten_density(_band_limited(rng, 96, 12))
        phi = flatten_density(_band_limited(rng, 96, 12))
        assert -np.real(np.vdot(phi, R12 @ phi)) > 0.0
        assert -np.real(np.vdot(g, R21 @ g)) > 0.0
        ident = (np.vdot(phi, g) - np.vdot(R22 @ phi, g)
                 - np.vdot(phi, R11 @ g))
        scale = max(abs(np.vdot(phi, g)), 1.0)
        assert abs(ident) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# 9. principal-symbol calibration (unit circle, |n| = 60, n_max = 256)
# ---------------------------------------------------------------------------


def test_criterion_09_principal_symbol_calibration():
    mat = make_material(lam=2.0, mu=1.0, omega=4.0)
    grid = sample_grid(make_curve("circle"), 256)
    ops = boundary_operators(mat, grid, tags=("V", "W"))
    mode = 60
    for comp in (0, 1):
        e = np.zeros((grid.size, 2), dtype=complex)
        e[:, comp] = np.exp(1j * mode * grid.t)
        norm_e = np.linalg.norm(e)
        ratio_v = mode * np.linalg.norm(ops["V"] @ flatten_density(e)) \
            / (mat.beta * norm_e)
        ratio_w = np.linalg.norm(ops["W"] @ flatten_density(e)) \
            / (mode * abs(mat.delta) * norm_e)
        assert 0.9 <= ratio_v <= 1.1, ratio_v
        assert 0.9 <= ratio_w <= 1.1, ratio_w


# ---------------------------------------------------------------------------
# 10. cross-formulation physics (far-field agreement)
# ---------------------------------------------------------------------------


def test_criterion_10_far_fields_dirichlet():
    mat = make_material(lam=2.0, mu=1.0, omega=10.0)
    grid = sample_grid(make_curve("circle"), 64)
    inc = plane_wave(mat, [0.0, -1.0], [0.0, -1.0])
    ffs = []
    for kind in ("CFIE", "CFIER"):
        system = assemble_dirichlet(kind, mat, grid, incident=inc)
        sol = lu_solve(system.operator.matrix, system.rhs).x
        ffs.append(far_field(reconstruct_fields(system, sol)))
    assert eps_inf(ffs[0], ffs[1]) <= 1e-5


def test_criterion_10_far_fields_transmission():
    mp = make_material(lam=1.0, mu=1.0, omega=10.0)
    mm = make_material(lam=2.0, mu=8.0, omega=10.0)
    grid = sample_grid(make_curve("starfish"), 64)
    inc = plane_wave(mp, [1.0, 0.0], [1.0, 0.0])
    ffs = []
    for kind in ("KR", "ICFIER"):
        system = assemble_transmission(kind, mp, mm, grid, incident=inc)
        sol = lu_solve(system.operator.matrix, system.rhs).x
        ffs.append(far_field(reconstruct_fields(system, sol)))
    ddm = assemble_ddm(mp, mm, grid, incident=inc)
    M = ddm.operator @ np.eye(len(ddm.rhs))
    ffs.append(far_field(reconstruct_fields(ddm, lu_solve(M, ddm.rhs).x)))
    for i in range(3):
        for j in range(i + 1, 3):
            assert eps_inf(ffs[i], ffs[j]) <= 1e-5, (i, j)


# ---------------------------------------------------------------------------
# 11. eigenvalue clustering (n = 64, unit circle)
# ---------------------------------------------------------------------------


def test_criterion_11_eigenvalue_clustering():
    omega = 4.0
    grid = sample_grid(make_curve("circle"), 64)
    mp = make_material(lam=1.0, mu=1.0, omega=omega)
    mm = make_material(lam=2.0, mu=8.0, omega=omega)
    inc = plane_wave(mp, [1.0, 0.0], [1.0, 0.0])

    # KR spectrum clusters at 1 +- sqrt(1 - rho)
    kr = assemble_transmission("KR", mp, mm, grid, incident=inc)
    eig = np.linalg.eigvals(kr.operator.matrix)
    rho = rho_constant(mp, mm)
    root = np.sqrt(complex(1.0 - rho))
    dist = np.minimum(np.abs(eig - (1.0 + root)), np.abs(eig - (1.0 - root)))
    assert np.mean(dist <= 0.5) >= 0.9

    # regularized Dirichlet spectrum clusters at 1
    mat = make_material(lam=2.0, mu=1.0, omega=omega)
    cfier = assemble_dirichlet(
        "CFIER", mat, grid, incident=plane_wave(mat, [1.0, 0.0], [1.0, 0.0]))
    eig_d = np.linalg.eigvals(cfier.operator.matrix)
    assert np.mean(np.abs(eig_d - 1.0) <= 0.5) >= 0.9

    # single-equation Schwarz operator B+ clusters at 1
    Up, Um = transmission_operators(mp, mm, mm.kappa, n_max=grid.n)
    single = rtr_exterior(mp, mm, grid, mm.kappa, Up, Um, variant="single")
    eig_b = np.linalg.eigvals(single.meta["bplus"])
    assert np.mean(np.abs(eig_b - 1.0) <= 0.5) >= 0.9


# ---------------------------------------------------------------------------
# 12. DDM invertibility and RtR variant agreement
# ---------------------------------------------------------------------------


def test_criterion_12_ddm_invertibility_and_variant_agreement():
    mp = make_material(lam=1.0, mu=1.0, omega=4.0)
    mm = make_material(lam=2.0, mu=8.0, omega=4.0)
    grid = sample_grid(make_curve("starfish"), 96)
    Up, Um = transmission_operators(mp, mm, mm.kappa, n_max=grid.n)
    s_minus = rtr_interior(mm, grid, Up, Um)
    variants = {v: rtr_exterior(mp, mm, grid, mm.kappa, Up, Um, variant=v)
                for v in ("plain", "eps", "single")}

    L = 2 * grid.size
    I = np.eye(L, dtype=complex)
    M = I - s_minus @ (variants["plain"] @ I)
    smin = np.linalg.svd(M, compute_uv=False)[-1]
    assert smin > 1e-3, smin

    # variant agreement on the action applied to smooth densities
    rng = np.random.default_rng(5)
    g = flatten_density(_band_limited(rng, grid.size, 8))
    ref = variants["plain"] @ g
    for v in ("eps", "single"):
        err = np.linalg.norm(variants[v] @ g - ref) / np.linalg.norm(ref)
        assert err <= 1e-7, (v, err)
