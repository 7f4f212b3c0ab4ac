"""Command-line interface: run configured benchmarks, presets, and selftest.

    elastobie run CONFIG.json [--out table.csv] [--threads N]
    elastobie preset NAME [--out table.csv] [--threads N] [--list]
    elastobie selftest

Thread count resolution: --threads flag, else the ELASTOBIE_THREADS
environment variable, else serial execution.
"""

from __future__ import annotations

import sys

import click
import numpy as np

from .harness import (PRESETS, THREADS_ENV_VAR, emit_table, load_config,
                      run_experiment)

__all__ = ["main"]


def _execute(config: dict, out, threads, fmt: str) -> None:
    rows = run_experiment(config, threads=threads)
    text = emit_table(rows, path=out, fmt=fmt,
                      table_name=config.get("table"))
    if out is None:
        click.echo(text, nl=False)
    else:
        click.echo(f"wrote {len(rows)} rows to {out}")


@click.group()
def main() -> None:
    """Elastodynamic boundary integral equation benchmark harness."""


@main.command(name="run")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="output CSV path (default: config 'output', else stdout)")
@click.option("--threads", type=int, default=None,
              help=f"worker threads (default: ${THREADS_ENV_VAR}, else 1)")
@click.option("--format", "fmt", type=click.Choice(["csv", "aligned-text"]),
              default="csv", show_default=True)
def run_cmd(config_path, out, threads, fmt) -> None:
    """Run the experiment described by a JSON configuration file."""
    config = load_config(config_path)
    _execute(config, out or config.get("output"), threads, fmt)


@main.command(name="preset")
@click.argument("name", required=False)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--threads", type=int, default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "aligned-text"]),
              default="csv", show_default=True)
@click.option("--list", "list_only", is_flag=True, help="list preset names")
def preset_cmd(name, out, threads, fmt, list_only) -> None:
    """Run one of the built-in benchmark-table presets."""
    if list_only:
        for key in PRESETS:
            click.echo(key)
        return
    if name is None:
        raise click.UsageError("provide a preset name")
    if name not in PRESETS:
        raise click.UsageError(
            f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    _execute(PRESETS[name], out, threads, fmt)


def _selftest_checks():
    """Fast property suite covering the core analytic invariants."""
    from .geometry import make_curve, sample_grid
    from .materials import make_material
    from .multipliers import (make_symbol, make_transmission_regularizer,
                              rho_constant, _calderon_symbol)
    from .formulations import calderon_matrix
    from .quadrature import flatten_density
    from .solvers import gmres

    rng = np.random.default_rng(7)

    def material_identity():
        for _ in range(50):
            lam, mu, om = rng.uniform(0.2, 5.0, 3)
            m = make_material(lam=lam, mu=mu, omega=om)
            if abs(m.alpha ** 2 + m.beta * m.delta + 0.25) > 1e-14:
                return False
        return True

    def h_squared():
        H = make_symbol("H", n_max=32)
        return all(np.allclose(H.at(k) @ H.at(k), -np.eye(2), atol=1e-14)
                   for k in range(-32, 33))

    def regularizer_identity():
        mp = make_material(lam=1.0, mu=1.0, omega=3.0)
        mm = make_material(lam=2.0, mu=8.0, omega=3.0)
        kap = mp.kappa
        reg = make_transmission_regularizer(mp, mm, kap, n_max=24)
        Cp = _calderon_symbol(mp, kap, 24)
        Cm = _calderon_symbol(mm, kap, 24)
        for idx in (0, 5, 24, 40):
            lhs = (Cp[idx] + Cm[idx]) @ reg.R.values[idx]
            rhs = 0.5 * np.eye(4) + Cm[idx]
            if not np.allclose(lhs, rhs, atol=1e-13):
                return False
        return abs(reg.rho - 3604.0 / 1728.0) < 1e-12

    def rho_bound():
        # rho < 1 only for mu-/mu+ strictly between 1 and Q/P, which lies in
        # [1/3, 3] for lam >= 0, so rho >= 1 at shear-modulus contrast >= 3;
        # rho = 1 at mu+ = mu- and also at mu-/mu+ = Q/P (see rho_constant).
        for _ in range(200):
            lp, mu_p, lm = rng.uniform(0.2, 5.0, 3)
            mu_m = mu_p * rng.choice([rng.uniform(3.0, 20.0),
                                      rng.uniform(0.05, 1.0 / 3.0)])
            a = make_material(lam=lp, mu=mu_p, omega=1.0)
            b = make_material(lam=lm, mu=mu_m, omega=1.0)
            if rho_constant(a, b) < 1.0 - 1e-12:
                return False
        eq = make_material(lam=1.3, mu=2.1, omega=1.0)
        eq2 = make_material(lam=0.4, mu=2.1, omega=1.0)
        return abs(rho_constant(eq, eq2) - 1.0) < 1e-14

    def calderon_projector():
        mat = make_material(lam=2.0, mu=1.0, omega=4.0)
        grid = sample_grid(make_curve("circle"), 48)
        C = calderon_matrix(mat, grid)
        g = np.zeros((grid.size, 2), dtype=complex)
        g[:, 0] = np.exp(3j * grid.t)
        g[:, 1] = np.exp(-2j * grid.t)
        v = np.concatenate([flatten_density(g), flatten_density(0.5 * g)])
        res = np.linalg.norm(4.0 * (C @ (C @ v)) - v) / np.linalg.norm(v)
        return res < 1e-7

    def gmres_sanity():
        A = np.diag(np.linspace(1.0, 2.0, 30)).astype(complex)
        b = np.ones(30, dtype=complex)
        rep = gmres(A, b, tol=1e-12)
        return rep.converged and np.linalg.norm(A @ rep.x - b) < 1e-10

    return [
        ("material symbol identity alpha^2+beta*delta+1/4=0", material_identity),
        ("bold-H squared = -I per mode", h_squared),
        ("(C+ + C-) R = 1/2 I + C- and rho = 3604/1728", regularizer_identity),
        ("rho >= 1 for mu-contrast >= 3, rho = 1 at mu+ = mu-", rho_bound),
        ("discrete Calderon projector 4C^2 = I", calderon_projector),
        ("GMRES reference solve", gmres_sanity),
    ]


@main.command(name="selftest")
def selftest_cmd() -> None:
    """Run the fast property suite; exit nonzero on any failure."""
    failures = 0
    for label, check in _selftest_checks():
        try:
            ok = bool(check())
        except Exception as exc:  # surface the failure, keep going
            ok = False
            click.echo(f"ERROR {label}: {exc}")
        click.echo(f"{'PASS' if ok else 'FAIL'}  {label}")
        failures += 0 if ok else 1
    if failures:
        click.echo(f"{failures} check(s) failed")
        sys.exit(1)
    click.echo("all checks passed")


if __name__ == "__main__":
    main()
