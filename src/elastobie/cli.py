"""Command-line interface: run configured benchmarks and presets.

    elastobie run CONFIG.json [--out table.csv] [--threads N]
    elastobie preset NAME [--out table.csv] [--threads N] [--list]

Thread count resolution: --threads flag, else the ELASTOBIE_THREADS
environment variable, else serial execution.
"""

from __future__ import annotations

import click

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


if __name__ == "__main__":
    main()
