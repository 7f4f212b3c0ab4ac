"""Harness and CLI tests: config execution, CSV contract, determinism."""

import json
import re

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from elastobie.cli import main
from elastobie.harness import (CSV_COLUMNS, PRESETS, ReportRow, emit_table,
                               parse_table, run_experiment)

SMOKE = {
    "table": "smoke",
    "problem": "dirichlet",
    "geometry": {"kind": "circle"},
    "materials": {"exterior": {"lam": 2.0, "mu": 1.0}},
    "incidence": {"type": "P", "direction": [0.0, -1.0]},
    "formulations": [{"name": "CFIER"}],
    "cases": [{"omega": 4, "n": 8}],
    "solver": {"tol": 1e-8},
    "timing": "none",
}


def test_report_row_validation():
    ReportRow(omega=1.0, n=8, formulation="x", iterations=0,
              eps_inf=None, seconds=0.0)
    with pytest.raises(ValueError):
        ReportRow(omega=1.0, n=8, formulation="x", iterations=-1,
                  eps_inf=None, seconds=0.0)
    with pytest.raises(ValueError):
        ReportRow(omega=1.0, n=8, formulation="x", iterations=0,
                  eps_inf=-1e-3, seconds=0.0)
    with pytest.raises(ValueError):
        ReportRow(omega=1.0, n=8, formulation="x", iterations=0,
                  eps_inf=None, seconds=-0.1)


rows_strategy = st.lists(
    st.builds(
        ReportRow,
        omega=st.sampled_from([1.0, 10.0, 20.5]),
        n=st.integers(min_value=4, max_value=512),
        formulation=st.sampled_from(["CFIE", "CFIER", "KR", "OS!", "V"]),
        iterations=st.integers(min_value=0, max_value=999),
        eps_inf=st.one_of(st.none(),
                          st.floats(min_value=1e-15, max_value=1.0)),
        seconds=st.floats(min_value=0.0, max_value=100.0),
    ),
    min_size=0, max_size=6)


@given(rows_strategy)
def test_csv_round_trip(rows):
    text = emit_table(rows, table_name="roundtrip")
    back = parse_table(text)
    assert len(back) == len(rows)
    for a, b in zip(back, rows):
        assert a.omega == b.omega and a.n == b.n
        assert a.formulation == b.formulation
        assert a.iterations == b.iterations
        if b.eps_inf is None:
            assert a.eps_inf is None
        else:
            assert a.eps_inf == pytest.approx(b.eps_inf, rel=1e-6)
        assert a.seconds == pytest.approx(b.seconds, abs=5e-4)


def test_emit_table_layout():
    row = ReportRow(omega=10.0, n=64, formulation="CFIER", iterations=21,
                    eps_inf=None, seconds=0.0)
    text = emit_table([row], table_name="demo")
    lines = text.splitlines()
    assert lines[0] == "# table: demo"
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert lines[2] == "10,64,CFIER,21,,0.000"
    aligned = emit_table([row], fmt="aligned-text", table_name="demo")
    assert aligned.splitlines()[0] == "# table: demo"
    with pytest.raises(ValueError):
        emit_table([row], fmt="yaml")


def test_run_experiment_smoke_and_determinism():
    # Four cells, so that two threads run cells at the same time.
    config = dict(SMOKE, formulations=[{"name": "CFIE"}, {"name": "CFIER"}],
                  cases=[{"omega": 4, "n": 8}, {"omega": 6, "n": 8}])
    rows1 = run_experiment(config)
    rows2 = run_experiment(config, threads=2)
    assert [(r.omega, r.formulation) for r in rows1] == [
        (4, "CFIE"), (4, "CFIER"), (6, "CFIE"), (6, "CFIER")]
    assert all(r.iterations > 0 for r in rows1)
    # timing "none" zeroes the only nondeterministic column: bit-identical CSV
    assert emit_table(rows1, table_name="t") == emit_table(rows2, table_name="t")


def test_empty_case_list_yields_no_rows():
    config = dict(SMOKE, cases=[])
    assert run_experiment(config) == []


def test_presets_cover_the_published_tables():
    expected = {"manufactured", "dirichlet-circle", "dirichlet-starfish",
                "dirichlet-cavity", "neumann-starfish", "neumann-cavity",
                "transmission-starfish", "transmission-cavity"}
    assert set(PRESETS) == expected
    for name, config in PRESETS.items():
        assert config["table"], name  # every preset names its table
        assert config["formulations"] and config["cases"]
        text = emit_table([], table_name=config["table"])
        assert text.startswith("# table: ")


def test_manufactured_cell_reports_error_column():
    config = {
        "table": "smoke-manufactured",
        "problem": "manufactured",
        "geometry": {"kind": "circle"},
        "materials": {"exterior": {"lam": 1.0, "mu": 1.0}},
        "incidence": {"type": "point_source", "location": [0.1, -0.2],
                      "polarization": [1.0, 0.7]},
        "formulations": [{"name": "V"}],
        "cases": [{"omega": 2, "n": 24}],
        "solver": {},
        "timing": "none",
    }
    (row,) = run_experiment(config)
    assert row.iterations == 0
    assert row.eps_inf is not None and row.eps_inf < 1e-8


MANUFACTURED = {
    "table": "bad-manufactured",
    "problem": "manufactured",
    "geometry": {"kind": "circle"},
    "materials": {"exterior": {"lam": 1.0, "mu": 1.0}},
    "incidence": {"type": "point_source", "location": [0.1, -0.2],
                  "polarization": [1.0, 0.7]},
    "formulations": [{"name": "V"}],
    "cases": [{"omega": 2, "n": 24}],
    "timing": "none",
}


def _no_assembly(*args, **kwargs):
    raise AssertionError("operators assembled for a config that cannot run")


def test_manufactured_plane_wave_incidence_fails_early(monkeypatch):
    monkeypatch.setattr("elastobie.harness.boundary_operators", _no_assembly)
    config = dict(MANUFACTURED,
                  incidence={"type": "P", "direction": [0.0, -1.0]})
    with pytest.raises(ValueError, match="incidence.type"):
        run_experiment(config)


def test_unknown_manufactured_formulation_fails_early(monkeypatch):
    monkeypatch.setattr("elastobie.harness.boundary_operators", _no_assembly)
    config = dict(MANUFACTURED, formulations=[{"name": "V"}, {"name": "X"}])
    with pytest.raises(ValueError, match="'X'"):
        run_experiment(config)


@pytest.mark.parametrize("label", ["CFIE(eta=1,tuned)", "CFIE\nx", "CFIER\r"])
def test_label_the_csv_cannot_hold_fails_early(monkeypatch, label):
    monkeypatch.setattr("elastobie.harness.boundary_operators", _no_assembly)
    monkeypatch.setattr("elastobie.formulations.boundary_operators",
                        _no_assembly)
    config = dict(SMOKE, formulations=[{"name": "CFIER"},
                                       {"name": "CFIE", "label": label}])
    with pytest.raises(ValueError, match=r"formulations\[1\]\.label"):
        run_experiment(config)


TRANSMISSION = dict(SMOKE, problem="transmission",
                    materials={"exterior": {"lam": 1.0, "mu": 1.0}},
                    formulations=[{"name": "KR"}])


@pytest.mark.parametrize("field, config", [
    ("problem", {k: v for k, v in SMOKE.items() if k != "problem"}),
    ("geometry.kind", dict(SMOKE, geometry={})),
    ("materials.interior", TRANSMISSION),
    ("incidence", {k: v for k, v in SMOKE.items() if k != "incidence"}),
    ("incidence.direction", dict(SMOKE, incidence={"type": "S"})),
    ("cases[1].n", dict(SMOKE, cases=[{"omega": 4, "n": 8}, {"omega": 4}])),
    ("formulations[0].name", dict(SMOKE, formulations=[{"label": "A"}])),
])
def test_missing_config_field_fails_early(monkeypatch, field, config):
    for module in ("harness", "formulations", "ddm"):
        monkeypatch.setattr(f"elastobie.{module}.boundary_operators",
                            _no_assembly)
    with pytest.raises(ValueError, match=f"required field '{re.escape(field)}'"):
        run_experiment(config)


@pytest.mark.parametrize("field, config", [
    ("problem", dict(SMOKE, problem="helmholtz")),
    ("incidence.type", dict(SMOKE, incidence={"type": "Q",
                                              "direction": [0.0, -1.0]})),
    ("formulations[1].name", dict(SMOKE, formulations=[{"name": "CFIER"},
                                                       {"name": "KR"}])),
    ("materials.exterior.lam", dict(SMOKE,
                                    materials={"exterior": {"mu": 1.0}})),
    ("materials.interior.mu", dict(TRANSMISSION, materials={
        "exterior": {"lam": 1.0, "mu": 1.0}, "interior": {"lam": 2.0}})),
])
def test_config_value_no_cell_can_run_fails_early(monkeypatch, field, config):
    for module in ("harness", "formulations", "ddm"):
        monkeypatch.setattr(f"elastobie.{module}.boundary_operators",
                            _no_assembly)
    with pytest.raises(ValueError, match=re.escape(field)):
        run_experiment(config)


def test_first_preset_cases_identical_across_thread_counts():
    for name in ("dirichlet-circle", "neumann-cavity", "transmission-starfish"):
        config = dict(PRESETS[name], cases=PRESETS[name]["cases"][:1],
                      timing="none")
        one, two = (emit_table(run_experiment(config, threads=t),
                               table_name=config["table"]) for t in (1, 2))
        assert one == two, name


def test_nonconvergence_is_flagged():
    config = dict(SMOKE, solver={"tol": 1e-8, "maxiter": 2})
    (row,) = run_experiment(config)
    assert row.formulation.endswith("!")


def test_cli_run_and_preset(tmp_path):
    runner = CliRunner()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMOKE))
    out = tmp_path / "out.csv"
    res = runner.invoke(main, ["run", str(cfg), "--out", str(out)])
    assert res.exit_code == 0, res.output
    rows = parse_table(out.read_text())
    assert len(rows) == 1 and rows[0].formulation == "CFIER"
    # stdout mode, aligned format
    res = runner.invoke(main, ["run", str(cfg), "--format", "aligned-text"])
    assert res.exit_code == 0
    assert res.output.startswith("# table: smoke")
    # preset listing and error paths
    res = runner.invoke(main, ["preset", "--list"])
    assert res.exit_code == 0
    assert set(res.output.split()) == set(PRESETS)
    assert runner.invoke(main, ["preset", "no-such-table"]).exit_code != 0
    assert runner.invoke(main, ["run"]).exit_code != 0
    assert runner.invoke(main, ["preset"]).exit_code != 0


def test_threads_environment_variable(monkeypatch):
    monkeypatch.setenv("ELASTOBIE_THREADS", "2")
    rows = run_experiment(SMOKE)
    assert len(rows) == 1


def test_cli_selftest_passes():
    res = CliRunner().invoke(main, ["selftest"])
    assert res.exit_code == 0, res.output
    assert "all checks passed" in res.output
