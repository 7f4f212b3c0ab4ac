"""Harness and CLI tests: config execution, CSV contract, determinism."""

import json
import re

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from elastobie.cli import main
from elastobie.harness import (CSV_COLUMNS, PRESETS, ReportRow, emit_table,
                               run_experiment)

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


def parse_table(text: str) -> list[ReportRow]:
    """Inverse of emit_table for the CSV format."""
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#") or line.startswith("omega,"):
            continue
        omega, n, form, iters, err, secs = line.split(",")
        rows.append(ReportRow(omega=float(omega), n=int(n), formulation=form,
                              iterations=int(iters),
                              eps_inf=None if err == "" else float(err),
                              seconds=float(secs)))
    return rows


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
    # a location may be zero; a polarization may not
    origin = dict(config, incidence=dict(config["incidence"],
                                         location=[0.0, 0.0]))
    for cfg in (config, origin):
        (row,) = run_experiment(cfg)
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
TRANSMISSION_KR = dict(TRANSMISSION, materials={
    "exterior": {"lam": 1.0, "mu": 1.0}, "interior": {"lam": 2.0, "mu": 8.0}})


@pytest.mark.parametrize("field, config", [
    ("problem", {k: v for k, v in SMOKE.items() if k != "problem"}),
    ("geometry.kind", dict(SMOKE, geometry={})),
    ("materials.interior", TRANSMISSION),
    ("incidence", {k: v for k, v in SMOKE.items() if k != "incidence"}),
    ("incidence.direction", dict(SMOKE, incidence={"type": "S"})),
    ("cases[1].n", dict(SMOKE, cases=[{"omega": 4, "n": 8}, {"omega": 4}])),
    ("formulations[0].name", dict(SMOKE, formulations=[{"label": "A"}])),
    ("cases", {k: v for k, v in SMOKE.items() if k != "cases"}),
])
def test_missing_config_field_fails_early(monkeypatch, field, config):
    for module in ("harness", "formulations"):
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
    # the first case could run: nothing may run before the bad one is named
    ("cases[1].n", dict(SMOKE, cases=[{"omega": 4, "n": 8},
                                      {"omega": 4, "n": 2}])),
    ("cases[1].n", dict(SMOKE, cases=[{"omega": 4, "n": 8},
                                      {"omega": 4, "n": 8.7}])),
    ("cases[1].omega", dict(SMOKE, cases=[{"omega": 4, "n": 8},
                                          {"omega": 0, "n": 8}])),
    ("materials.exterior", dict(SMOKE, materials={
        "exterior": {"lam": 1.0, "mu": 0.0}})),
    ("materials.interior", dict(TRANSMISSION, materials={
        "exterior": {"lam": 1.0, "mu": 1.0},
        "interior": {"lam": -3.0, "mu": 2.0}})),
    ("geometry.kind", dict(SMOKE, geometry={"kind": "blob"})),
    ("geometry.kind", dict(SMOKE, geometry={"kind": "circle",
                                            "radius": float("nan")})),
    # normalizing a zero direction gives NaN, which no cell can run
    ("incidence.direction", dict(SMOKE, incidence={"type": "P",
                                                   "direction": [0.0, 0.0]})),
    ("incidence.direction", dict(SMOKE, incidence={
        "type": "P", "direction": [float("nan"), 1.0]})),
    ("formulations[1].coupling", dict(SMOKE, formulations=[
        {"name": "CFIER"}, {"name": "CFIE", "coupling": 0}])),
    # a kappa coupling needs Re kappa > 0 and Im kappa > 0
    ("formulations[1].coupling", dict(SMOKE, formulations=[
        {"name": "CFIE"}, {"name": "CFIER", "coupling": 5.0}])),
    ("formulations[1].coupling", dict(TRANSMISSION_KR, formulations=[
        {"name": "KR"}, {"name": "ICFIER", "coupling": 5.0}])),
    ("formulations[1].coupling", dict(TRANSMISSION_KR, formulations=[
        {"name": "KR"}, {"name": "OS", "coupling": "5-1j"}])),
    ("solver.tol", dict(SMOKE, solver={"tol": "1e-8"})),
    ("solver.tol", dict(SMOKE, solver={"tol": -1})),
    ("solver.maxiter", dict(SMOKE, solver={"tol": 1e-8, "maxiter": "50"})),
    ("solver.maxiter", dict(SMOKE, solver={"tol": 1e-8, "maxiter": 2.5})),
    ("solver", dict(SMOKE, solver=5)),
    ("formulations[1].label", dict(SMOKE, formulations=[
        {"name": "CFIE"}, {"name": "CFIER", "label": 5}])),
    ("timing", dict(SMOKE, timing="nope")),
    ("cases", dict(SMOKE, cases=5)),
    ("formulations", dict(SMOKE, formulations=5)),
    ("formulations[0]", dict(SMOKE, formulations=[5])),
    ("incidence.direction", dict(SMOKE, incidence={"type": "P",
                                                   "direction": "ab"})),
    ("incidence.polarization", dict(SMOKE, incidence={
        "type": "P", "direction": [0.0, -1.0], "polarization": [0, 0]})),
    ("incidence.polarization", dict(SMOKE, incidence={
        "type": "S", "direction": [0.0, -1.0], "polarization": [1, 0, 0]})),
    ("incidence.polarization", dict(MANUFACTURED, incidence={
        "type": "point_source", "location": [0.1, -0.2],
        "polarization": [0, 0]})),
    ("incidence.polarization", dict(MANUFACTURED, incidence={
        "type": "point_source", "location": [0.1, -0.2],
        "polarization": [1, 0, 0]})),
    ("incidence.location", dict(MANUFACTURED, incidence={
        "type": "point_source", "location": [0.1, -0.2, 0],
        "polarization": [1.0, 0.7]})),
    ("problem", dict(SMOKE, problem=["dirichlet"])),
])
def test_config_value_no_cell_can_run_fails_early(monkeypatch, field, config):
    for module in ("harness", "formulations"):
        monkeypatch.setattr(f"elastobie.{module}.boundary_operators",
                            _no_assembly)
    with pytest.raises(ValueError, match=re.escape(field)):
        run_experiment(config)


@pytest.mark.parametrize("source, threads, env", [
    ("threads", 0, None), ("threads", -3, None),
    ("ELASTOBIE_THREADS", None, "two"), ("ELASTOBIE_THREADS", None, "0"),
])
def test_bad_thread_count_fails_early(monkeypatch, source, threads, env):
    for module in ("harness", "formulations"):
        monkeypatch.setattr(f"elastobie.{module}.boundary_operators",
                            _no_assembly)
    monkeypatch.delenv("ELASTOBIE_THREADS", raising=False)
    if env is not None:
        monkeypatch.setenv("ELASTOBIE_THREADS", env)
    with pytest.raises(ValueError, match=source):
        run_experiment(SMOKE, threads=threads)


def test_defaults_equal_their_spelled_out_values():
    implicit = {k: v for k, v in SMOKE.items() if k != "solver"}
    explicit = dict(SMOKE, solver={"tol": 1e-8})
    d = [0.0, -1.0]
    for bare, spelled in [
            ({"direction": d}, {"type": "P", "direction": d}),
            ({"type": "S", "direction": d},
             {"type": "S", "direction": d, "polarization": [-d[1], d[0]]})]:
        one, two = (emit_table(run_experiment(dict(config, incidence=inc)),
                               table_name="defaults")
                    for config, inc in ((implicit, bare), (explicit, spelled)))
        assert one == two, bare


def test_first_preset_cases_identical_across_thread_counts():
    for name in PRESETS:
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
    res = runner.invoke(main, ["run", str(cfg), "--threads", "0"])
    assert res.exit_code != 0 and "threads" in str(res.exception)
    assert set(main.commands) == {"run", "preset"}


def test_threads_environment_variable(monkeypatch):
    monkeypatch.setenv("ELASTOBIE_THREADS", "2")
    rows = run_experiment(SMOKE)
    assert len(rows) == 1

