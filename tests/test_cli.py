"""Config-driven runner: schema strictness, artifacts, determinism."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton_coding import cli, correlation, spectra
from biphoton_coding.cli import main
from biphoton_coding.dynamics import DriveParams
from biphoton_coding.spectra import PairShift, PhysicalParams


def write_cfg(tmp_path, name, payload):
    payload = {"config_version": 1, **payload}
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv_matrix(path):
    rows = []
    for line in path.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([complex(x) if "j" in x else float(x)
                         for x in line.split(",")])
        except ValueError:
            continue  # column-header line
    return np.array(rows)


JSA_BODY = {
    "params": {"tau": 0.5},
    "signal_grid": {"min": -10.0, "max": 10.0, "points": 101},
    "idler_grid": {"min": -100.0, "max": 100.0, "points": 801},
}


def test_jsa_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, "jsa.json", {"output_dir": str(tmp_path / "out"),
                                           "label": "probe", **JSA_BODY})
    assert main(["jsa", cfg]) == 0
    meta = json.loads((tmp_path / "out" / "probe_meta.json").read_text())
    assert meta["peak_signal_detuning"] == 0.0
    assert meta["peak_idler_detuning"] == 0.0
    assert meta["peak_value"] == pytest.approx(0.16, rel=1e-9)
    assert len(meta["config_sha256"]) == 64
    surface = read_csv_matrix(tmp_path / "out" / "probe_surface.csv")
    assert surface.shape == (101, 801)
    header = (tmp_path / "out" / "probe_surface.csv").read_text()
    assert "config_sha256" in header


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, "jsa.json", {"label": "twin", **JSA_BODY})
    assert main(["jsa", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["jsa", cfg, "--out", str(tmp_path / "b")]) == 0
    for name in ("twin_surface.csv", "twin_meta.json"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()


def test_unknown_keys_rejected(tmp_path):
    cfg = write_cfg(tmp_path, "bad.json", {"jsa_extra": 1, **JSA_BODY})
    assert main(["jsa", cfg]) == 1
    cfg = write_cfg(tmp_path, "bad2.json",
                    {**JSA_BODY, "params": {"tau": 0.5, "color": "red"}})
    assert main(["jsa", cfg]) == 1


def test_config_version_checked(tmp_path):
    path = tmp_path / "v9.json"
    path.write_text(json.dumps({"config_version": 9, **JSA_BODY}))
    assert main(["jsa", str(path)]) == 1


def test_malformed_config_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["jsa", str(path)]) == 1
    missing = write_cfg(tmp_path, "missing.json", {"params": {"tau": 0.5}})
    assert main(["jsa", missing]) == 1


def test_infinite_code_parameter_rejected(tmp_path):
    cfg = write_cfg(tmp_path, "codes.json", {   # json writes Infinity
        "output_dir": str(tmp_path), "label": "inf",
        "code": {"kind": "linear-h", "n": 4, "h": math.inf}})
    assert "Infinity" in (tmp_path / "codes.json").read_text()
    assert main(["codes", cfg]) == 1
    assert not (tmp_path / "inf_report.json").exists()


def test_nan_param_rejected_in_numeric_mode(tmp_path):
    cfg = write_cfg(tmp_path, "sc.json", {
        "output_dir": str(tmp_path), "label": "nan",
        "mode": "numeric", "delta": 60.0, "params": {"tau": math.nan},
        "code": {"kind": "linear-h", "n": 2, "h": 1.0}})
    assert main(["single-channel", cfg]) == 1
    assert not (tmp_path / "nan_g2.csv").exists()


def test_overflowing_number_rejected(tmp_path):
    # 1e999 is valid JSON that parses to inf
    path = tmp_path / "big.json"
    path.write_text('{"config_version": 1, "output_dir": "%s", "label": "big",'
                    ' "code": {"kind": "linear-h", "n": 4, "h": 1e999}}'
                    % tmp_path)
    assert main(["codes", str(path)]) == 1
    assert not (tmp_path / "big_report.json").exists()


def test_codes_report(tmp_path):
    cfg = write_cfg(tmp_path, "codes.json", {
        "output_dir": str(tmp_path), "label": "c4",
        "code": {"kind": "linear-h", "n": 4, "h": 2.0}})
    assert main(["codes", cfg]) == 0
    rep = json.loads((tmp_path / "c4_report.json").read_text())
    assert rep["orthogonal_column_pairs"] == 4
    assert rep["ideal_contrast"]["c_od"] == pytest.approx(0.9956826767404209)
    gram = read_csv_matrix(tmp_path / "c4_gram.csv")
    assert gram.shape == (4, 4)


@pytest.mark.parametrize("code, pairs", [
    # the linear-h zero pattern is the one at h = 2 (72 pairs at n = 16)
    ({"kind": "linear-h", "n": 16, "h": 300.0}, 72),
    # real geometric codes are fully orthogonal: all 28 pairs at n = 8
    ({"kind": "geometric", "n": 8, "a": 1e4, "r": 1.3}, 28),
    # the 4 pairs of a = 1 stay 4 when the whole code is scaled by 1e-7
    ({"kind": "geometric", "n": 4, "a": 1e-7, "r": [1.0, 0.5]}, 4),
], ids=["linear-h-h300", "geometric-a1e4", "geometric-a1e-7"])
def test_orthogonal_pairs_do_not_depend_on_scale(tmp_path, code, pairs):
    cfg = write_cfg(tmp_path, "codes.json", {
        "output_dir": str(tmp_path), "label": "c", "code": code})
    assert main(["codes", cfg]) == 0
    rep = json.loads((tmp_path / "c_report.json").read_text())
    assert rep["orthogonal_column_pairs"] == pairs


def test_single_channel_ideal_matrix(tmp_path):
    cfg = write_cfg(tmp_path, "sc.json", {
        "output_dir": str(tmp_path), "label": "ideal4",
        "code": {"kind": "linear-h", "n": 4, "h": 2.0}})
    assert main(["single-channel", cfg]) == 0
    values = read_csv_matrix(tmp_path / "ideal4_g2.csv").real
    np.testing.assert_allclose(np.diag(values), (86.0 / 9.0) ** 2 / 4.0,
                               rtol=1e-9)
    contrast = json.loads((tmp_path / "ideal4_contrast.json").read_text())
    assert contrast["contrast"]["v"] == pytest.approx(1.0)


def test_single_channel_numeric_owns_calibration(tmp_path):
    cfg = write_cfg(tmp_path, "sc.json", {
        "mode": "numeric", "prefactor": 2.0, "delta": 60.0,
        "code": {"kind": "linear-h", "n": 2, "h": 1.0}})
    assert main(["single-channel", cfg]) == 1  # prefactor is not free here


def test_single_channel_numeric_auto_grids(tmp_path):
    cfg = write_cfg(tmp_path, "sc.json", {
        "output_dir": str(tmp_path), "label": "num2",
        "mode": "numeric", "delta": 60.0,
        "code": {"kind": "linear-h", "n": 2, "h": 1.0}})
    assert main(["single-channel", cfg]) == 0
    contrast = json.loads((tmp_path / "num2_contrast.json").read_text())
    assert contrast["contrast"]["v"] > 0.99
    assert contrast["contrast"]["c_od"] > 0.99


def test_sweep_h_symmetry(tmp_path):
    cfg = write_cfg(tmp_path, "sweep.json", {
        "output_dir": str(tmp_path), "label": "hs",
        "variable": "h", "values": [1.25, 0.8], "n": 4})
    assert main(["sweep", cfg]) == 0
    rows = read_csv_matrix(tmp_path / "hs_sweep.csv").real
    assert rows.shape == (2, 3)
    assert abs(rows[0, 2] - rows[1, 2]) < 1e-9  # c_od(h) == c_od(1/h)


def test_sweep_rejects_empty_range(tmp_path):
    cfg = write_cfg(tmp_path, "sweep.json",
                    {"variable": "h", "values": [], "n": 4})
    assert main(["sweep", cfg]) == 1


def test_multi_channel_levels(tmp_path):
    cfg = write_cfg(tmp_path, "mc.json", {
        "output_dir": str(tmp_path), "label": "mc28", "r": 2, "m": 8})
    assert main(["multi-channel", cfg]) == 0
    rep = json.loads((tmp_path / "mc28_contrast.json").read_text())
    assert rep["dimension"] == 64
    assert rep["matrix_emitted"] is True
    assert rep["layout"]["valid"] is True
    assert rep["contrast"]["c_non"] == pytest.approx(1.0 / 3.0, abs=1e-9)
    levels = read_csv_matrix(tmp_path / "mc28_levels.csv").real
    assert set(levels[:, 0]) == {0.0, 1.0, 2.0}
    assert levels[:, 2].sum() == 64 ** 2


def test_multi_channel_rejects_unknown_normalization(tmp_path):
    cfg = write_cfg(tmp_path, "mc.json",
                    {"r": 2, "m": 4, "normalization": "sideways"})
    assert main(["multi-channel", cfg]) == 1


def test_validate_layout_staircase(tmp_path):
    cfg = write_cfg(tmp_path, "lay.json", {
        "output_dir": str(tmp_path), "label": "st",
        "staircase": {"r": 2, "m": 4}})
    assert main(["validate-layout", cfg]) == 0
    rep = json.loads((tmp_path / "st_layout.json").read_text())
    assert rep["valid"] is True and rep["dof"] == 1
    assert rep["dimension"] == 16


CROSSTALK = ("pair-shift spacing 10 below 20/tau = 40; "
             "ridges will crosstalk")


@pytest.mark.parametrize("command, body, report", [
    ("validate-layout", {"staircase": {"r": 4, "m": 2, "bin_width": 10.0}},
     "x_layout.json"),
    ("multi-channel", {"r": 4, "m": 2, "bin_width": 10.0}, "x_contrast.json"),
], ids=["validate-layout", "multi-channel"])
def test_tau_reports_channel_crosstalk(tmp_path, command, body, report):
    for name, extra, warned in (("tau", {"tau": 0.5}, [CROSSTALK]),
                                ("none", {}, [])):
        cfg = write_cfg(tmp_path, f"{name}.json",
                        {"label": "x", **body, **extra})
        assert main([command, cfg, "--out", str(tmp_path / name)]) == 0
        rep = json.loads((tmp_path / name / report).read_text())
        assert rep["warnings"] == warned


def test_validate_layout_reports_cycle(tmp_path):
    cfg = write_cfg(tmp_path, "cyc.json", {
        "output_dir": str(tmp_path), "label": "cyc",
        "placement": {"r": 2, "m": 2,
                      "cells": [[1, 1, 1, 1], [1, 2, 2, 2],
                                [2, 1, 1, 2], [2, 2, 2, 1]]}})
    assert main(["validate-layout", cfg]) == 1
    rep = json.loads((tmp_path / "cyc_layout.json").read_text())
    assert rep["valid"] is False
    assert rep["cycle"] == ["i1", "s1", "i2", "s2"]


def test_validate_layout_needs_exactly_one_source(tmp_path):
    cfg = write_cfg(tmp_path, "lay.json", {
        "staircase": {"r": 2, "m": 4},
        "placement": {"r": 2, "m": 2, "cells": []}})
    assert main(["validate-layout", cfg]) == 1


def test_dynamics_check_zero_drive(tmp_path):
    cfg = write_cfg(tmp_path, "dyn.json", {
        "output_dir": str(tmp_path), "label": "quiet",
        "drive": {"omega_a_tilde": 0.0},
        "signal_grid": {"min": -4.0, "max": 4.0, "points": 3},
        "idler_grid": {"min": -4.0, "max": 4.0, "points": 3}})
    assert main(["dynamics-check", cfg]) == 0
    rep = json.loads((tmp_path / "quiet_dynamics.json").read_text())
    assert rep["note"] == "no biphoton generated"
    assert rep["drive"]["omega_a_tilde"] == 0.0


def test_dynamics_check_not_converged_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, "dyn.json", {
        "drive": {}, "t_final": 0.5,
        "signal_grid": {"min": -4.0, "max": 4.0, "points": 3},
        "idler_grid": {"min": -4.0, "max": 4.0, "points": 3}})
    assert main(["dynamics-check", cfg]) == 2  # numeric failure, not schema


def test_dynamics_check_names_the_population_left_in_b(tmp_path, capsys):
    # on two-photon resonance the pulse pair leaves real population in B,
    # which the first-order model never drains, so D keeps growing
    cfg = write_cfg(tmp_path, "dyn.json",
                    {"drive": {"delta2": 1e-300}, **TINY_GRIDS})
    assert main(["dynamics-check", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: |D|^2 still changing by ")
    assert ("; |B|^2 = 1.596e-05 is left in the upper state at t_final"
            in err)


def test_dynamics_check_tiny_drive(tmp_path):
    # D is linear in each pulse area, and the integrator has no absolute
    # tolerance for a faint B to fall under: a 1e-12 drive converges to
    # the unit drive's |D|^2 scaled by 1e-24, but for the unit drive's
    # AC Stark shift (2e-4)
    peaks = []
    for label, omega in (("unit", 1.0), ("faint", 1e-12)):
        cfg = write_cfg(tmp_path, f"{label}.json", {
            "output_dir": str(tmp_path), "label": label,
            "drive": {"omega_a_tilde": omega}, **TINY_GRIDS})
        assert main(["dynamics-check", cfg]) == 0
        rep = json.loads((tmp_path / f"{label}_dynamics.json").read_text())
        assert rep["converged"] is True
        peaks.append(rep["peak_numeric"])
    assert peaks[1] / (1e-24 * peaks[0]) == pytest.approx(1.0, rel=1e-3)


@pytest.mark.parametrize("field, value", [
    ("tau", 0.0), ("tau", -0.5), ("gamma3n", 0.0), ("gamma3n", -5.0),
    ("delta1", 0.0), ("delta2", 0.0)])
def test_dynamics_check_rejects_bad_drive(tmp_path, capsys, field, value):
    cfg = write_cfg(tmp_path, "dyn.json", {
        "output_dir": str(tmp_path), "label": "bad",
        "drive": {field: value},
        "signal_grid": {"min": -4.0, "max": 4.0, "points": 3},
        "idler_grid": {"min": -4.0, "max": 4.0, "points": 3}})
    assert main(["dynamics-check", cfg]) == 1
    assert "config error: drive: " in capsys.readouterr().err
    assert not (tmp_path / "bad_dynamics.json").exists()


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


def test_schmidt_command(tmp_path, monkeypatch):
    # every config is one real ridge: its weights come from the symmetric
    # eigensolver of a Gram matrix, and no SVD runs
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def spy(gram):
        solved.append(gram.shape)
        return eigvalsh(gram)

    def no_svd(*args, **kwargs):
        raise AssertionError("SVD on the real path")

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    cfg = write_cfg(tmp_path, "sch.json", {
        "output_dir": str(tmp_path), "label": "one",
        "params": {"tau": 0.25},
        "signal_grid": {"min": -60.0, "max": 60.0, "points": 601},
        "idler_grid": {"min": -120.0, "max": 120.0, "points": 1201}})
    assert main(["schmidt", cfg]) == 0
    rep = json.loads((tmp_path / "one_report.json").read_text(),
                     parse_constant=_refuse_constant)
    assert rep["lambda_sum"] == pytest.approx(1.0, abs=1e-8)
    assert rep["lambdas_top"][0] == pytest.approx(0.8193882853339827, rel=1e-6)
    assert rep["entropy"] == pytest.approx(0.7332579386243485, rel=1e-6)
    assert not math.isnan(rep["norm"])
    assert sorted(rep) == ["artifact_version", "config_sha256", "entropy",
                           "lambda_sum", "lambdas_top", "n_modes", "norm",
                           "tool", "units", "warnings"]
    # the degeneracy-check window, min(64, rank)
    assert rep["n_modes"] == 64

    # two mirror-image pairs: the leading two weights are equal, and the
    # report says so
    cfg = write_cfg(tmp_path, "deg.json", {
        "output_dir": str(tmp_path), "label": "deg",
        "params": {"tau": 0.5},
        "pairs": [{"delta_p": -100.0}, {"delta_p": 100.0}],
        "signal_grid": {"min": -200.0, "max": 200.0, "points": 401},
        "idler_grid": {"min": -200.0, "max": 200.0, "points": 401}})
    assert main(["schmidt", cfg]) == 0
    rep = json.loads((tmp_path / "deg_report.json").read_text())
    assert rep["lambdas_top"][0] == pytest.approx(rep["lambdas_top"][1],
                                                  abs=1e-10)
    assert rep["warnings"] == [
        "adjacent Schmidt weights nearly degenerate: two of the leading 64 "
        "differ by less than 1e-10"]

    # below 64 samples on the shorter grid the window is the whole rank
    cfg = write_cfg(tmp_path, "small.json", {
        "output_dir": str(tmp_path), "label": "small",
        "signal_grid": {"min": -10.0, "max": 10.0, "points": 21},
        "idler_grid": {"min": -15.0, "max": 15.0, "points": 31}})
    assert main(["schmidt", cfg]) == 0
    rep = json.loads((tmp_path / "small_report.json").read_text())
    assert rep["n_modes"] == 21
    # the Gram matrix of the shorter grid each time
    assert solved == [(601, 601), (401, 401), (21, 21)]


@pytest.mark.parametrize("weight", [1e160, 1e200])
def test_schmidt_large_pair_weight_matches_unit_weight(tmp_path, weight):
    # sigma^2 passes the float range from about 1e154; the weights are
    # scale-free, so they must equal the unit-weight run's
    reports = {}
    for label, w in (("unit", 1.0), ("large", weight)):
        cfg = write_cfg(tmp_path, f"{label}.json", {
            "output_dir": str(tmp_path), "label": label,
            "params": {"tau": 0.5}, "pairs": [{"weight": [w, 0.0]}],
            "signal_grid": {"min": -20.0, "max": 20.0, "points": 41},
            "idler_grid": {"min": -20.0, "max": 20.0, "points": 41}})
        assert main(["schmidt", cfg]) == 0
        reports[label] = json.loads(
            (tmp_path / f"{label}_report.json").read_text(),
            parse_constant=_refuse_constant)
        lam = read_csv_matrix(tmp_path / f"{label}_lambdas.csv")[:, 1]
        assert np.all(np.isfinite(lam))
        reports[label]["lambdas"] = lam
    unit, large = reports["unit"], reports["large"]
    np.testing.assert_allclose(large["lambdas"], unit["lambdas"],
                               rtol=0, atol=1e-13)
    assert large["lambda_sum"] == pytest.approx(1.0, abs=1e-12)
    assert large["entropy"] == pytest.approx(unit["entropy"], rel=1e-13)
    assert large["norm"] == pytest.approx(weight * unit["norm"], rel=1e-13)
    assert large["warnings"] == unit["warnings"]


def test_benchmark_tracer_finds_every_wrapped_name():
    # bench/tracer.py wraps package functions by name; a name dropped from
    # the package would otherwise surface only in a traced benchmark run
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    code = ("import sys; sys.path.insert(0, 'bench'); import tracer; "
            "tracer.install(tracer.Tracer())")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


NUMERIC = {"mode": "numeric", "delta": 60.0,
           "code": {"kind": "linear-h", "n": 2, "h": 1.0}}
TINY_GRIDS = {"signal_grid": {"min": -4.0, "max": 4.0, "points": 3},
              "idler_grid": {"min": -4.0, "max": 4.0, "points": 3}}
SCHMIDT_GRIDS = {"signal_grid": {"min": -10.0, "max": 10.0, "points": 21},
                 "idler_grid": {"min": -10.0, "max": 10.0, "points": 21}}

PLACEMENT = {"r": 1, "m": 2, "cells": [[1, 1, 0, 0], [1, 2, 1, 1]]}


def _case(id_, command, body, prefix):
    return pytest.param(command, body, prefix, id=id_)


@pytest.mark.parametrize("command, body, prefix", [
    _case("numeric-delta-0", "single-channel", {**NUMERIC, "delta": 0.0},
          "config error: config.delta"),
    _case("numeric-delta-negative", "single-channel",
          {**NUMERIC, "delta": -100.0}, "config error: config.delta"),
    _case("numeric-bin-width-negative", "single-channel",
          {**NUMERIC, "bin_width": -5.0}, "config error: config.bin_width"),
    # bins wider than the pair spacing come from the config, like a delta
    _case("numeric-bin-overlap", "single-channel",
          {**NUMERIC, "delta": 100.0, "bin_width": 150.0},
          "config error: bin_width: coding bins of width 150 overlap at "
          "center spacing 100"),
    # a bin narrower than the grid spacing holds one sample or none: both
    # pairs' bins on one sample of the config grids, and a bin of 1e-300
    # on the automatic grids, used to read as a contrast
    _case("numeric-delta-below-spacing", "single-channel",
          {**NUMERIC, "delta": 1e-320,
           "signal_grid": {"min": -100.0, "max": 100.0, "points": 801},
           "idler_grid": {"min": -150.0, "max": 150.0, "points": 1201}},
          "config error: grids: coding bins of width 1e-320 are "
          "narrower than the grid spacing 0.25"),
    _case("numeric-bin-width-below-spacing", "single-channel",
          {**NUMERIC, "bin_width": 1e-300},
          "config error: grids: coding bins of width 1e-300 are narrower "
          "than the grid spacing"),
    _case("numeric-acceptance-0", "single-channel",
          {**NUMERIC, "acceptance_scale": 0.0},
          "config error: config.acceptance_scale"),
    _case("sweep-delta-value-0", "sweep",
          {"variable": "delta", "values": [60.0, 0.0], "n": 2},
          "config error: config.values"),
    _case("sweep-h-value-0", "sweep", {"variable": "h", "values": [1.0, 0.0]},
          "config error: code: h must be positive"),
    _case("sweep-delta-h-negative", "sweep",
          {"variable": "delta", "values": [60.0], "n": 2, "h": -2.0},
          "config error: code: h must be positive"),
    _case("multi-channel-h-0", "multi-channel", {"r": 2, "m": 4, "h": 0.0},
          "config error: code: h must be positive"),
    _case("multi-channel-r-0", "multi-channel", {"r": 0, "m": 4},
          "config error: staircase"),
    _case("multi-channel-tau-0", "multi-channel", {"r": 2, "m": 4, "tau": 0.0},
          "config error: config.tau"),
    _case("validate-layout-tau-0", "validate-layout",
          {"staircase": {"r": 2, "m": 4}, "tau": 0.0},
          "config error: config.tau"),
    _case("dynamics-t-final-negative", "dynamics-check",
          {"t_final": -10.0, **TINY_GRIDS}, "config error: t_final"),
    # the CLI writes no mode functions, so there is no mode count to set
    _case("schmidt-n-modes-0", "schmidt", {"n_modes": 0, **SCHMIDT_GRIDS},
          "config error: config: unknown keys: n_modes"),
    _case("schmidt-n-modes-negative", "schmidt",
          {"n_modes": -3, **SCHMIDT_GRIDS},
          "config error: config: unknown keys: n_modes"),
    # a grid too coarse for the spectrum is a config fault too
    _case("schmidt-coarse-grid", "schmidt",
          {**SCHMIDT_GRIDS,
           "signal_grid": {"min": -100.0, "max": 100.0, "points": 161}},
          "config error: schmidt: signal grid spacing 1.25 exceeds"),
    # a signal x idler array past the memory budget is refused before
    # anything is allocated
    _case("schmidt-huge-grid", "schmidt",
          {"signal_grid": {"min": -10.0, "max": 10.0, "points": 10 ** 6},
           "idler_grid": {"min": -10.0, "max": 10.0, "points": 10 ** 6}},
          "config error: schmidt: the joint spectral amplitude would take"),
    # |f|^2 passes the float range, so the intensities would be Infinity;
    # no artifact is written unless every number in every one is finite
    _case("jsa-weight-1e160", "jsa",
          {**SCHMIDT_GRIDS, "pairs": [{"weight": [1e160, 0.0]}]},
          "config error: bad_surface.csv: non-finite value"),
    _case("jsa-weight-1e200", "jsa",
          {**SCHMIDT_GRIDS, "pairs": [{"weight": [1e200, 0.0]}]},
          "config error: bad_surface.csv: non-finite value"),
    # code entries, Gram entries or g2 values past the float range: the
    # first artifact holding a NaN or infinity is named
    _case("codes-h-1e80", "codes", {"code": {"kind": "linear-h", "n": 4,
                                             "h": 1e80}},
          "config error: bad_report.json: non-finite value"),
    _case("codes-geometric-1e200", "codes",
          {"code": {"kind": "geometric", "n": 4, "a": 1e200, "r": 1e100}},
          "config error: bad_code.csv: non-finite value"),
    _case("ideal-prefactor-1e300", "single-channel",
          {"code": {"n": 4, "h": 1e10}, "prefactor": 1e300},
          "config error: bad_g2.csv: non-finite value"),
    _case("multi-channel-prefactor-1e307", "multi-channel",
          {"r": 2, "m": 4, "h": 10.0, "prefactor": 1e307},
          "config error: bad_levels.csv: non-finite value"),
    _case("sweep-h-1e80", "sweep", {"variable": "h", "values": [1e80, 2.0]},
          "config error: bad_sweep.csv: non-finite value"),
    # a drive this strong needs ~1e10 Magnus steps a gap (1e12) or more
    # than numpy can index (1e160): refused from the step count
    _case("dynamics-omega-1e12", "dynamics-check",
          {"drive": {"omega_a_tilde": 1e12}, **SCHMIDT_GRIDS},
          "config error: grids: the Magnus steps of this drive (4.66e+10 a "
          "gap) would take"),
    _case("dynamics-omega-1e160", "dynamics-check",
          {"drive": {"omega_a_tilde": 1e160}, **SCHMIDT_GRIDS},
          "config error: grids: the Magnus steps of this drive (4.66e+158 a "
          "gap) would take"),
    # the samples themselves overflow: weight times prefactor is 1e600
    _case("schmidt-sample-overflow", "schmidt",
          {**SCHMIDT_GRIDS, "params": {"coupling_prefactor": 1e300},
           "pairs": [{"weight": [1e300, 0.0]}]},
          "config error: schmidt: the sampled amplitude is not finite"),
    _case("jsa-sample-overflow", "jsa",
          {**SCHMIDT_GRIDS, "params": {"coupling_prefactor": 1e300},
           "pairs": [{"weight": [1e300, 0.0]}]},
          "config error: jsa: the sampled amplitude is not finite"),
    _case("jsa-huge-grid", "jsa",
          {**JSA_BODY,
           "signal_grid": {"min": -10.0, "max": 10.0, "points": 10 ** 6},
           "idler_grid": {"min": -100.0, "max": 100.0, "points": 10 ** 6}},
          "config error: grids: the joint spectral amplitude would take"),
    # a long window: the cascade state at its quadrature nodes passes the
    # lowered budget below before a node is built (at the real one, 64
    # bytes per node, a window needs over four million nodes: t_final 2000
    # on a 96 x 96 grid takes 237,181)
    _case("dynamics-long-window", "dynamics-check",
          {"t_final": 2000.0, **TINY_GRIDS},
          "config error: grids: the cascade state at 211,677 quadrature "
          "nodes would take"),
    # n = 32 on the automatic grids needs two ~433 MiB FFT tensors
    _case("numeric-n-32", "single-channel",
          {**NUMERIC, "delta": 100.0,
           "code": {"kind": "linear-h", "n": 32, "h": 1.0}},
          "config error: grids: the numeric g2 FFTs would take"),
    _case("sweep-delta-n-32", "sweep",
          {"variable": "delta", "values": [100.0], "n": 32},
          "config error: grids: the numeric g2 FFTs would take"),
    _case("dynamics-huge-grid", "dynamics-check",
          {"signal_grid": {"min": -4.0, "max": 4.0, "points": 10 ** 6},
           "idler_grid": {"min": -4.0, "max": 4.0, "points": 10 ** 6}},
          "config error: grids: the pair amplitudes D would take"),
    # each refused from its sizes before a grid or code is built: the
    # 2**40-point signal grid, the FFT length search above a ~1.6e14-point
    # convolution, and the n x n code matrices (n = 16,384 is 4 GiB, past
    # the real budget too)
    _case("dynamics-signal-points-2**40", "dynamics-check",
          {"signal_grid": {"min": -4.0, "max": 4.0, "points": 2 ** 40},
           "idler_grid": {"min": -4.0, "max": 4.0, "points": 3}},
          "config error: grids: the pair amplitudes D would take"),
    # the 2**40-point signal axis itself would take 8 TiB: refused from
    # the grid sizes before that axis or its quadrature weights are built
    _case("jsa-signal-points-2**40", "jsa",
          {**JSA_BODY,
           "signal_grid": {"min": -10.0, "max": 10.0, "points": 2 ** 40}},
          "config error: grids: the joint spectral amplitude would take"),
    _case("schmidt-signal-points-2**40", "schmidt",
          {**SCHMIDT_GRIDS,
           "signal_grid": {"min": -10.0, "max": 10.0, "points": 2 ** 40}},
          "config error: schmidt: the joint spectral amplitude would take"),
    _case("sweep-delta-1e-12", "sweep",
          {"variable": "delta", "values": [1e-12], "n": 4},
          "config error: grids: the numeric g2 FFTs would take"),
    _case("codes-n-2**40", "codes", {"code": {"n": 2 ** 40}},
          "config error: code: the order-1099511627776 code matrix would "
          "take"),
    _case("codes-n-16384", "codes", {"code": {"n": 16384}},
          "config error: code: the order-16384 code matrix would take"),
    _case("numeric-coarse-grid", "single-channel",
          {**NUMERIC,
           "signal_grid": {"min": -100.0, "max": 100.0, "points": 21},
           "idler_grid": {"min": -100.0, "max": 100.0, "points": 21}},
          "config error: grids: grid spacing 10 exceeds"),
    # 29,537 levels, past the lowered bound below
    _case("level-table-bound", "multi-channel", {"r": 3, "m": 16},
          "config error: levels: more than 10000 distinct levels"),
    # drive detunings and pulse areas belong to `drive`, not `params`
    _case("params-delta1", "jsa", {**JSA_BODY, "params": {"delta1": 3.0}},
          "config error: config.params: unknown keys: delta1"),
    _case("params-gamma", "single-channel",
          {**NUMERIC, "params": {"gamma": 7.0}},
          "config error: config.params: unknown keys: gamma"),
    _case("dynamics-rtol", "dynamics-check", {"rtol": 1e-8, **TINY_GRIDS},
          "config error: config: unknown keys: rtol"),
    # 2**200000 is refused before 400,000 pairs are placed
    _case("multi-channel-dimension", "multi-channel", {"r": 200000, "m": 2},
          "config error: staircase: 2**200000 exceeds"),
    _case("validate-layout-dimension", "validate-layout",
          {"staircase": {"r": 200000, "m": 2}},
          "config error: staircase: 2**200000 exceeds"),
    # g2 scales, so the contrast ratios need a positive prefactor
    _case("ideal-prefactor-0", "single-channel",
          {"code": {"n": 2}, "prefactor": 0.0},
          "config error: config.prefactor"),
    _case("ideal-prefactor-negative", "single-channel",
          {"code": {"n": 2}, "prefactor": -1.0},
          "config error: config.prefactor"),
    _case("multi-channel-prefactor-0", "multi-channel",
          {"r": 2, "m": 4, "prefactor": 0.0},
          "config error: config.prefactor"),
    _case("multi-channel-prefactor-negative", "multi-channel",
          {"r": 2, "m": 4, "prefactor": -1.0},
          "config error: config.prefactor"),
    _case("multi-channel-bin-width-0", "multi-channel",
          {"r": 2, "m": 4, "bin_width": 0.0, "tau": 1.0},
          "config error: config.bin_width"),
    _case("validate-layout-bin-width-0", "validate-layout",
          {"staircase": {"r": 2, "m": 4, "bin_width": 0.0}},
          "config error: config.staircase.bin_width"),
    # true == 1 in Python, so an isinstance check would accept this cell
    _case("placement-bool-cell", "validate-layout",
          {"placement": {"r": 1, "m": 2,
                         "cells": [[True, 1, 0, 0], [1, 2, 1, 1]]}},
          "config error: placement.cells entries"),
    _case("placement-stray-slot", "validate-layout",
          {"placement": {"r": 1, "m": 2,
                         "cells": [[1, 1, 0, 0], [7, 9, 1, 1]]}},
          "config error: placement: placement keys"),
    # refused from the count alone, without listing r*m slots
    _case("placement-huge", "validate-layout",
          {"placement": {"r": 1_000_000, "m": 1_000_000,
                         "cells": [[1, 1, 0, 0]]}},
          "config error: placement: placement keys"),
    # a tree whose 2**64 code words pass int64: refused before validate
    _case("placement-2**64", "validate-layout",
          {"placement": {"r": 64, "m": 2,
                         "cells": [[c, s, 2 * c + s, 0]
                                   for c in range(1, 65) for s in (1, 2)]}},
          "config error: placement: 2**64 exceeds the representable range"),
    _case("placement-repeated-slot", "validate-layout",
          {"placement": {"r": 1, "m": 2,
                         "cells": [[1, 1, 0, 0], [1, 1, 5, 5], [1, 2, 1, 1]]}},
          "config error: placement.cells: a (r, m) slot is given twice"),
    # the calibration cancels any overall scale of the numeric paths
    _case("numeric-coupling-prefactor", "single-channel",
          {**NUMERIC, "params": {"coupling_prefactor": [3.0, 2.0]}},
          "config error: params.coupling_prefactor"),
    _case("sweep-delta-coupling-prefactor", "sweep",
          {"variable": "delta", "values": [60.0], "n": 2,
           "params": {"coupling_prefactor": 2.0}},
          "config error: params.coupling_prefactor"),
    # the h sweep writes contrast ratios only, where a prefactor cancels
    _case("sweep-h-prefactor", "sweep",
          {"variable": "h", "values": [1.0], "prefactor": 3.7},
          "config error: config: unknown keys: prefactor"),
    _case("jsa-svg", "jsa", {**JSA_BODY, "svg": False},
          "config error: config: unknown keys: svg"),
    # grid faults name the grid they are in
    _case("signal-grid-inverted", "jsa",
          {**JSA_BODY, "signal_grid": {"min": 1.0, "max": 0.0, "points": 3}},
          "config error: signal_grid: grid min must be below max"),
    _case("idler-grid-inverted", "jsa",
          {**JSA_BODY, "idler_grid": {"min": 1.0, "max": 0.0, "points": 3}},
          "config error: idler_grid: grid min must be below max"),
    # max - min overflows, so the spacing would be inf and the samples NaN
    _case("signal-grid-span-past-float-range", "dynamics-check",
          {**TINY_GRIDS,
           "signal_grid": {"min": -1e308, "max": 1e308, "points": 8}},
          "config error: signal_grid: grid span max - min passes the float "
          "range"),
    # each grid fits the float range, but min_s + min_i is -inf
    _case("sum-axis-past-float-range", "single-channel",
          {**NUMERIC, "delta": 1e308,
           "signal_grid": {"min": -1e308, "max": 1e307, "points": 3},
           "idler_grid": {"min": -1e308, "max": 1e307, "points": 3}},
          "config error: grids: the sum-frequency axis of these grids "
          "passes the float range"),
    # the crosstalk check reads pair shifts past the float range
    _case("staircase-shifts-past-float-range", "validate-layout",
          {"staircase": {"r": 2, "m": 2, "bin_width": 1e308}, "tau": 1.0},
          "config error: staircase: pair shift fields must be finite"),
    _case("multi-channel-shifts-past-float-range", "multi-channel",
          {"r": 2, "m": 2, "bin_width": 1e308, "tau": 1.0},
          "config error: staircase: pair shift fields must be finite"),
    _case("multi-channel-odd-m", "multi-channel", {"r": 2, "m": 3},
          "config error: staircase: pairs per channel must be even, got 3"),
    _case("codes-n-not-power-of-two", "codes", {"code": {"n": 3}},
          "config error: code: order 3 is not a power of two"),
    _case("code-kind", "codes", {"code": {"kind": "hadamard", "n": 4}},
          "config error: config.code.kind: expected one of 'linear-h', "
          "'geometric', got 'hadamard'"),
    # each value has one spelling: values, min/max grids, a pairs list, and
    # tau only beside the staircase whose channel spacing it checks
    _case("sweep-range", "sweep",
          {"variable": "h", "range": {"start": 0.5, "stop": 2.0, "steps": 3}},
          "config error: config: missing required key 'values'"),
    _case("grid-half-width", "jsa",
          {**JSA_BODY, "signal_grid": {"half_width": 10.0, "points": 101}},
          "config error: config.signal_grid: missing required key 'min'"),
    _case("jsa-comb", "jsa",
          {**JSA_BODY, "comb": {"n_pairs": 2, "delta": 6.0}},
          "config error: config: unknown keys: comb"),
    _case("jsa-pairs-empty", "jsa", {**JSA_BODY, "pairs": []},
          "config error: pairs: need at least one pair"),
    _case("placement-bin-width", "validate-layout",
          {"placement": {**PLACEMENT, "bin_width": 1.0}},
          "config error: config.placement: unknown keys: bin_width"),
    _case("placement-tau", "validate-layout",
          {"placement": PLACEMENT, "tau": 0.001},
          "config error: config: unknown keys: tau"),
    # the drive's default t_final so large that t_final - 1 rounds to it
    _case("dynamics-default-t-final-gamma3n", "dynamics-check",
          {"drive": {"gamma3n": 1e-300}, **TINY_GRIDS},
          "config error: t_final: t_final 1e+301 (the drive's default) is "
          "too large to read D one time unit earlier"),
    _case("dynamics-default-t-final-tau", "dynamics-check",
          {"drive": {"tau": 1e300}, **TINY_GRIDS},
          "config error: t_final: t_final 8e+300 (the drive's default)"),
    _case("dynamics-default-t-final-center", "dynamics-check",
          {"drive": {"pulse_center": 1e300}, **TINY_GRIDS},
          "config error: t_final: t_final 1e+300 (the drive's default)"),
    _case("dynamics-given-t-final-1e300", "dynamics-check",
          {"t_final": 1e300, **TINY_GRIDS},
          "config error: t_final: t_final 1e+300 is too large"),
    # a node count past 1e15 in three digits, not three hundred
    _case("dynamics-tau-1e-300", "dynamics-check",
          {"drive": {"tau": 1e-300}, **TINY_GRIDS},
          "config error: grids: the cascade state at 2.55e+301 quadrature "
          "nodes would take"),
    _case("dynamics-lamb-shift-1e300", "dynamics-check",
          {"drive": {"lamb_shift": 1e300}, **TINY_GRIDS},
          "config error: grids: the cascade state at 1.15e+301 quadrature "
          "nodes would take"),
    # a grid whose byte count passes the float range
    _case("dynamics-signal-points-10**400", "dynamics-check",
          {"signal_grid": {"min": -4.0, "max": 4.0, "points": 10 ** 400},
           "idler_grid": {"min": -4.0, "max": 4.0, "points": 3}},
          "config error: grids: the pair amplitudes D would take inf MiB"),
    # the schema casters and sections
    _case("n-true", "codes", {"code": {"n": True}},
          "config error: config.code.n: expected an integer, got True"),
    _case("delta-string", "single-channel", {**NUMERIC, "delta": "x"},
          "config error: config.delta: expected a number, got 'x'"),
    _case("delta-400-digits", "single-channel", {**NUMERIC, "delta": 10 ** 399},
          "config error: config.delta: expected a finite number"),
    _case("weight-three-parts", "jsa",
          {"pairs": [{"weight": [1, 2, 3]}], **SCHMIDT_GRIDS},
          "config error: pairs[0].weight: expected a number or [re, im], "
          "got [1, 2, 3]"),
    _case("params-list", "jsa", {"params": [], **SCHMIDT_GRIDS},
          "config error: config.params: expected an object"),
    _case("numeric-one-grid", "single-channel",
          {**NUMERIC, "signal_grid": SCHMIDT_GRIDS["signal_grid"]},
          "config error: give both grids or neither"),
])
def test_bad_input_exits_1(tmp_path, capsys, monkeypatch, command, body,
                           prefix):
    # a lowered level bound keeps the enumeration case fast; at the real
    # bound (10**6) r = 8, m = 16 stops after about 10 s.  Likewise the
    # memory budget, for the long-window case (test_correlation checks
    # the n = 32 refusal at the real budget)
    monkeypatch.setattr(correlation, "_MAX_LEVELS", 10_000)
    monkeypatch.setattr(spectra, "MAX_GRID_BYTES", 2 ** 18)
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "bad.json",
                    {"output_dir": str(out), "label": "bad", **body})
    assert main([command, cfg]) == 1
    _assert_one_line(capsys.readouterr().err, prefix)
    assert not out.exists()


def _assert_one_line(err, prefix):
    """stderr is the one error line and nothing else: no numpy warning
    (pytest turns any warning into an error) and no traceback."""
    assert err.startswith(prefix), err
    assert err.count("\n") == 1 and err.endswith("\n"), err


def _times_nan(real):
    return lambda *args, **kwargs: real(*args, **kwargs) * np.nan


def _returns(value):
    return lambda real: lambda *args, **kwargs: value


@pytest.mark.parametrize("command, body, name, fake, artifact", [
    ("jsa", SCHMIDT_GRIDS, "jsa_multiplexed", _times_nan, "surface.csv"),
    ("schmidt", SCHMIDT_GRIDS, "entropy", _returns(math.nan), "report.json"),
    ("codes", {"code": {"n": 4}}, "gram", _times_nan, "gram.csv"),
    ("single-channel", {"code": {"n": 4}}, "g2_matrix_ideal", _times_nan,
     "g2.csv"),
    ("sweep", {"variable": "h", "values": [1.0, 2.0]}, "contrasts",
     _returns({"v": math.nan, "c_od": 1.0}), "sweep.csv"),
    ("multi-channel", {"r": 2, "m": 4}, "contrasts_from_levels",
     _returns({"v": math.inf}), "contrast.json"),
    ("validate-layout", {"staircase": {"r": 2, "m": 4}}, "validate",
     _returns({"valid": True, "margin": math.nan}), "layout.json"),
    ("dynamics-check", TINY_GRIDS, "compare_dynamics",
     _returns({"max_deviation": math.nan}), "dynamics.json"),
], ids=["jsa", "schmidt", "codes", "single-channel", "sweep", "multi-channel",
        "validate-layout", "dynamics-check"])
def test_non_finite_result_writes_nothing(tmp_path, capsys, monkeypatch,
                                          command, body, name, fake,
                                          artifact):
    # whatever library call yields it, a NaN or infinity in any artifact
    # refuses the whole run before its first file is written
    monkeypatch.setattr(cli, name, fake(getattr(cli, name)))
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "nan.json",
                    {"output_dir": str(out), "label": "bad", **body})
    assert main([command, cfg]) == 1
    _assert_one_line(capsys.readouterr().err,
                     f"config error: bad_{artifact}: non-finite value")
    assert not out.exists()


def test_handlers_name_the_benchmark_artifacts(monkeypatch):
    # bench/checks.py keeps its own table of the files each command writes;
    # the suffixes a handler returns, in order, must match it
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "bench"))
    import checks
    import workloads
    for make in workloads.WORKLOADS.values():
        for inv in make(0):
            body = {k: v for k, v in inv.config.items()
                    if k not in ("config_version", "label")}
            handler = cli._COMMANDS[inv.command][0]
            status, artifacts = handler(cli._Section(body, "config"))
            assert status == 0
            assert tuple(artifacts) == checks.expected_artifacts(
                inv.command, inv.config), inv.label


@pytest.mark.parametrize("label", ["x/y", "dir/", "nul\0byte"],
                         ids=["slash", "trailing-slash", "nul"])
def test_label_must_be_a_file_name_stem(tmp_path, capsys, label):
    # refused while parsing, so the output directory is never made
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "bad.json", {
        "output_dir": str(out), "label": label, "code": {"n": 4}})
    assert main(["codes", cfg]) == 1
    assert capsys.readouterr().err.startswith("config error: config.label: ")
    assert not out.exists()


@pytest.mark.parametrize("code, status, prefix", [
    ({"kind": "linear-h", "n": 3}, 1, "config error: code: order 3"),
    ({"kind": "geometric", "n": 4, "a": 0.0}, 2, "numeric failure: "),
], ids=["order-3", "degenerate"])
def test_refused_run_makes_no_output_directory(tmp_path, capsys, code,
                                               status, prefix):
    out = tmp_path / "a" / "b"
    cfg = write_cfg(tmp_path, "codes.json", {"label": "c", "code": code})
    assert main(["codes", cfg, "--out", str(out)]) == status
    _assert_one_line(capsys.readouterr().err, prefix)
    assert not (tmp_path / "a").exists()


def test_unreadable_config_exits_1(tmp_path, capsys):
    assert main(["codes", str(tmp_path / "absent.json")]) == 1
    _assert_one_line(capsys.readouterr().err, "config error: cannot read "
                     "config")
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    assert main(["codes", str(listed)]) == 1
    _assert_one_line(capsys.readouterr().err,
                     f"config error: {listed}: top level must be an object")


def _run_cli(*args):
    """Run the CLI in a new interpreter; a hang fails the test rather
    than stalling the suite."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    return subprocess.run([sys.executable, "-m", "biphoton_coding.cli", *args],
                          env=env, capture_output=True, text=True, timeout=15)


@pytest.mark.parametrize("command, body", [
    ("single-channel", {**NUMERIC, "delta": 1e300}),
    ("single-channel", {**NUMERIC, "params": {"tau": 1e-300}}),
    ("single-channel", {**NUMERIC, "params": {"gamma3n": 1e300}}),
    ("sweep", {"variable": "delta", "values": [1e-60]}),
], ids=["delta-1e300", "tau-1e-300", "gamma3n-1e300", "sweep-delta-1e-60"])
def test_numeric_convolution_past_any_budget_is_refused_fast(
        tmp_path, command, body):
    # the padded FFT length is never searched for a convolution whose
    # unpadded length already passes every budget
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "huge.json", body)
    proc = _run_cli(command, cfg, "--out", str(out))
    assert proc.returncode == 1
    _assert_one_line(proc.stderr, "config error: grids: the numeric g2 FFTs "
                     "would take")
    assert not out.exists()


@pytest.mark.parametrize("command, body, prefix", [
    _case("delta-1e-320", "single-channel", {**NUMERIC, "delta": 1e-320},
          "config error: grids: the automatic grids for delta = 1e-320"),
    # delta / 2 underflows to 0
    _case("delta-5e-324", "single-channel", {**NUMERIC, "delta": 5e-324},
          "config error: grids: the automatic grids for delta = 4.941e-324"),
    _case("delta-1.7e308", "single-channel", {**NUMERIC, "delta": 1.7e308},
          "config error: grids: the automatic grids for delta = 1.7e+308"),
    # the signal span 2 * (10 / tau) passes the float range
    _case("tau-1e-307", "single-channel",
          {**NUMERIC, "params": {"tau": 1e-307}},
          "config error: grids: the automatic grids for delta = 60 would need "
          "a point count or span past the float range"),
    _case("sweep-delta-1e306", "sweep",
          {"variable": "delta", "values": [1e306], "n": 256},
          "config error: grids: the automatic grids for delta = 1e+306"),
    # on grids from the config, the outer pair centers pass the float range
    _case("centers-past-float-range", "single-channel",
          {**NUMERIC, "code": {"kind": "linear-h", "n": 4}, "delta": 1.7e308,
           **TINY_GRIDS},
          "config error: delta: pair shift fields must be finite"),
])
def test_bad_input_exits_1_at_float_range_delta(tmp_path, command, body,
                                                prefix):
    # automatic grids whose point counts pass the float range are refused
    # before int() of them.  Run at the real memory budget, which admits
    # the order-256 code that test_bad_input_exits_1's lowered one refuses
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "huge.json", body)
    proc = _run_cli(command, cfg, "--out", str(out))
    assert proc.returncode == 1
    _assert_one_line(proc.stderr, prefix)
    assert not out.exists()


@pytest.mark.parametrize("command, body, prefix", [
    # past the real 10**6-level bound that test_bad_input_exits_1 lowers:
    # refused in about 2 s, not after hours of enumeration
    _case("levels-r8-m16", "multi-channel", {"r": 8, "m": 16},
          "config error: levels: more than 1000000 distinct levels"),
    # fits the memory budget, but its 50.8M Magnus steps would scan for
    # minutes
    _case("dynamics-omega-1e6", "dynamics-check",
          {"drive": {"omega_a_tilde": 1e6}, **SCHMIDT_GRIDS},
          "config error: grids: the Magnus scan of this drive (50,826,700 "
          "steps) passes the 2,097,152-step bound"),
])
def test_bad_input_exits_1_at_the_real_bounds(tmp_path, command, body,
                                              prefix):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "huge.json", body)
    proc = _run_cli(command, cfg, "--out", str(out))
    assert proc.returncode == 1
    _assert_one_line(proc.stderr, prefix)
    assert not out.exists()


def test_output_the_os_refuses_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "codes.json", {"label": "c", "code": {"n": 4}})
    # --out names an existing file
    taken = tmp_path / "taken"
    taken.write_text("keep")
    assert main(["codes", cfg, "--out", str(taken)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert taken.read_text() == "keep"
    # an artifact's name is taken by a directory
    out = tmp_path / "out"
    (out / "c_report.json").mkdir(parents=True)
    assert main(["codes", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def _defaults(cls):
    return {f.name: f.default for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("command, omitted, spelled", [
    ("jsa", JSA_BODY,
     {**JSA_BODY, "params": _defaults(PhysicalParams),
      "pairs": [_defaults(PairShift)]}),
    ("dynamics-check", TINY_GRIDS,
     {**TINY_GRIDS, "drive": _defaults(DriveParams)}),
    # numeric g2 is calibrated, so its params take no coupling_prefactor
    ("single-channel", NUMERIC,
     {**NUMERIC, "params": {k: v for k, v in _defaults(PhysicalParams).items()
                            if k != "coupling_prefactor"},
      "bin_width": 60.0, "acceptance_scale": 3.0}),
    ("codes", {"code": {"n": 4}},
     {"code": {"kind": "linear-h", "n": 4, "h": 2.0}}),
    ("multi-channel", {"r": 2, "m": 4},
     {"r": 2, "m": 4, "h": 2.0, "bin_width": 100.0, "normalization": "global",
      "prefactor": 1.0}),
], ids=["jsa", "dynamics-check", "single-channel", "codes", "multi-channel"])
def test_spelled_out_defaults_match_omitted_keys(tmp_path, command, omitted,
                                                 spelled):
    arts = []
    for name, body in (("omitted", omitted), ("spelled", spelled)):
        cfg = write_cfg(tmp_path, f"{name}.json", {"label": "x", **body})
        assert main([command, cfg, "--out", str(tmp_path / name)]) == 0
        digest = hashlib.sha256(Path(cfg).read_bytes()).hexdigest()
        arts.append({p.name: p.read_text().replace(digest, "<sha>")
                     for p in (tmp_path / name).iterdir()})
    assert arts[0] and arts[0] == arts[1]


# the tracer's hooks read the wrapped calls' arguments and results
# (len(args[2]) and .nfev of the ODE solver, len(levels)); run them on one
# traced pass of tiny configs so a changed return type fails here
_TRACED_PASS = """
import sys
sys.path.insert(0, {bench!r})
import tracer
t = tracer.Tracer()
traced_main = tracer.install(t)
for argv in {argvs!r}:
    assert traced_main(argv) == 0, argv
c = t.counters
assert c['dynamics.nfev'] > 0 and c['dynamics.state_size'] == 3, c
assert c['correlation.levels'] > 0, c
# the numeric single-channel run goes through the name the tracer wraps
assert c['correlation.g2_cells'] > 0, c
"""


def test_benchmark_tracer_hooks_read_results(tmp_path):
    argvs = []
    for command, body in (("dynamics-check", TINY_GRIDS),
                          ("single-channel", NUMERIC),
                          ("multi-channel", {"r": 2, "m": 4})):
        cfg = write_cfg(tmp_path, f"{command}.json", {"label": "t", **body})
        argvs.append([command, cfg, "--out", str(tmp_path / command)])
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    _fresh_python(_TRACED_PASS.format(bench=bench, argvs=argvs))


def _fresh_python(code):
    """Run `code` in a new interpreter that imports this checkout."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_light_modules_do_not_import_the_ode_solver():
    # scipy.integrate is most of a ~1 s import, and the package integrates
    # its ODE on numpy alone, so no module may load scipy on import; cli
    # imports every module of the package
    _fresh_python("import sys, biphoton_coding.cli; "
                  "assert 'scipy' not in sys.modules")


# run in a fresh interpreter where any scipy import raises ImportError:
# main(argv) must return 0, `calls` counts its calls of dynamics.solve_ivp
# (the package's own Magnus scan), and nothing may have replaced the blocked
# entry
_RUN_IN_FRESH = """
import sys
sys.modules['scipy'] = None
from biphoton_coding import cli, dynamics
calls = []
solve = dynamics.solve_ivp
def counted(*args, **kwargs):
    calls.append(1)
    return solve(*args, **kwargs)
dynamics.solve_ivp = counted
assert cli.main({argv!r}) == 0
assert sys.modules.pop('scipy') is None
assert calls == {calls} and 'scipy' not in sys.modules, calls
"""


@pytest.mark.parametrize("command, body, calls", [
    ("jsa", JSA_BODY, []),
    ("schmidt", SCHMIDT_GRIDS, []),
    ("codes", {"code": {"n": 4}}, []),
    # the numeric g2 path runs on numpy's FFT
    ("single-channel", NUMERIC, []),
    ("sweep", {"variable": "delta", "values": [60.0], "n": 2}, []),
    ("multi-channel", {"r": 2, "m": 4}, []),
    ("validate-layout", {"staircase": {"r": 2, "m": 4}}, []),
    # one integration, through the module attribute that bench/tracer.py
    # patches
    ("dynamics-check", TINY_GRIDS, [1]),
], ids=["jsa", "schmidt", "codes", "numeric-g2", "sweep", "multi-channel",
        "validate-layout", "dynamics-check"])
def test_only_the_ode_path_loads_scipy(tmp_path, command, body, calls):
    cfg = write_cfg(tmp_path, "run.json", {"label": "fresh", **body})
    argv = [command, cfg, "--out", str(tmp_path / "out")]
    _fresh_python(_RUN_IN_FRESH.format(argv=argv, calls=calls))


# ---------------------------------------------------------------------------
# the CSV writer: one % format per row, the text of the per-number writer
# ---------------------------------------------------------------------------

def _fmt_reference(x) -> str:
    """The per-number formatter the writer replaced: the oracle."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    if isinstance(x, (complex, np.complexfloating)):
        if not (math.isfinite(x.real) and math.isfinite(x.imag)):
            raise ValueError(f"non-finite value {x}")
        return f"{x.real:.12g}{x.imag:+.12g}j"
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x}")
    return f"{float(x):.12g}"


def _write_csv_reference(meta, comments, header, rows) -> str:
    lines = [f"# {k} = {v}" for k, v in meta.items()]
    lines.extend(f"# {c}" for c in comments)
    if header:
        lines.append(",".join(header))
    lines.extend(",".join(_fmt_reference(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


WRITER_META = {"artifact_version": 1, "tool": "t"}
# the edges of the float format: signed zero, the smallest subnormal, a
# subnormal, the largest finite float, and 12-digit rounding
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.5e-310, 1.7976931348623157e308,
                -1.7976931348623157e308, 123456789012.5, 1.0 / 3.0]
_floats = st.one_of(st.sampled_from(_EDGE_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False))
_ints = st.integers(-2 ** 70, 2 ** 70)


@st.composite
def _csv_rows(draw):
    """Rows of each artifact kind: a float array, a complex array, (int,
    float, int) tuples, or tuples whose columns mix ints and floats."""
    kind = draw(st.sampled_from(["real", "complex", "table", "mixed"]))
    n, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    if kind == "real":
        cells = draw(st.lists(_floats, min_size=n * cols, max_size=n * cols))
        return np.array(cells, dtype=float).reshape(n, cols)
    if kind == "complex":
        cells = draw(st.lists(st.builds(complex, _floats, _floats),
                              min_size=n * cols, max_size=n * cols))
        return np.array(cells, dtype=complex).reshape(n, cols)
    row = (st.tuples(_ints, _floats, _ints) if kind == "table" else
           st.lists(st.one_of(_ints, _floats), min_size=cols,
                    max_size=cols).map(tuple))
    return draw(st.lists(row, min_size=n, max_size=n))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(rows=_csv_rows(), header=st.sampled_from([None, ["a", "b"]]))
def test_write_csv_matches_the_per_number_writer(rows, header):
    assert (cli._write_csv(WRITER_META, ["note"], header, rows)
            == _write_csv_reference(WRITER_META, ["note"], header, rows))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan],
                         ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("rows", [
    lambda x: np.array([[1.0, 2.0], [3.0, x]]),
    lambda x: np.array([[1 + 1j, 2.0], [3.0, complex(4.0, x)]]),
    lambda x: [(0, 1.5, 2), (1, x, 3)],
], ids=["real-cell", "complex-imag", "float-column"])
def test_write_csv_refuses_non_finite(rows, bad):
    with pytest.raises(ValueError, match="non-finite value"):
        cli._write_csv(WRITER_META, ["note"], ["a", "b"], rows(bad))


# one literal text per artifact kind, so that any change of the written
# bytes shows as a diff here
@pytest.mark.parametrize("comments, header, rows, text", [
    (["values = |f|^2"], None,
     np.array([[0.1, -0.0, 5e-324],
               [1.7976931348623157e308, -2.5e-310, 123456789012.5]]),
     "# artifact_version = 1\n# tool = t\n# values = |f|^2\n"
     "0.1,-0,4.94065645841e-324\n"
     "1.79769313486e+308,-2.5e-310,123456789012\n"),
    (["columns are codewords"], None,
     np.array([[1 + 0j, complex(-0.0, -2.5)],
               [complex(1e-320, 1e300), complex(1.0 / 3.0, -0.0)]]),
     "# artifact_version = 1\n# tool = t\n# columns are codewords\n"
     "1+0j,-0-2.5j\n"
     "9.99988867183e-321+1e+300j,0.333333333333-0j\n"),
    ([], ["matched_channels", "value", "multiplicity"],
     [(2, 44.416620735, 2 ** 70), (0, 0.0, 1), (1, -1e-300, 10 ** 12)],
     "# artifact_version = 1\n# tool = t\n"
     "matched_channels,value,multiplicity\n"
     "2,44.416620735,1180591620717411303424\n0,0,1\n"
     "1,-1e-300,1000000000000\n"),
], ids=["real", "complex", "table"])
def test_write_csv_golden_text(comments, header, rows, text):
    assert cli._write_csv(WRITER_META, comments, header, rows) == text
