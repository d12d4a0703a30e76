"""Artifact checks: seed-free invariants and recorded-reference comparison.

Every check returns a list of failure messages; an empty list means the
invocation's artifacts are correct.  Invariants hold for any seed.  For
the seeds in references.json the artifacts are also compared, number by
number, with fingerprints recorded from an earlier commit.  The
comparison tolerates last-digit rounding (a changed summation order) but
not a changed value.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# a numeric artifact may move by this share of its own scale before it
# no longer matches its reference; the ODE tolerance (rtol 1e-8) bounds
# how far a different but valid integration path can move dynamics output
RTOL = 1e-9
RTOL_BY_COMMAND = {"dynamics-check": 1e-5}

ARTIFACTS = {
    "single-channel": ("g2.csv", "contrast.json"),
    "sweep": ("sweep.csv",),
    "codes": ("code.csv", "gram.csv", "report.json"),
    "validate-layout": ("layout.json",),
    "schmidt": ("lambdas.csv", "report.json"),
    "dynamics-check": ("dynamics.json",),
}


# the CSV artifacts whose first non-comment line is a column header
HEADED = {"sweep.csv", "levels.csv", "lambdas.csv"}


def expected_artifacts(command: str, config: dict) -> tuple:
    if command == "multi-channel":
        dim = config["m"] ** config["r"]
        return ("levels.csv", "contrast.json") + (("g2.csv",) if dim <= 4096
                                                   else ())
    return ARTIFACTS[command]


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------

def read_csv(path: Path, headed: bool):
    """Return (meta, header, values) of a CLI CSV; values is 2-D."""
    meta, header, body = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, sep, value = line[2:].partition(" = ")
            if sep:
                meta[key] = value
        elif headed and header is None:
            header = line.split(",")
        else:
            body.append(line)
    if not body:
        return meta, header, np.zeros((0, 0))
    cols = body[0].count(",") + 1
    flat = ",".join(body).split(",")
    if "j" in body[0]:
        values = np.array([complex(x) for x in flat])
    else:
        values = np.array(flat, dtype=float)
    return meta, header, values.reshape(len(body), cols)


def read_json(path: Path) -> dict:
    def reject(name):
        raise ValueError(f"non-finite constant {name}")
    return json.loads(path.read_text(), parse_constant=reject)


def _read(path: Path, name: str):
    if path.suffix == ".csv":
        return read_csv(path, name in HEADED)
    return read_json(path)


# ---------------------------------------------------------------------------
# seed-free invariants
# ---------------------------------------------------------------------------

class _Failures(list):
    def expect(self, ok, message):
        if not ok:
            self.append(message)


def _close(a, b, rtol=1e-9, atol=0.0):
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def _contrast_ok(f: _Failures, name, contrast: dict):
    for key in ("v", "c_od", "c_non"):
        if key in contrast:
            f.expect(0.0 <= contrast[key] <= 1.0,
                     f"{name}: contrast {key}={contrast[key]} outside [0, 1]")
    f.expect(contrast["g2_min"] <= contrast["g2_od"] <= contrast["g2_max"],
             f"{name}: g2_min <= g2_od <= g2_max violated")


def _check_single_channel(f, arts, config):
    n = config["code"]["n"]
    _, _, g2 = arts["g2.csv"]
    rep = arts["contrast.json"]
    f.expect(g2.shape == (n, n), f"g2.csv: shape {g2.shape}, want {(n, n)}")
    f.expect(np.all(g2 >= 0), "g2.csv: negative correlation value")
    f.expect(rep["n"] == n and rep["mode"] == config["mode"],
             "contrast.json: n or mode differs from the config")
    _contrast_ok(f, "contrast.json", rep["contrast"])
    f.expect(_close(rep["contrast"]["g2_max"], float(g2.max())),
             "contrast.json: g2_max is not the matrix maximum")


def _check_sweep(f, arts, config):
    _, header, rows = arts["sweep.csv"]
    f.expect(header == [config["variable"], "v", "c_od"],
             f"sweep.csv: header {header}")
    f.expect(rows.shape == (len(config["values"]), 3)
             and np.allclose(rows[:, 0], config["values"], rtol=1e-12),
             "sweep.csv: swept values differ from the config")
    f.expect(np.all((rows[:, 1:] >= 0) & (rows[:, 1:] <= 1)),
             "sweep.csv: contrast outside [0, 1]")


def _check_codes(f, arts, config):
    n = config["code"]["n"]
    _, _, code = arts["code.csv"]
    _, _, g = arts["gram.csv"]
    f.expect(code.shape == (n, n) and g.shape == (n, n),
             "code.csv/gram.csv: wrong shape")
    if code.shape == (n, n) and g.shape == (n, n):
        want = code.conj().T @ code
        scale = float(np.abs(want).max())
        f.expect(np.allclose(g, want, rtol=0, atol=1e-9 * scale),
                 "gram.csv: not the Gram matrix of code.csv")
    rep = arts["report.json"]
    f.expect(rep["n"] == n, "report.json: n differs from the config")
    _contrast_ok(f, "report.json", rep["ideal_contrast"])


def _check_layout(f, arts, config):
    rep = arts["layout.json"]
    st = config["staircase"]
    f.expect(rep["valid"] is True, "layout.json: staircase reported invalid")
    f.expect(rep["dimension"] == st["m"] ** st["r"],
             "layout.json: dimension is not m**r")
    f.expect(rep["dof"] == rep["nodes"] - rep["edges"] >= rep["components"] >= 1,
             "layout.json: dof, nodes, edges and components disagree")


def _check_multi_channel(f, arts, config):
    r, m = config["r"], config["m"]
    d = m ** r
    _, header, levels = arts["levels.csv"]
    rep = arts["contrast.json"]
    f.expect(header == ["matched_channels", "value", "multiplicity"],
             f"levels.csv: header {header}")
    matched, value, mult = levels[:, 0], levels[:, 1], levels[:, 2]
    # multiplicities are exact integers below 2**53 for every d used here
    f.expect(int(mult.sum()) == d * d,
             f"levels.csv: multiplicities sum to {int(mult.sum())}, want d^2")
    f.expect(int(mult[matched == r].sum()) == d,
             "levels.csv: fully matched class is not the diagonal")
    f.expect(np.all((matched >= 0) & (matched <= r)) and np.all(value >= 0),
             "levels.csv: matched count or value out of range")
    f.expect(rep["n_levels"] == len(levels) and rep["dimension"] == d,
             "contrast.json: n_levels or dimension disagrees with the table")
    f.expect(rep["matrix_emitted"] == ("g2.csv" in arts),
             "contrast.json: matrix_emitted disagrees with the artifacts")
    _contrast_ok(f, "contrast.json", rep["contrast"])
    f.expect(_close(rep["contrast"]["g2_max"], float(value.max()))
             and _close(rep["contrast"]["g2_min"], float(value.min())),
             "contrast.json: extrema differ from the level table")
    if "g2.csv" in arts:
        _, _, g2 = arts["g2.csv"]
        f.expect(g2.shape == (d, d), f"g2.csv: shape {g2.shape}")
        f.expect(_close(float(g2.sum()), float(value @ mult), rtol=1e-8),
                 "g2.csv: entry sum differs from the level table")


def _check_schmidt(f, arts, config):
    _, header, rows = arts["lambdas.csv"]
    lam = rows[:, 1]
    rep = arts["report.json"]
    points = config["signal_grid"]["points"]
    f.expect(header == ["index", "lambda"] and len(lam) == points,
             f"lambdas.csv: {len(lam)} weights, want {points}")
    f.expect(np.all(lam >= 0) and np.all(np.diff(lam) <= 0),
             "lambdas.csv: weights negative or not descending")
    f.expect(_close(float(lam.sum()), 1.0, atol=1e-10),
             "lambdas.csv: weights do not sum to 1")
    f.expect(_close(rep["lambda_sum"], 1.0, atol=1e-12),
             "report.json: lambda_sum is not 1")
    f.expect(0.0 <= rep["entropy"] <= math.log(points) and rep["norm"] > 0,
             "report.json: entropy or norm out of range")


def _check_dynamics(f, arts, config):
    rep = arts["dynamics.json"]
    f.expect(rep["converged"] is True, "dynamics.json: not converged")
    f.expect(rep["max_deviation"] is not None
             and 0.0 <= rep["max_deviation"] <= 1.0,
             "dynamics.json: max_deviation missing or outside [0, 1]")
    f.expect(rep["peak_numeric"] > 0 and rep["peak_analytic"] > 0,
             "dynamics.json: no biphoton generated")
    f.expect(rep["drive"]["delta1"] == config["drive"]["delta1"],
             "dynamics.json: drive differs from the config")


_INVARIANTS = {
    "single-channel": _check_single_channel,
    "sweep": _check_sweep,
    "codes": _check_codes,
    "validate-layout": _check_layout,
    "multi-channel": _check_multi_channel,
    "schmidt": _check_schmidt,
    "dynamics-check": _check_dynamics,
}


# ---------------------------------------------------------------------------
# reference fingerprints
# ---------------------------------------------------------------------------

def _columns(values: np.ndarray):
    if np.iscomplexobj(values):
        values = np.concatenate([values.real, values.imag], axis=1)
    return values.T


def fingerprint(parsed) -> dict:
    """Size-independent summary of one parsed artifact.

    CSV columns become [rows, sum, weighted sum, min, max, sum |x|]; the
    fixed cosine weights make the weighted sum sensitive to row order.
    JSON keeps every leaf.
    """
    if isinstance(parsed, dict):
        return {"json": parsed}
    meta, header, values = parsed
    cols = []
    for col in _columns(values):
        w = np.cos(0.7 * np.arange(len(col)))
        cols.append([len(col), float(col.sum()), float(w @ col),
                     float(col.min()), float(col.max()),
                     float(np.abs(col).sum())])
    return {"header": header, "columns": cols}


def _compare_json(a, b, rtol, where, f):
    if isinstance(a, dict) and isinstance(b, dict):
        f.expect(a.keys() == b.keys(), f"{where}: keys differ from reference")
        for k in a.keys() & b.keys():
            _compare_json(a[k], b[k], rtol, f"{where}.{k}", f)
    elif isinstance(a, list) and isinstance(b, list):
        f.expect(len(a) == len(b), f"{where}: length differs from reference")
        for k, (x, y) in enumerate(zip(a, b)):
            _compare_json(x, y, rtol, f"{where}[{k}]", f)
    elif isinstance(a, float) or isinstance(b, float):
        f.expect(isinstance(a, (int, float)) and isinstance(b, (int, float))
                 and _close(a, b, rtol), f"{where}: {a!r} vs reference {b!r}")
    else:
        f.expect(a == b, f"{where}: {a!r} vs reference {b!r}")


def compare_fingerprint(name, got: dict, ref: dict, rtol: float, f):
    if "json" in ref:
        _compare_json(got.get("json"), ref["json"], rtol, name, f)
        return
    f.expect(got["header"] == ref["header"], f"{name}: header differs")
    f.expect(len(got["columns"]) == len(ref["columns"]),
             f"{name}: column count differs from reference")
    for k, (g, r) in enumerate(zip(got["columns"], ref["columns"])):
        if g[0] != r[0]:
            f.append(f"{name}: column {k} has {g[0]} rows, reference {r[0]}")
            continue
        scale = max(abs(g[3]), abs(g[4]), abs(r[3]), abs(r[4]))
        total = max(g[5], r[5])
        ok = (abs(g[1] - r[1]) <= rtol * total
              and abs(g[2] - r[2]) <= rtol * total
              and abs(g[3] - r[3]) <= rtol * scale
              and abs(g[4] - r[4]) <= rtol * scale)
        f.expect(ok, f"{name}: column {k} differs from reference")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def artifact_paths(outdir: Path, inv) -> dict:
    return {name: outdir / f"{inv.label}_{name}"
            for name in expected_artifacts(inv.command, inv.config)}


def load_artifacts(outdir: Path, inv):
    """Parse every expected artifact; returns (parsed, failures)."""
    f = _Failures()
    parsed = {}
    for name, path in artifact_paths(outdir, inv).items():
        if not path.is_file():
            f.append(f"{path.name}: missing")
            continue
        try:
            parsed[name] = _read(path, name)
        except ValueError as exc:
            f.append(f"{path.name}: unreadable ({exc})")
    return parsed, f


def check_invocation(outdir: Path, inv, config_bytes: bytes, exit_code: int,
                     reference: dict | None = None) -> list:
    """All failures of one finished invocation (empty list: correct)."""
    if exit_code != 0:
        return [f"{inv.label}: exit code {exit_code}"]
    parsed, f = load_artifacts(outdir, inv)
    if f:
        return [f"{inv.label}: {m}" for m in f]
    digest = hashlib.sha256(config_bytes).hexdigest()
    for name, art in parsed.items():
        if isinstance(art, dict):
            meta, numbers = art, [v for v in _leaves(art)
                                  if isinstance(v, float)]
        else:
            meta, numbers = art[0], art[2].ravel()
        f.expect(meta.get("config_sha256") == digest,
                 f"{name}: config_sha256 does not match the config")
        f.expect(bool(np.all(np.isfinite(numbers))),
                 f"{name}: non-finite value")
    if not f:
        try:
            _INVARIANTS[inv.command](f, parsed, inv.config)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            f.append(f"malformed artifact ({type(exc).__name__}: {exc})")
    if reference is not None and not f:
        rtol = RTOL_BY_COMMAND.get(inv.command, RTOL)
        for name, art in parsed.items():
            if name not in reference:
                f.append(f"{name}: no reference recorded")
                continue
            compare_fingerprint(name, fingerprint(art), reference[name],
                                rtol, f)
    return [f"{inv.label}: {m}" for m in f]


def _leaves(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _leaves(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _leaves(v)
    else:
        yield obj
