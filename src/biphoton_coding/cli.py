"""Command-line runner writing simulation results as data files.

Each subcommand reads one JSON configuration file, validates it against a
strict schema (unknown keys are rejected so typos fail loudly rather
than silently falling back to defaults; sections that mirror a dataclass
take exactly its fields), runs the corresponding toolkit routine and
returns its artifacts by file-name suffix.  `main` alone writes them, and
only once every one has rendered without a NaN or infinity.  Artifacts
are deterministic: CSV numbers carry 12 significant digits, JSON objects
are key-sorted, and every file embeds the SHA-256 of the config it came
from together with the artifact format version.  Identical configs
therefore produce byte-identical outputs.

All frequencies and rates in configs are in units of gamma, times in
units of 1/gamma, matching the library convention.

Exit codes: 0 success, 1 configuration or validation failure (a config
value that takes a result past the float range among them), 2 numeric
failure (non-convergence, degenerate contrast).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import sys
import typing
import warnings
from pathlib import Path

import numpy as np

from .codes import alamouti_n, gram, make_c
# bench/tracer.py wraps compare_dynamics in this module and the ODE solver
# at dynamics.solve_ivp, the package's own fourth-order Magnus scan: no
# subcommand imports scipy.
from .correlation import (contrasts, contrasts_from_levels, g2_matrix_ideal,
                          g2_matrix_ideal_multi, g2_numeric, level_summary,
                          matched_decode)
from .dynamics import DriveParams, compare_dynamics
from .errors import (BiphotonCodingError, ConfigError, CycleDetected,
                     DegenerateMatrix, GridTooLarge, NotConverged,
                     UnderResolvedGrid)
from .layout import ChannelLayout, dimension, staircase, validate
from .schmidt import decompose, entropy
from .spectra import (FrequencyGrid, MultiplexedSpectrum, PairShift,
                      PhysicalParams, comb_grids, jsa_multiplexed,
                      require_grid_memory)

ARTIFACT_VERSION = 1
CONFIG_VERSION = 1
UNITS = "frequencies and rates in gamma; times in 1/gamma"

# above this code-space dimension multi-channel drops the matrix CSV to
# bound output size; levels.csv is written at every size
LEVEL_THRESHOLD = 4096


# ---------------------------------------------------------------------------
# config schema helpers
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _exact(kind, what):
    """Caster accepting only values of exactly this JSON type (so a
    bool is not an integer)."""
    def cast(raw):
        if type(raw) is not kind:
            raise ValueError(f"expected {what}, got {raw!r}")
        return raw
    return cast


_int = _exact(int, "an integer")
_str = _exact(str, "a string")
_list = _exact(list, "a list")


def _float(raw):
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(f"expected a number, got {raw!r}")
    try:
        if math.isfinite(raw):
            return float(raw)
    except OverflowError:       # an integer beyond the float range
        pass
    raise ValueError(f"expected a finite number, got {raw!r}")


def _path(raw):
    """Caster for a path string; no file name holds a NUL byte."""
    if "\0" in _str(raw):
        raise ValueError(f"NUL byte in {raw!r}")
    return raw


def _label(raw):
    """Caster for an artifact label: one file-name stem, not a path."""
    if Path(_path(raw)).name != raw:
        raise ValueError(f"expected a file-name stem, got {raw!r}")
    return raw


def _positive(raw):
    x = _float(raw)
    if not x > 0:
        raise ValueError(f"expected a positive number, got {raw!r}")
    return x


def _choice(*options):
    """Caster for a string that must be one of `options`."""
    def cast(raw):
        if _str(raw) not in options:
            names = ", ".join(map(repr, options))
            raise ValueError(f"expected one of {names}, got {raw!r}")
        return raw
    return cast


def _complex(raw):
    """Accept a plain number or a [re, im] pair."""
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return complex(_float(raw))
    if isinstance(raw, list) and len(raw) == 2:
        return complex(_float(raw[0]), _float(raw[1]))
    raise ValueError(f"expected a number or [re, im], got {raw!r}")


def _numbers(item):
    """Caster for a list of numbers, each read by `item`."""
    def cast(raw):
        return [item(x) for x in _list(raw)]
    return cast


# dataclass field annotation -> caster, for _parse_fields
_CASTS = {float: _float, complex: _complex, int: _int}


@contextlib.contextmanager
def _config_errors(where, kinds=ValueError):
    """Turn a library rejection of a config value into a config error."""
    try:
        yield
    except kinds as exc:
        raise ConfigError(f"{where}: {exc}") from None


class _Section:
    """One config mapping.  Keys are consumed as they are read; anything
    left over when the section closes is a schema violation."""

    def __init__(self, mapping, where: str):
        if not isinstance(mapping, dict):
            raise ConfigError(f"{where}: expected an object")
        self._data = dict(mapping)
        self._where = where

    def has(self, key) -> bool:
        return key in self._data

    def take(self, key, cast, default=_REQUIRED):
        if key not in self._data:
            if default is _REQUIRED:
                raise ConfigError(f"{self._where}: missing required key {key!r}")
            return default
        raw = self._data.pop(key)
        with _config_errors(f"{self._where}.{key}"):
            return cast(raw)

    def subsection(self, key, required: bool = False):
        if key not in self._data:
            if required:
                raise ConfigError(f"{self._where}: missing required key {key!r}")
            return None
        return _Section(self._data.pop(key), f"{self._where}.{key}")

    def close(self):
        if self._data:
            names = ", ".join(sorted(map(str, self._data)))
            raise ConfigError(f"{self._where}: unknown keys: {names}")


def _load_config(path):
    def reject(name):
        raise ConfigError(f"{path}: non-finite number {name} is not allowed")

    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        cfg = json.loads(data, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return cfg, hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# domain-object parsing
# ---------------------------------------------------------------------------

def _parse_fields(sec, cls, where):
    """Build dataclass `cls` from a section holding one key per field:
    values are cast by the field's annotation, absent keys (or an absent
    section) keep the field's default, and a value the class rejects is a
    config error."""
    if sec is None:
        return cls()
    types = typing.get_type_hints(cls)
    kw = {f.name: sec.take(f.name, _CASTS[types[f.name]])
          for f in dataclasses.fields(cls)
          if sec.has(f.name) or f.default is dataclasses.MISSING}
    sec.close()
    with _config_errors(where):
        return cls(**kw)


def _parse_grids(sec):
    """The required signal and idler grids of a section."""
    return tuple(_parse_fields(sec.subsection(name, required=True),
                               FrequencyGrid, name)
                 for name in ("signal_grid", "idler_grid"))


def _parse_spectrum(sec, params: PhysicalParams) -> MultiplexedSpectrum:
    """A spectrum is a list of pairs; with none given, a single unshifted
    unit-weight pair."""
    pairs = tuple(_parse_fields(_Section(entry, f"pairs[{k}]"), PairShift,
                                f"pairs[{k}]")
                  for k, entry in enumerate(sec.take("pairs", _list, [{}])))
    with _config_errors("pairs"):
        return MultiplexedSpectrum(params=params, pairs=pairs)


def _calibrated_params(sec) -> PhysicalParams:
    """The `params` of a numeric path.  Its g2 is calibrated against the
    all-ones cell, so the overall scale cancels and `coupling_prefactor`
    is not a key there."""
    psec = sec.subsection("params")
    if psec is not None and psec.has("coupling_prefactor"):
        raise ConfigError("params.coupling_prefactor is fixed by "
                          "calibration in numeric mode")
    return _parse_fields(psec, PhysicalParams, "params")


def _code(kind, n, **kw):
    """The Alamouti code matrix of make_c(kind, n, **kw); a vector or order
    the codes module rejects is a config error."""
    with _config_errors("code", (ValueError, GridTooLarge)):
        return alamouti_n(make_c(kind, n, **kw))


def _staircase(r, m, bin_width):
    """staircase(r, m, bin_width); an odd m, a code space past int64 or a
    pair count past the memory budget is a config error."""
    with _config_errors("staircase", (ValueError, GridTooLarge)):
        return staircase(r, m, bin_width)


def _parse_code(sec):
    """The code section's kind, its vector keywords and its code matrix."""
    kind = sec.take("kind", _choice("linear-h", "geometric"), "linear-h")
    n = sec.take("n", _int)
    if kind == "linear-h":
        kw = {"h": sec.take("h", _float, 2.0)}
    else:
        kw = {"a": sec.take("a", _complex, 1.0 + 0j),
              "r": sec.take("r", _complex, 1.0 + 0j)}
    sec.close()
    return kind, kw, _code(kind, n, **kw)


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

# the renderers; bench/tracer.py wraps them by name, so the names stay
def _write_csv(meta: dict, comments, rows) -> str:
    """The text of a CSV artifact: meta and comment lines, then the rows,
    one % format for all of them.

    `rows` is a record array, whose field names make the header line, or
    a 2-D float or complex array, written without one.  A float reads
    %.12g (a complex one %.12g%+.12gj) and any other record field %d, the
    text of f"{x:.12g}" and str(n): CPython renders both through
    PyOS_double_to_string and the int repr.  Raises ValueError on a NaN
    or infinity.
    """
    lines = [f"# {k} = {v}" for k, v in meta.items()]
    lines.extend(f"# {c}" for c in comments)
    names = rows.dtype.names
    if names:
        lines.append(",".join(names))
    start = sum(map(len, lines)) + len(lines)   # where the rows begin
    if names:
        fmt = ",".join("%.12g" if rows.dtype[f].kind == "f" else "%d"
                       for f in names)
        lines.extend(map(fmt.__mod__,
                         zip(*(rows[f].tolist() for f in names))))
    else:
        cell, cols = "%.12g", rows.shape[1]
        if np.iscomplexobj(rows):   # each row as interleaved (real, imag)
            cell = "%.12g%+.12gj"
            rows = np.stack((rows.real, rows.imag), -1)
            rows = rows.reshape(len(rows), 2 * cols)
        fmt = ",".join([cell] * cols)
        # one row at a time: the whole array's tolist() would hold a
        # Python float per number at once
        lines.extend(fmt % tuple(row.tolist()) for row in rows)
    text = "\n".join(lines) + "\n"
    # a NaN or infinity renders as nan, inf or -inf, and no finite %.12g
    # or %d text holds an "n"
    if text.find("n", start) >= 0:
        raise ValueError("non-finite value")
    return text


def _write_json(meta: dict, payload: dict) -> str:
    """The text of a JSON artifact: meta and payload, key-sorted."""
    return json.dumps({**meta, **payload}, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def _render(name, meta, art) -> str:
    """The text of artifact `name`; a config error if a number in it is
    not finite."""
    try:
        return (_write_json(meta, art) if isinstance(art, dict)
                else _write_csv(meta, *art))
    except ValueError:
        raise ConfigError(f"{name}: non-finite value; a config value takes "
                          "a result past the float range") from None


def _grid_comment(name: str, g: FrequencyGrid) -> str:
    return f"{name} = {g.min:.12g},{g.max:.12g},{g.points}"


def _warned(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the messages of every warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args, **kwargs)
    return result, [str(w.message) for w in caught]


# ---------------------------------------------------------------------------
# subcommands: each takes the config section left after main's keys and
# returns (exit status, {artifact suffix: artifact}), in writing order.  A
# CSV artifact is (comments, rows), a JSON artifact its payload.
# ---------------------------------------------------------------------------

def _cmd_jsa(sec):
    params = _parse_fields(sec.subsection("params"), PhysicalParams, "params")
    spec = _parse_spectrum(sec, params)
    grid_s, grid_i = _parse_grids(sec)
    sec.close()

    # a grid past the memory budget, before its axes are built, or
    # samples past the float range
    with _config_errors("grids", GridTooLarge), _config_errors("jsa"):
        require_grid_memory(grid_s.points * grid_i.points,
                            "the joint spectral amplitude")
        f = jsa_multiplexed(spec, grid_s.omegas[:, None],
                            grid_i.omegas[None, :])
        surface = np.abs(f) ** 2
        total = float(grid_s.weights @ surface @ grid_i.weights)
    peak = np.unravel_index(int(np.argmax(surface)), surface.shape)

    return 0, {
        "surface.csv": ([_grid_comment("signal_grid", grid_s),
                         _grid_comment("idler_grid", grid_i),
                         "rows = signal detuning, columns = idler detuning, "
                         "values = |f|^2"], surface),
        "meta.json": {"n_pairs": spec.n_pairs,
                      "peak_value": float(surface[peak]),
                      "peak_signal_detuning": float(grid_s.omegas[peak[0]]),
                      "peak_idler_detuning": float(grid_i.omegas[peak[1]]),
                      "total_intensity": total}}


def _cmd_schmidt(sec):
    params = _parse_fields(sec.subsection("params"), PhysicalParams, "params")
    spec = _parse_spectrum(sec, params)
    grid_s, grid_i = _parse_grids(sec)
    sec.close()

    # an all-zero or non-finite spectrum, or a grid too coarse or too large
    with _config_errors("schmidt",
                        (ValueError, UnderResolvedGrid, GridTooLarge)):
        d, caught = _warned(decompose, spec, grid_s, grid_i)

    return 0, {
        "lambdas.csv": ([], np.rec.fromarrays(
            [np.arange(len(d.lambdas), dtype=np.int64), d.lambdas],
            names="index,lambda")),
        "report.json": {"entropy": entropy(d), "norm": d.norm,
                        "n_modes": d.n_modes,
                        "lambda_sum": float(np.sum(d.lambdas)),
                        "lambdas_top": [float(x) for x in d.lambdas[:8]],
                        "warnings": caught}}


def _cmd_codes(sec):
    kind, kw, code = _parse_code(sec.subsection("code", required=True))
    sec.close()

    g = gram(code)
    n = len(code)
    off = ~np.eye(n, dtype=bool)
    # orthogonality is scale-free: count column pairs whose inner product
    # is rounding noise against the largest Gram entry
    tol = 64 * n * np.finfo(float).eps * np.max(np.abs(g))
    orthogonal_pairs = int(np.sum(np.abs(g[off]) <= tol)) // 2
    with _config_errors("levels"):
        levels = level_summary(code, 1)
    report = contrasts_from_levels(levels, 1)

    return 0, {
        "code.csv": (["columns are codewords"], code),
        "gram.csv": (["entry (i, j) = <codeword_i, codeword_j>"], g),
        "report.json": {"kind": kind, "n": n, "h": kw.get("h"),
                        "orthogonal_column_pairs": orthogonal_pairs,
                        "ideal_contrast": report}}


def _numeric_g2(code, delta, params, bin_width, acceptance, grids=None):
    """The numeric g2 matrix of `code` and its matched decode on an
    n-pair comb of pitch delta, and the (signal, idler) grids it ran on:
    the automatic comb grids unless `grids` are given.  g2_numeric and
    matched_decode are called through the module globals, which
    bench/tracer.py wraps."""
    n = len(code)
    if grids is None:
        with _config_errors("grids", GridTooLarge):
            grids = comb_grids(n, delta, params)
    # outer pair centers past the float range (the automatic grids refuse
    # such a delta first)
    with _config_errors("delta"):
        spec = MultiplexedSpectrum.comb(n, delta, params)
    with _config_errors("grids", (UnderResolvedGrid, GridTooLarge)), \
            _config_errors("bin_width"):
        return g2_numeric(spec, bin_width, *grids, code.T,
                          matched_decode(code.T),
                          acceptance_scale=acceptance), grids


def _cmd_single_channel(sec):
    *_, code = _parse_code(sec.subsection("code", required=True))
    mode = sec.take("mode", _choice("ideal", "numeric"), "ideal")

    if mode == "ideal":
        prefactor = sec.take("prefactor", _positive, 1.0)
        sec.close()
        matrix = g2_matrix_ideal(code, prefactor)
        comments = [f"ideal path, prefactor = {prefactor:.12g}"]
    else:
        if sec.has("prefactor"):
            raise ConfigError(
                "prefactor is fixed by calibration in numeric mode")
        params = _calibrated_params(sec)
        delta = sec.take("delta", _positive)
        bin_width = sec.take("bin_width", _positive, delta)
        acceptance = sec.take("acceptance_scale", _positive, 3.0)
        gsec, isec = sec.subsection("signal_grid"), sec.subsection("idler_grid")
        sec.close()
        if (gsec is None) != (isec is None):
            raise ConfigError("give both grids or neither")
        grids = None if gsec is None else (
            _parse_fields(gsec, FrequencyGrid, "signal_grid"),
            _parse_fields(isec, FrequencyGrid, "idler_grid"))
        matrix, (grid_s, grid_i) = _numeric_g2(code, delta, params, bin_width,
                                               acceptance, grids)
        comments = [f"numeric path, delta = {delta:.12g}, "
                    f"bin_width = {bin_width:.12g}, "
                    f"acceptance_scale = {acceptance:.12g}",
                    _grid_comment("signal_grid", grid_s),
                    _grid_comment("idler_grid", grid_i)]

    # contrast always from the emitted matrix so the report describes
    # exactly what was written
    report = contrasts(matrix)

    return 0, {
        "g2.csv": (comments + ["rows = encode index, columns = decode index"],
                   matrix),
        "contrast.json": {"mode": mode, "n": len(code), "contrast": report},
    }


def _cmd_sweep(sec):
    variable = sec.take("variable", _choice("h", "delta"))

    # every delta sizes grids and bins, so it must be positive
    number = _positive if variable == "delta" else _float
    values = sec.take("values", _numbers(number))
    if not values:
        raise ConfigError("config.values: expected a non-empty list")

    n = sec.take("n", _int, 4)

    if variable == "h":
        sec.close()

        def matrix_at(h):
            return g2_matrix_ideal(_code("linear-h", n, h=h))
    else:
        params = _calibrated_params(sec)
        h = sec.take("h", _float, 1.0)
        acceptance = sec.take("acceptance_scale", _positive, 3.0)
        sec.close()
        code = _code("linear-h", n, h=h)

        def matrix_at(delta):
            return _numeric_g2(code, delta, params, delta, acceptance)[0]

    reports = [contrasts(matrix_at(v)) for v in values]
    return 0, {"sweep.csv": ([f"n = {n}"], np.rec.fromarrays(
        [values, [r["v"] for r in reports], [r["c_od"] for r in reports]],
        names=[variable, "v", "c_od"]))}


def _cmd_multi_channel(sec):
    r = sec.take("r", _int)
    m = sec.take("m", _int)
    h = sec.take("h", _float, 2.0)
    bin_width = sec.take("bin_width", _positive, 100.0)
    normalization = sec.take("normalization",
                             _choice("global", "per_channel"), "global")
    prefactor = sec.take("prefactor", _positive, 1.0)
    tau = sec.take("tau", _positive, None)
    sec.close()

    layout = _staircase(r, m, bin_width)
    # an order past the memory budget is refused before the slow validate
    code = _code("linear-h", m, h=h)
    with _config_errors("staircase"):   # a pair shift past the float range
        info, caught = _warned(validate, layout, tau=tau)
    d = dimension(layout)

    with _config_errors("levels"):
        levels = level_summary(code, r, prefactor, normalization)
    report = contrasts_from_levels(levels, r)

    artifacts = {
        "levels.csv": ([f"r = {r}, m = {m}, h = {h:.12g}, "
                        f"normalization = {normalization}"], levels),
        "contrast.json": {"r": r, "m": m, "dimension": d,
                          "normalization": normalization, "layout": info,
                          "n_levels": len(levels),
                          "matrix_emitted": d <= LEVEL_THRESHOLD,
                          "contrast": report, "warnings": caught}}
    if d <= LEVEL_THRESHOLD:
        matrix = g2_matrix_ideal_multi(code, r, prefactor, normalization)
        artifacts["g2.csv"] = (["rows = encode index, columns = decode "
                                "index, mixed-radix digits give "
                                "per-channel codewords"], matrix)
    return 0, artifacts


def _cmd_validate_layout(sec):
    stair = sec.subsection("staircase")
    placed = sec.subsection("placement")
    # validate checks the ridge spacing of any layout, but the config
    # takes tau only beside a staircase
    tau = None if stair is None else sec.take("tau", _positive, None)
    sec.close()
    if (stair is None) == (placed is None):
        raise ConfigError("give exactly one of 'staircase' or 'placement'")

    source = placed if stair is None else stair
    r = source.take("r", _int)
    m = source.take("m", _int)
    if stair is not None:
        bw = stair.take("bin_width", _positive, 100.0)
        stair.close()
        layout = _staircase(r, m, bw)
    else:
        cells = placed.take("cells", _list)
        placed.close()
        placement = {}
        for entry in cells:
            if not (isinstance(entry, list) and len(entry) == 4
                    and all(type(x) is int for x in entry)):
                raise ConfigError(
                    "placement.cells entries must be [r, m, k, k'] integers")
            placement[(entry[0], entry[1])] = (entry[2], entry[3])
        if len(placement) != len(cells):
            raise ConfigError("placement.cells: a (r, m) slot is given twice")
        # a staircase refuses a code space past int64 itself
        with _config_errors("placement"):
            layout = ChannelLayout(r=r, m=m, placement=placement)
            dimension(layout)

    try:
        with _config_errors("staircase"):   # a pair shift past the float range
            info, caught = _warned(validate, layout, tau=tau)
    except CycleDetected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, {"layout.json": {
            "valid": False, "error": str(exc),
            "cycle": [f"{a}{k}" for a, k in exc.cycle]}}
    return 0, {"layout.json": {
        **info,
        "dimension": dimension(layout),
        "warnings": caught,
    }}


def _cmd_dynamics_check(sec):
    drive = _parse_fields(sec.subsection("drive"), DriveParams, "drive")
    grid_s, grid_i = _parse_grids(sec)
    t_final = sec.take("t_final", _float, None)
    sec.close()

    # grids too large for memory, or t_final too early for the pulse
    with _config_errors("grids", GridTooLarge), _config_errors("t_final"):
        report, caught = _warned(compare_dynamics, drive, grid_s, grid_i,
                                 t_final=t_final)

    return 0, {"dynamics.json": {
        **report,
        "drive": dataclasses.asdict(drive),
        "signal_grid": [grid_s.min, grid_s.max, grid_s.points],
        "idler_grid": [grid_i.min, grid_i.max, grid_i.points],
        "warnings": caught,
    }}


_COMMANDS = {
    "jsa": (_cmd_jsa, "sample a joint spectral amplitude onto CSV"),
    "schmidt": (_cmd_schmidt, "Schmidt weights and entropy of a spectrum"),
    "codes": (_cmd_codes, "build a code matrix and its Gram matrix"),
    "single-channel": (_cmd_single_channel,
                       "correlation matrix of one coded channel"),
    "sweep": (_cmd_sweep, "contrast metrics swept over h or delta"),
    "multi-channel": (_cmd_multi_channel,
                      "correlation levels of a multi-channel design"),
    "validate-layout": (_cmd_validate_layout,
                        "check decodability of a pair placement"),
    "dynamics-check": (_cmd_dynamics_check,
                       "integrate the cascade and compare the closed form"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="biphoton-coding",
        description="spectral-coding simulation runner (config-driven)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, blurb) in _COMMANDS.items():
        p = sub.add_parser(name, help=blurb)
        p.add_argument("config", help="JSON configuration file")
        p.add_argument("--out", default=None,
                       help="output directory (overrides the config)")
    args = parser.parse_args(argv)

    try:
        cfg, digest = _load_config(args.config)
        sec = _Section(cfg, "config")
        version = sec.take("config_version", _int)
        if version != CONFIG_VERSION:
            raise ConfigError(
                f"unsupported config_version {version} (expected {CONFIG_VERSION})")
        # consume output_dir even when --out overrides it, so the
        # unknown-key check stays strict for everything else
        cfg_out = sec.take("output_dir", _path, ".")
        outdir = Path(args.out) if args.out is not None else Path(cfg_out)
        label = sec.take("label", _label, args.command.replace("-", "_"))
        meta = {"artifact_version": ARTIFACT_VERSION,
                "config_sha256": digest,
                "tool": f"biphoton-coding {args.command}",
                "units": UNITS}
        # numbers past the float range become inf or NaN silently: the
        # render below refuses any of them
        with np.errstate(over="ignore", invalid="ignore"):
            status, artifacts = _COMMANDS[args.command][0](sec)
        # render every artifact before making the directory or writing
        # the first file, so a refused run leaves nothing behind
        texts = {f"{label}_{suffix}": _render(f"{label}_{suffix}", meta, art)
                 for suffix, art in artifacts.items()}
        outdir.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            (outdir / name).write_text(text)
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NotConverged, DegenerateMatrix) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (BiphotonCodingError, OSError) as exc:  # or an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
