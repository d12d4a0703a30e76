"""Seeded workload definitions: the CLI invocations one pass runs.

A seed varies only values that keep every array and table size fixed
(code h, level-table prefactor and bin widths, comb pair weights and
phases, drive pulse areas).  The CLI receives nothing but the generated
config files.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    """One CLI call: subcommand, output label, config mapping."""

    command: str
    label: str
    config: dict


def _cfg(label, **body):
    return {"config_version": 1, "label": label, **body}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def numeric_g2(seed: int) -> list:
    # The per-cell numeric g2 path, which a batched engine would replace:
    # direct np.convolve for every cell, with marginals and masks rebuilt
    # per cell.  n=4 (16 cells), then a delta sweep (48 more cells), so a
    # pass takes a few seconds and a run holds several; n=8 would take
    # ~15 s per matrix.  The artifacts are tiny, so writing costs ~nothing.
    rng = _rng("numeric-g2", seed)
    h_matrix = round(rng.uniform(1.5, 3.0), 6)
    h_sweep = round(rng.uniform(1.5, 3.0), 6)
    return [
        Invocation("single-channel", "g2n4", _cfg(
            "g2n4", mode="numeric", code={"kind": "linear-h", "n": 4,
                                          "h": h_matrix},
            params={"tau": 0.5}, delta=100.0, bin_width=100.0)),
        Invocation("sweep", "sweep", _cfg(
            "sweep", variable="delta", values=[40.0, 60.0, 100.0], n=4,
            h=h_sweep, params={"tau": 0.5})),
    ]


def level_tables(seed: int) -> list:
    # Level and contrast tables, which an extrema DP would replace, and
    # the CLI CSV writer: a 256x256 matrix (r=2, m=16) and 84,356 levels
    # (r=7, m=8; 2.2 MB of CSV).  No spectra or numeric calls.  h stays
    # at 2 in multi-channel runs because the level count depends on it;
    # the prefactor only rescales every level.
    rng = _rng("level-tables", seed)
    h_codes = round(rng.uniform(1.5, 3.0), 6)
    bin_width = round(rng.uniform(80.0, 120.0), 6)
    invs = [
        Invocation("codes", "codes16", _cfg(
            "codes16", code={"kind": "linear-h", "n": 16, "h": h_codes})),
        Invocation("validate-layout", "stair8", _cfg(
            "stair8", staircase={"r": 8, "m": 16, "bin_width": bin_width})),
    ]
    for r, m in ((2, 16), (7, 8)):
        invs.append(Invocation("multi-channel", f"mc{r}", _cfg(
            f"mc{r}", r=r, m=m, h=2.0, bin_width=bin_width,
            prefactor=round(rng.uniform(0.5, 2.0), 6))))
    return invs


def source_physics(seed: int) -> list:
    # Dense Schmidt SVD of a 1024x1024 JSA and two cascade ODE
    # integrations (9,315 unknowns each; the larger detuning takes more
    # steps).  No correlation calls; spectra is reached through 2-D JSA
    # sampling, not 1-D marginals.
    rng = _rng("source-physics", seed)
    pairs = []
    for k in range(4):
        mag = rng.uniform(0.5, 1.5)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        pairs.append({"weight": [round(mag * math.cos(phase), 9),
                                 round(mag * math.sin(phase), 9)],
                      "delta_p": (k - 1.5) * 100.0})
    grid = {"min": -400.0, "max": 400.0, "points": 1024}
    invs = [Invocation("schmidt", "schmidt", _cfg(
        "schmidt", params={"tau": 0.5}, pairs=pairs,
        signal_grid=dict(grid), idler_grid=dict(grid)))]
    for detuning in (50.0, 200.0):
        drive = {"delta1": detuning, "delta2": detuning,
                 "omega_a_tilde": round(rng.uniform(0.5, 2.0), 6),
                 "omega_b_tilde": round(rng.uniform(0.5, 2.0), 6)}
        label = f"dyn{int(detuning)}"
        invs.append(Invocation("dynamics-check", label, _cfg(
            label, drive=drive,
            signal_grid={"min": -8.0, "max": 8.0, "points": 96},
            idler_grid={"min": -10.0, "max": 10.0, "points": 96})))
    return invs


WORKLOADS = {
    "numeric-g2": numeric_g2,
    "level-tables": level_tables,
    "source-physics": source_physics,
}
