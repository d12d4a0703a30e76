"""Self-check of the benchmark's failure accounting.

    python3 bench/selfcheck.py

Runs two small CLI invocations through the benchmark's own runner and
checks, then confirms that each of these counts as one failed
invocation: an artifact with a non-finite value, an artifact missing a
row, an artifact whose value drifted from its reference fingerprint, a
missing artifact, and a non-zero exit code.  A
correct invocation must count as passed.  Exits 0 when all hold.
"""

from __future__ import annotations

import shutil
import sys
import time
from pathlib import Path

import checks
import run
from workloads import Invocation


def _failed(runner, inv, tmp: Path, corrupt=None, reference=None) -> bool:
    """Run inv, apply corrupt(outdir), and report whether it failed."""
    outdir = tmp / inv.label
    shutil.rmtree(outdir, ignore_errors=True)
    [(cfg, data)] = run.write_configs([inv], tmp)
    _, code, _ = runner.spawn(
        [sys.executable, "-m", "biphoton_coding.cli", inv.command, str(cfg),
         "--out", str(outdir)], tmp / "selfcheck.err")
    if corrupt is not None:
        corrupt(outdir)
    return bool(checks.check_invocation(outdir, inv, data, code, reference))


def _edit(name, fn):
    def corrupt(outdir):
        path = outdir / name
        path.write_text(fn(path.read_text()))
    return corrupt


def _nan_first_value(text):
    lines = text.splitlines()
    k = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    lines[k] = "nan" + lines[k][lines[k].index(","):]
    return "\n".join(lines) + "\n"


def _drop_last_row(text):
    return "\n".join(text.splitlines()[:-1]) + "\n"


def _nudge_last_value(text):
    lines = text.splitlines()
    head, _, last = lines[-1].rpartition(",")
    lines[-1] = f"{head},{float(last) * (1 + 1e-6):.12g}"
    return "\n".join(lines) + "\n"


def main() -> int:
    runner = run.Runner(time.monotonic())
    codes = Invocation("codes", "codes4", {
        "config_version": 1, "label": "codes4",
        "code": {"kind": "linear-h", "n": 4, "h": 2.0}})
    sweep = Invocation("sweep", "sweep", {
        "config_version": 1, "label": "sweep", "variable": "h",
        "values": [1.5, 2.0, 3.0], "n": 4})
    # n=3 is not a power of two: the CLI exits 1
    bad = Invocation("codes", "codes3", {
        "config_version": 1, "label": "codes3",
        "code": {"kind": "linear-h", "n": 3, "h": 2.0}})
    with run.scratch() as tmp:
        _failed(runner, sweep, tmp)
        parsed, _ = checks.load_artifacts(tmp / "sweep", sweep)
        ref = {name: checks.fingerprint(art) for name, art in parsed.items()}
        cases = [
            ("correct codes run", False, codes, None, None),
            ("correct sweep run vs its reference", False, sweep, None, ref),
            ("NaN in code.csv", True, codes,
             _edit("codes4_code.csv", _nan_first_value), None),
            ("row missing from gram.csv", True, codes,
             _edit("codes4_gram.csv", _drop_last_row), None),
            ("sweep value off its reference by 1e-6", True, sweep,
             _edit("sweep_sweep.csv", _nudge_last_value), ref),
            ("report.json deleted", True, codes,
             lambda d: (d / "codes4_report.json").unlink(), None),
            ("exit 1", True, bad, None, None),
        ]
        wrong = 0
        for title, want, inv, corrupt, reference in cases:
            got = _failed(runner, inv, tmp, corrupt, reference)
            ok = got == want
            wrong += not ok
            print(f"{'ok ' if ok else 'BAD'} {title}: "
                  f"{'failed' if got else 'passed'}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
