"""End-to-end benchmark of the biphoton-coding CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is taken from
``src/`` next to this directory, never from an installed copy.

--trace 0 times real CLI invocations.  Each is a fresh interpreter
(``python3 -m biphoton_coding.cli``), started one after another from this
process: a closed loop with one client and the CLI default --workers 1.
A run times interpreter start plus ``import biphoton_coding.cli``
(setup_s): one warm-up, SETUP_SAMPLES starts, then one more before each
pass, so that the samples are spread over the run.  It repeats passes
over the workload while another pass still fits in --seconds, and
reports medians over starts and over passes.

--trace 1 runs one pass in a child interpreter through ``cli.main``,
untraced and then with every layer's public functions wrapped
(tracer.py), and reports per-layer self times and counts; the difference
between the traced and untraced in-process passes is the tracing
overhead.

Every invocation's artifacts are checked (checks.py); a non-zero exit
code or a failed check counts the invocation as failed.  Artifacts go to
a temporary directory inside the checkout that is removed after each
pass.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 3
# every child is killed once the run has lasted this long
RUN_LIMIT_S = 170.0
THREADS = min(2, len(os.sched_getaffinity(0)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(dict.fromkeys(THREAD_VARS, str(THREADS)))
    return env


class Runner:
    """Spawns children one at a time and kills any that outlive the run."""

    def __init__(self, started: float):
        self.env = child_env()
        self.deadline = started + RUN_LIMIT_S

    def spawn(self, argv, stderr_path: Path):
        """Run argv to completion; returns (wall_s, exit code, max RSS MB)."""
        with open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0


@contextlib.contextmanager
def scratch():
    """A temporary directory inside the checkout, removed on exit."""
    work = ROOT / ".bench_tmp"
    work.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            yield Path(tmp)
    finally:
        with contextlib.suppress(OSError):
            work.rmdir()


def write_configs(invocations, tmp: Path) -> list:
    """Write each config to tmp; returns [(path, bytes)]."""
    out = []
    for inv in invocations:
        data = json.dumps(inv.config, sort_keys=True).encode()
        path = tmp / f"{inv.label}.json"
        path.write_bytes(data)
        out.append((path, data))
    return out


def check_all(invocations, configs, outdirs, exits, reference, checks):
    failures = []
    for inv, (_, data), outdir, code in zip(invocations, configs, outdirs,
                                            exits):
        ref = None if reference is None else reference.get(inv.label)
        failures.append(checks.check_invocation(outdir, inv, data, code, ref))
    return failures


def setup_time(runner: Runner, tmp: Path) -> float:
    wall, code, _ = runner.spawn(
        [sys.executable, "-c", "import biphoton_coding.cli"],
        tmp / "setup.err")
    if code != 0:
        raise RuntimeError((tmp / "setup.err").read_text())
    return wall


def untraced_pass(runner, invocations, tmp: Path, reference, checks) -> dict:
    configs = write_configs(invocations, tmp)
    outdirs = [tmp / inv.label for inv in invocations]
    exits, rss = [], []
    start = time.perf_counter()
    for inv, (cfg, _), outdir in zip(invocations, configs, outdirs):
        _, code, mb = runner.spawn(
            [sys.executable, "-m", "biphoton_coding.cli", inv.command,
             str(cfg), "--out", str(outdir)], tmp / f"{inv.label}.err")
        exits.append(code)
        rss.append(mb)
    wall = time.perf_counter() - start
    failures = check_all(invocations, configs, outdirs, exits, reference,
                         checks)
    return {"wall_s": wall, "peak_rss_mb": max(rss), "failures": failures}


def _durations(spans):
    """(self time per layer, total duration per span name)."""
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    self_s, total = defaultdict(float), defaultdict(float)
    for k, s in enumerate(spans):
        d = s["end"] - s["start"]
        self_s[s["layer"]] += d - covered[k]
        total[s["name"]] += d
    return self_s, total


def layer_metrics(result: dict, artifact_bytes: int, identical: float):
    self_s, total = _durations(result["spans"])
    cnt = defaultdict(int, result["counters"])
    calls = cnt["spectra.marginal_calls"]
    m = {f"{layer}.self_s": self_s[layer]
         for layer in ("correlation", "spectra", "schmidt", "dynamics",
                       "layout", "codes", "cli")}
    m.update({
        "correlation.g2_cells": cnt["correlation.g2_cells"],
        "correlation.convolution_calls": cnt["correlation.convolution_calls"],
        "correlation.convolution_s": total["correlation.convolution"],
        "correlation.convolution_macs": cnt["correlation.convolution_macs"],
        "correlation.mask_calls": cnt["correlation.mask_calls"],
        "correlation.level_summary_s": total["cli.level_summary"],
        "correlation.levels": cnt["correlation.levels"],
        "correlation.ideal_matrix_s": (total["cli.g2_matrix_ideal"]
                                       + total["cli.g2_matrix_ideal_multi"]),
        "correlation.contrast_s": (total["cli.contrasts"]
                                   + total["cli.contrasts_from_levels"]),
        "spectra.marginal_calls": calls,
        "spectra.marginal_reuse": (cnt["spectra.marginal_distinct"] / calls
                                   if calls else 0.0),
        "spectra.jsa_samples": cnt["spectra.jsa_samples"],
        "schmidt.decompose_s": total["cli.decompose"],
        "schmidt.svd_s": total["linalg.svd"],
        "schmidt.matrix_bytes": cnt["schmidt.matrix_bytes"],
        "dynamics.integrate_s": total["dynamics.solve_ivp"],
        "dynamics.nfev": cnt["dynamics.nfev"],
        "dynamics.state_size": cnt["dynamics.state_size"],
        "layout.validate_calls": cnt["layout.validate_calls"],
        "codes.calls": cnt["codes.calls"],
        "cli.artifact_bytes": artifact_bytes,
        "cli.artifacts_identical": identical,
    })
    untraced = sum(r["wall_s"] for r in result["plain"])
    m["trace.untraced_s"] = untraced
    m["trace.overhead_s"] = sum(r["wall_s"] for r in result["traced"]) - untraced
    return m


def _compare_outputs(plain_dirs, traced_dirs):
    """(share of plain artifacts byte-identical in the traced run,
    total bytes of the traced run's artifacts)."""
    same = total = size = 0
    for plain, traced in zip(plain_dirs, traced_dirs):
        for path in (plain.iterdir() if plain.is_dir() else ()):
            twin = traced / path.name
            total += 1
            same += twin.is_file() and twin.read_bytes() == path.read_bytes()
        size += sum(p.stat().st_size for p in
                    (traced.iterdir() if traced.is_dir() else ()))
    return (same / total if total else 0.0), size


def traced_pass(runner, invocations, tmp: Path, reference, checks,
                keep: Path) -> dict:
    configs = write_configs(invocations, tmp)
    dirs = {mode: [tmp / mode / inv.label for inv in invocations]
            for mode in ("plain", "traced")}
    job = {mode: [[inv.command, str(cfg), str(d)]
                  for inv, (cfg, _), d in zip(invocations, configs, dirs[mode])]
           for mode in dirs}
    (tmp / "job.json").write_text(json.dumps(job))
    _, code, _ = runner.spawn(
        [sys.executable, str(BENCH / "tracer.py"), str(tmp / "job.json"),
         str(tmp / "trace.json")], tmp / "tracer.err")
    if code != 0:
        raise RuntimeError((tmp / "tracer.err").read_text())
    result = json.loads((tmp / "trace.json").read_text())
    shutil.copyfile(tmp / "trace.json", keep)
    failures = []
    for mode in dirs:
        exits = [r["exit"] for r in result[mode]]
        failures += check_all(invocations, configs, dirs[mode], exits,
                              reference, checks)
    identical, size = _compare_outputs(dirs["plain"], dirs["traced"])
    return {"metrics": layer_metrics(result, size, identical),
            "failures": failures}


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": THREADS, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas}


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "biphoton_coding" / "cli.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the checks below use numpy in this process; pin it like the children
    os.environ.update(dict.fromkeys(THREAD_VARS, str(THREADS)))
    import checks

    refs = json.loads((BENCH / "references.json").read_text())
    reference = refs.get(args.workload, {}).get(str(args.seed))
    invocations = WORKLOADS[args.workload](args.seed)
    runner = Runner(started)
    print("# env " + json.dumps(environment(), sort_keys=True))
    keep = ROOT / ".bench_out"
    keep.mkdir(exist_ok=True)

    if args.trace:
        with scratch() as tmp:
            out = traced_pass(runner, invocations, tmp, reference, checks,
                              keep / f"trace-{args.workload}-seed{args.seed}"
                              ".json")
        failures = out["failures"]
        metrics = {k: (v, _unit(k)) for k, v in out["metrics"].items()}
        report_layers(out["metrics"])
    else:
        with scratch() as tmp:
            setup_time(runner, tmp)          # warm the bytecode cache
            setups = [setup_time(runner, tmp) for _ in range(SETUP_SAMPLES)]
        passes = []
        while True:
            t0 = time.monotonic()
            with scratch() as tmp:
                setups.append(setup_time(runner, tmp))
                passes.append(untraced_pass(runner, invocations, tmp,
                                            reference, checks))
            passes[-1]["cost"] = time.monotonic() - t0
            est = statistics.median(p["cost"] for p in passes)
            if time.monotonic() - started + est > args.seconds:
                break
        failures = [f for p in passes for f in p["failures"]]
        walls = [p["wall_s"] for p in passes]
        rss = [p["peak_rss_mb"] for p in passes]

    attempted = len(failures)
    failed = sum(1 for f in failures if f)
    if not args.trace:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
            "success_rate": (1.0 - failed / attempted, "ratio"),
        }
        report_e2e(walls, setups, rss, failed, attempted)
    for f in failures:
        for message in f:
            print(f"# FAIL {message}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_reuse", "_identical")):
        return "ratio"
    return "count"


def report_e2e(walls, setups, rss, failed, attempted):
    rows = [("wall_s", walls, "s"), ("setup_s", setups, "s"),
            ("peak_rss_mb", rss, "MB")]
    for name, xs, unit in rows:
        q1, q3 = _quartiles(xs)
        print(f"# {name:<12} {statistics.median(xs):10.4f} {unit:<5} "
              f"median of {len(xs)}, quartiles {q1:.4f} .. {q3:.4f}")
    print("# pass walls " + " ".join(f"{w:.3f}" for w in walls))
    print(f"# {'error_rate':<12} {failed / attempted:10.4f} ratio "
          f"{failed} of {attempted} invocations failed")


def report_layers(metrics):
    selfs = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
    total = sum(selfs.values()) or 1.0
    for name, value in metrics.items():
        share = (f"  {100 * value / total:5.1f}% of self time"
                 if name in selfs else "")
        print(f"# {name:<31} {value:14.6g} {_unit(name):<5}{share}")


if __name__ == "__main__":
    sys.exit(main())
