"""In-process pass over a workload, untraced and then traced.

Run as a child of run.py with the package on PYTHONPATH:

    python3 bench/tracer.py JOB.json RESULT.json

JOB.json holds two lists of invocations, "plain" and "traced", each
entry [command, config path, output dir].  Each is run through
``biphoton_coding.cli.main``, the plain ones first.  Before the traced
ones, every layer's public functions are wrapped at the names other
modules call them through, and each call is kept in memory as a span
(name, layer, start, end, parent, invocation id).  RESULT.json gets the
per-invocation wall times and exit codes, the spans, and the counters
that are measured where the work happens.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []          # (name, layer, start, end, parent, invocation)
        self.counters = Counter()
        self.marginal_keys = set()
        self.invocation = None
        self._stack = []

    def span(self, fn, name, layer, on_call=None):
        """Wrap fn so each call records a span; on_call(args, kwargs,
        result) updates counters after the call returns."""
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, layer, start, end, parent,
                                   self.invocation)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result
        return traced

    def patch(self, module, attr, layer, on_call=None):
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        setattr(module, attr, self.span(getattr(module, attr), name, layer,
                                        on_call))

    def count(self, key, amount=1):
        self.counters[key] += amount


def install(tracer: Tracer):
    """Wrap the layer boundaries the CLI crosses; returns cli.main."""
    import numpy as np

    from biphoton_coding import cli, correlation, dynamics, schmidt

    c = tracer.count

    def on_convolution(args, kwargs, result):
        c("correlation.convolution_calls")
        c("correlation.convolution_macs", len(args[0]) * len(args[1]))

    def on_marginal(args, kwargs, result):
        c("spectra.marginal_calls")
        tracer.marginal_keys.add(tuple(args))

    def on_svd(args, kwargs, result):
        c("schmidt.matrix_bytes", args[0].nbytes)

    def on_solve(args, kwargs, result):
        c("dynamics.nfev", result.nfev)
        tracer.counters["dynamics.state_size"] = max(
            tracer.counters["dynamics.state_size"], len(args[2]))

    p = tracer.patch
    p(cli, "g2_numeric", "correlation", lambda *a: c("correlation.g2_cells"))
    for attr in ("contrasts", "contrasts_from_levels", "g2_matrix_ideal",
                 "g2_matrix_ideal_multi", "matched_decode"):
        p(cli, attr, "correlation")
    p(cli, "level_summary", "correlation",
      lambda a, k, r: c("correlation.levels", len(r)))
    p(correlation, "convolution", "correlation", on_convolution)
    p(correlation, "coding_bin_mask", "correlation",
      lambda *a: c("correlation.mask_calls"))
    p(correlation, "acceptance_gate", "correlation")
    for attr in ("marginal_signal_mode", "marginal_idler_mode"):
        p(correlation, attr, "spectra", on_marginal)
    for module in (cli, schmidt):
        p(module, "jsa_multiplexed", "spectra",
          lambda a, k, r: c("spectra.jsa_samples", r.size))
    p(cli, "decompose", "schmidt")
    p(cli, "entropy", "schmidt")
    # schmidt is the package's only caller of np.linalg.svd
    p(np.linalg, "svd", "schmidt", on_svd)
    p(cli, "compare_dynamics", "dynamics")
    p(dynamics, "integrate_eom", "dynamics")
    p(dynamics, "solve_ivp", "dynamics", on_solve)
    for attr in ("staircase", "dimension"):
        p(cli, attr, "layout")
    p(cli, "validate", "layout", lambda *a: c("layout.validate_calls"))
    for attr in ("alamouti_n", "make_c", "gram"):
        p(cli, attr, "codes", lambda *a: c("codes.calls"))
    p(correlation, "gram", "codes", lambda *a: c("codes.calls"))
    for attr in ("_write_csv", "_write_json"):
        p(cli, attr, "cli")
    return tracer.span(cli.main, "cli.main", "cli")


def _run(entry, command, config, outdir) -> dict:
    start = time.perf_counter()
    try:
        code = entry([command, config, "--out", outdir])
    except Exception:
        traceback.print_exc()
        code = -1
    return {"wall_s": time.perf_counter() - start, "exit": code}


def main(job_path, result_path) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    from biphoton_coding import cli
    plain = [_run(cli.main, *inv) for inv in job["plain"]]
    tracer = Tracer()
    traced_main = install(tracer)
    traced = []
    for k, inv in enumerate(job["traced"]):
        tracer.invocation = k
        traced.append(_run(traced_main, *inv))
    counters = dict(tracer.counters)
    counters["spectra.marginal_distinct"] = len(tracer.marginal_keys)
    spans = [dict(zip(("name", "layer", "start", "end", "parent",
                       "invocation"), s)) for s in tracer.spans]
    with open(result_path, "w") as fh:
        json.dump({"plain": plain, "traced": traced, "spans": spans,
                   "counters": counters}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
