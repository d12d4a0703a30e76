"""Record reference fingerprints for the seeds the benchmark ships.

    python3 bench/record.py [FIRST LAST]

Runs one untraced pass of every workload for each seed in FIRST..LAST
(default 0..11), requires every invariant to hold, and writes the
artifact fingerprints to bench/references.json.  Run it only on a commit
whose artifacts are known to be right: later runs of those seeds are
compared with what it records.
"""

from __future__ import annotations

import json
import sys
import time

import checks
import run
from workloads import WORKLOADS


def main(argv) -> int:
    first, last = (int(a) for a in argv) if argv else (0, 11)
    runner = run.Runner(time.monotonic())
    refs = {}
    for name, build in WORKLOADS.items():
        for seed in range(first, last + 1):
            # each pass gets a fresh run limit
            runner.deadline = time.monotonic() + run.RUN_LIMIT_S
            invocations = build(seed)
            with run.scratch() as tmp:
                out = run.untraced_pass(runner, invocations, tmp, None, checks)
                bad = [m for f in out["failures"] for m in f]
                if bad:
                    print("\n".join(bad), file=sys.stderr)
                    return 1
                refs.setdefault(name, {})[str(seed)] = {
                    inv.label: {art: checks.fingerprint(parsed) for art, parsed
                                in checks.load_artifacts(tmp / inv.label,
                                                         inv)[0].items()}
                    for inv in invocations}
            print(f"{name} seed {seed}: {out['wall_s']:.2f} s", flush=True)
    path = run.BENCH / "references.json"
    path.write_text(json.dumps(refs, sort_keys=True, separators=(",", ":"))
                    + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
