"""Compare ``specfun._log_fixed`` with the mpmath formula it replaced on every
(n, prec) that the benchmark's reference inputs ask for.

Runs every input of the four perfbench workloads in one process (under ten
seconds on one core of a 2-vCPU VM), records each distinct (n, prec) passed
to ``_log_fixed``, and then evaluates both routines on them:

    PYTHONPATH=src:tests python3 tests/log_identity_sweep.py

Prints the number of distinct calls, the largest prec and n, and every
mismatch; exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from fermatvol import specfun  # noqa: E402

from _series_reference import log_fixed  # noqa: E402


def main() -> int:
    calls = set()
    new = specfun._log_fixed

    def recorded(n, prec):
        calls.add((n, prec))
        return new(n, prec)

    specfun._log_fixed = recorded
    reference = json.loads(Path(workloads.__file__).with_name("reference.json").read_text())
    for name, wl in workloads.WORKLOADS.items():
        wl.execute(workloads.reference_inputs(name, reference))
        print(f"{name}: {len(calls)} distinct calls so far", flush=True)
    specfun._log_fixed = new
    bad = [(n, prec) for n, prec in sorted(calls) if new(n, prec) != log_fixed(n, prec)]
    for n, prec in bad:
        print(f"mismatch: n={n} prec={prec}")
    print(f"{len(calls)} distinct (n, prec), max prec {max(p for _, p in calls)}, "
          f"largest n {max(n for n, _ in calls).bit_length()} bits, {len(bad)} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
