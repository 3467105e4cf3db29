"""Record reference.json: the canonical output of every input a seed can draw.

Run from the root of a checkout (about three minutes on one core):

    PYTHONPATH=src python3 perfbench/make_reference.py

Regenerate only when a change is meant to alter behaviour, and say so in
that change: the benchmark counts every line that differs from this file
as a failed item.
"""

from __future__ import annotations

import json
from pathlib import Path

import workloads

OUT = Path(__file__).resolve().parent / "reference.json"


def main() -> None:
    reference = {"volume_pool": {str(n): workloads.volume_pool(n, workloads.VOLUME_POOL_PER_DEGREE)
                                 for n in workloads.VOLUME_TRIPLES}}
    for name, wl in workloads.WORKLOADS.items():
        items = wl.render(wl.execute(workloads.reference_inputs(name, reference)))
        problems = [f"{i.key}: {i.problem}" for i in items if i.problem]
        if problems:
            raise SystemExit(f"{name}: refusing to record failures: {problems}")
        reference[name] = {i.key: i.line for i in items}
        print(f"{name}: {len(items)} lines", flush=True)
    OUT.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
