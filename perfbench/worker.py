"""One run of one workload in this (fresh) interpreter; prints one JSON line.

Usage: python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
with the checkout's ``src`` on PYTHONPATH (run.py sets it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import time
from pathlib import Path

import mpmath.libmp

import fermatvol
import workloads
from fermatvol import ceresa, fermat
from probe import SpeedProbe
from tracer import Tracer

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def _cache(fn) -> list[int]:
    info = fn.cache_info()
    return [info.hits, info.misses]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    package = Path(fermatvol.__file__).resolve().parent
    if package != HERE.parent / "src" / "fermatvol":
        raise SystemExit(f"imported fermatvol from {package}, not from this checkout")
    reference = json.loads(REFERENCE.read_text())
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed, reference)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        with SpeedProbe() as probe:
            start = time.perf_counter()
            result = wl.execute(inputs)
            wall = time.perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    items = wl.render(result)
    expected = reference[args.workload]
    failures = []
    for item in items:
        want = expected.get(item.key)
        if item.problem:
            failures.append(f"{item.key}: {item.problem}")
        elif item.line != want:
            failures.append(f"{item.key}: got {item.line!r}, reference {want!r}")
    errs = [item.err for item in items if item.err]
    out = {
        "raw_wall_s": wall,
        "speed": probe.speed,
        "wall_s": wall * probe.speed,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(items),
        "failed": len(failures),
        "failures": failures[:10],
        "digest": hashlib.sha256("\n".join(i.line for i in items).encode()).hexdigest(),
        # 0 when no item produced a bound, which only happens when all failed
        "worst_err_neglog10": -math.log10(max(errs)) if errs else 0.0,
        "caches": {"ceresa.h_term": _cache(ceresa._h_term),
                   "fermat.harmonic_volume_exact_parts":
                       _cache(fermat._sigma_exact_parts_cached)},
        "facts": {"python": platform.python_version(),
                  "mpmath_backend": mpmath.libmp.BACKEND, "cpu_count": os.cpu_count()},
    }
    if tracer:
        layers = tracer.layer_totals()
        for totals in layers.values():
            totals["self_s"] *= probe.speed
        out["layers"] = layers
        out["spans"] = len(tracer.spans)
        out["leftover_wrappers"] = tracer.leftover_wrappers()
        out["silent_layers"] = [name for name in wl.layers if not layers[name]["calls"]]
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
