"""fermatvol benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload table|deep|selfcheck|volume \\
        --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it imports fermatvol from the
checkout's ``src``.  Every workload run happens in a fresh interpreter
(perfbench/worker.py), so caches start cold as they do for a CLI user.
Runs repeat until ``--seconds`` is used up and medians are reported.

--trace 0 prints the end-to-end metrics: wall_s, setup_s, peak_rss_mb,
ok_frac, worst_err_neglog10.  --trace 1 alternates untraced and traced
runs and prints the per-layer metrics; it also checks that both give the
same output digest, that the tracing wrappers are gone afterwards and
that every layer the workload is meant to exercise recorded calls.

The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}};
the line before it holds the digests, machine facts and raw samples.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_LAUNCHES = 7
PROBE_SAMPLES = 10
SETUP_CODE = "import fermatvol; fermatvol.f_value(4, 1, 10)"
CHILD_TIMEOUT_S = 150


def _launch(argv: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{argv[1]} exited with status {proc.returncode}")
    return proc.stdout


def setup_times() -> list[float]:
    """Fresh interpreter to ``import fermatvol`` plus one tiny certified value,
    rescaled by the speed probe sampled just before and after each launch."""
    argv = [sys.executable, "-c", SETUP_CODE]
    _launch(argv)  # the first launch in a checkout also writes bytecode caches
    times = []
    for _ in range(SETUP_LAUNCHES):
        speeds = [probe.sample() for _ in range(PROBE_SAMPLES)]
        start = time.perf_counter()
        _launch(argv)
        elapsed = time.perf_counter() - start
        speeds += [probe.sample() for _ in range(PROBE_SAMPLES)]
        times.append(elapsed * statistics.fmean(speeds))
    return times


def worker(workload: str, seed: int, trace: int) -> dict:
    out = _launch([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                   "--seed", str(seed), "--trace", str(trace)])
    return json.loads(out.splitlines()[-1])


def repeat(seconds: float, fn) -> list:
    """Call fn until another call would likely end after ``seconds``; at least once."""
    runs = []
    start = time.perf_counter()
    while True:
        runs.append(fn())
        elapsed = time.perf_counter() - start
        if elapsed * (len(runs) + 1) / len(runs) > seconds:
            return runs


def _median(runs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in runs)


def end_to_end(workload: str, seed: int, seconds: float):
    setups = setup_times()
    runs = repeat(seconds, lambda: worker(workload, seed, 0))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {
        "wall_s": (_median(runs, "wall_s"), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (_median(runs, "peak_rss_mb"), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        "worst_err_neglog10": (_median(runs, "worst_err_neglog10"), "digits"),
    }
    return runs, metrics, {"setup_samples_s": setups}


def per_layer(workload: str, seed: int, seconds: float):
    pairs = repeat(seconds, lambda: (worker(workload, seed, 0), worker(workload, seed, 1)))
    plain = [p[0] for p in pairs]
    traced = [p[1] for p in pairs]
    metrics = {}
    for name in traced[0]["layers"]:
        metrics[f"{name}.calls"] = (traced[0]["layers"][name]["calls"], "count")
        metrics[f"{name}.self_s"] = (
            statistics.median(t["layers"][name]["self_s"] for t in traced), "s")
    for name, (hits, misses) in traced[0]["caches"].items():
        metrics[f"{name}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0,
                                        "ratio")
        metrics[f"{name}.hits"] = (hits, "count")
        metrics[f"{name}.misses"] = (misses, "count")
    metrics["trace.overhead_s"] = (_median(traced, "wall_s") - _median(plain, "wall_s"), "s")

    problems = []
    if len({r["digest"] for r in plain + traced}) != 1:
        problems.append("traced and untraced runs give different output digests")
    for t in traced:
        if t["leftover_wrappers"]:
            problems.append(f"tracing wrappers left installed: {t['leftover_wrappers']}")
        if t["silent_layers"]:
            problems.append(f"layers with no traced calls: {t['silent_layers']}")
    detail = {"spans": traced[0]["spans"], "problems": sorted(set(problems)),
              "traced_wall_s": [t["wall_s"] for t in traced]}
    return plain + traced, metrics, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("table", "deep", "selfcheck", "volume"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "fermatvol" / "__init__.py").is_file():
        print(f"no fermatvol sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    measure = per_layer if args.trace else end_to_end
    runs, metrics, detail = measure(args.workload, args.seed, args.seconds)
    problems = detail.pop("problems", [])
    if len({r["digest"] for r in runs}) != 1:
        problems.append("repeated runs give different output digests")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "facts": dict(runs[0]["facts"], src_lines=src_lines),
        "digest": runs[0]["digest"], "problems": problems,
        "failures": sorted({f for r in runs for f in r["failures"]}),
        "wall_samples_s": [r["wall_s"] for r in runs],
        "raw_wall_samples_s": [r["raw_wall_s"] for r in runs],
        "speed_samples": [r["speed"] for r in runs], **detail,
    }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
