"""The four benchmark workloads: inputs from a seed, execution, canonical output.

Each workload has three steps.  ``inputs`` turns the seed (and, where the
inputs are drawn from a recorded pool, the reference) into plain data.
``execute`` makes the calls a user of fermatvol would make; only this
step is timed.  ``render`` turns the results into ``Item`` records whose
``line`` is compared with the recorded reference.  A line holds
fractional parts to 17 digits, verdicts, self-test output and exact
values, never an error bound, so a tighter bound is not a behaviour
change; bounds are tracked by the ``worst_err_neglog10`` metric instead.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
from dataclasses import dataclass
from typing import Callable, Optional

import mpmath

from fermatvol import ceresa, cli, cyclotomic, fermat, specfun

DIGITS = 30
# table: the sampled degrees always add up to this many twist terms, so the
# work per run does not depend on the seed (one term costs 35-60 ms at N<100).
TABLE_TWIST_TERMS = 90
# deep: a full sweep; per-degree costs of an all-k sweep span 0.08 s (N=4)
# to 19.5 s (N=11), so a seeded subset of degrees would time the seed.
DEEP_DEGREES = range(4, 10)
SCAN = (5, 1, 10 ** 5)
SELFCHECK_TRIALS = 8
SELFCHECK_SEEDS = [20100301 + i for i in range(24)]
ORACLE_DEGREE = 5
# volume: triples drawn per degree; one triple's cost varies by about 10%
# with its coefficient sizes, so several cheap triples keep the sum steady.
VOLUME_TRIPLES = {11: 4, 13: 2}
VOLUME_POOL_PER_DEGREE = 12

ERRORS = (specfun.PrecisionError, specfun.DomainError, specfun.DivergenceError)


@dataclass
class Item:
    key: str                      # reference key
    line: str                     # canonical output
    err: Optional[float] = None   # certified bound (or error figure) of this item
    problem: Optional[str] = None  # failure seen without the reference


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _frac(x) -> str:
    return mpmath.nstr(x, 17)


def _fixed(x) -> str:
    """x to 20 decimal places: a volume component whose exact value is 0
    comes out as rounding noise near 1e-40, which nstr would print."""
    with mpmath.mp.workdps(60):
        return str(int(mpmath.nint(x * mpmath.mpf(10) ** 20))) + "e-20"


def _twist_count(n: int) -> int:
    return sum(1 for h in range(1, (n - 1) // 2 + 1) if math.gcd(h, n) == 1)


# ---------------------------------------------------------------------------
# table: the 96-row table path at k=1, 30 digits
# ---------------------------------------------------------------------------

def table_inputs(seed: int, reference: dict) -> list[int]:
    order = list(range(4, 100))
    _rng("table", seed).shuffle(order)
    chosen, budget = [], TABLE_TWIST_TERMS
    for n in order:
        if _twist_count(n) <= budget:
            chosen.append(n)
            budget -= _twist_count(n)
    return sorted(chosen)


def table_execute(degrees: list[int]):
    return ceresa.table1(degrees, k=1, digits=DIGITS, threads=1)


def table_render(rows) -> list[Item]:
    return [_value_item(str(row.n), row) for row in rows]


def _value_item(key: str, row) -> Item:
    if isinstance(row, ceresa.RowFailure):
        return Item(key, f"{row.n},{row.k},FAILED", None, row.message)
    return Item(key, f"{row.n},{row.k},{_frac(row.frac)},{row.verdict}",
                float(row.err), _verdict_problem(row.verdict))


def _verdict_problem(verdict: str) -> Optional[str]:
    return None if verdict == "non-integral" else f"verdict {verdict}"


# ---------------------------------------------------------------------------
# deep: every admissible k (100-120 digit inner sums), Klein k=13, the scan
# ---------------------------------------------------------------------------

def deep_inputs(seed: int, reference: dict) -> list[tuple[int, int]]:
    pairs = [(n, k) for n in DEEP_DEGREES for k in ceresa.admissible_k(n)]
    _rng("deep", seed).shuffle(pairs)
    return pairs


def deep_execute(pairs: list[tuple[int, int]]):
    values = []
    for n, k in pairs:
        try:
            values.append(ceresa.f_value(n, k, DIGITS))
        except ERRORS as exc:
            values.append(ceresa.RowFailure(n, k, f"{type(exc).__name__}: {exc}"))
    klein = ceresa.klein_value(13, DIGITS)
    scan = ceresa.multiples_scan(*SCAN, DIGITS)
    return values, klein, scan


def deep_render(result) -> list[Item]:
    values, klein, scan = result
    items = [_value_item(f"{row.n},{row.k}", row) for row in values]
    items.append(Item("klein13", f"klein 13,{_frac(klein.frac)},{klein.verdict}",
                      float(klein.err), _verdict_problem(klein.verdict)))
    items.append(Item("scan", f"scan {SCAN},{scan.verified_up_to},{scan.first_inconclusive}",
                      None, None if scan.all_verified else "scan inconclusive"))
    return items


# ---------------------------------------------------------------------------
# selfcheck: the two built-in self-tests through the CLI
# ---------------------------------------------------------------------------

def selfcheck_inputs(seed: int, reference: dict) -> list[int]:
    return [SELFCHECK_SEEDS[_rng("selfcheck", seed).randrange(len(SELFCHECK_SEEDS))]]


def selfcheck_execute(cli_seeds: list[int]):
    commands = {f"dixon-test {s}": ["dixon-test", "--trials", str(SELFCHECK_TRIALS),
                                    "--seed", str(s)] for s in cli_seeds}
    commands["oracle-test"] = ["oracle-test", "--n", str(ORACLE_DEGREE)]
    runs = []
    for name, argv in commands.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv + ["--digits", str(DIGITS)])
        runs.append((name, status, out.getvalue(), err.getvalue()))
    return runs


_ORACLE_GAP = re.compile(r"worst \|closed - quadrature\| = (\S+)")


def selfcheck_render(runs) -> list[Item]:
    items = []
    for name, status, out, err in runs:
        lines = out.splitlines()
        for i, line in enumerate(lines):
            problem = None
            if "DISAGREE" in line:
                problem = "Dixon members disagree"
            elif i == len(lines) - 1 and (status != 0 or err):
                problem = f"exit status {status}; {err.strip()[:200]}"
            gap = _ORACLE_GAP.search(line)
            items.append(Item(f"{name}:{i}", line, float(gap.group(1)) if gap else None,
                              problem))
    return items


# ---------------------------------------------------------------------------
# volume: harmonic volume at every embedding plus the exact trace defect
# ---------------------------------------------------------------------------

def volume_pool(n: int, count: int) -> list[list[int]]:
    """Admissible zero-sum triples at degree n, as (a1, b1, a2, b2)."""
    rng = random.Random(f"volume-pool:{n}")
    curve = fermat.FermatCurve(n)
    pool = []
    while len(pool) < count:
        a1, b1, a2, b2 = (rng.randrange(1, n) for _ in range(4))
        try:
            idx = (fermat.FermatIndex(n, a1, b1), fermat.FermatIndex(n, a2, b2),
                   fermat.FermatIndex(n, -a1 - a2, -b1 - b2))
        except ValueError:
            continue
        t = fermat.assumption_check(curve, *idx)
        if t.sums_to_zero and t.pairwise_parallel_holo and [a1, b1, a2, b2] not in pool:
            pool.append([a1, b1, a2, b2])
    return pool


def volume_inputs(seed: int, reference: dict) -> list[tuple[int, list[int]]]:
    rng = _rng("volume", seed)
    chosen = []
    for n, count in VOLUME_TRIPLES.items():
        for triple in rng.sample(reference["volume_pool"][str(n)], count):
            chosen.append((n, triple))
    return chosen


def volume_execute(triples: list[tuple[int, list[int]]]):
    out = []
    for n, (a1, b1, a2, b2) in triples:
        curve = fermat.FermatCurve(n)
        t = fermat.assumption_check(curve, fermat.FermatIndex(n, a1, b1),
                                    fermat.FermatIndex(n, a2, b2),
                                    fermat.FermatIndex(n, -a1 - a2, -b1 - b2))
        sigmas = [(s.h, fermat.harmonic_volume_sigma(curve, t, s, DIGITS))
                  for s in cyclotomic.embedding_indices(n)]
        out.append((n, (a1, b1, a2, b2), sigmas,
                    fermat.harmonic_volume_trace_exact_defect(curve, t)))
    return out


def volume_render(results) -> list[Item]:
    items = []
    for n, triple, sigmas, defect in results:
        name = f"{n}:{','.join(map(str, triple))}"
        for h, v in sigmas:
            items.append(Item(f"{name}:h={h}", f"sigma {name} h={h} "
                              f"{_fixed(v.value.real)} {_fixed(v.value.imag)}", float(v.err)))
        items.append(Item(f"{name}:defect", f"defect {name} {defect}", None,
                          None if defect.denominator == 1 else "trace defect not an integer"))
    return items


@dataclass(frozen=True)
class Workload:
    inputs: Callable
    execute: Callable
    render: Callable
    # traced layers that must record calls on this workload
    layers: tuple[str, ...]


_SERIES = ("specfun.hyp_unit_sum", "specfun.gamma_quotient", "specfun.ln_gamma")

WORKLOADS = {
    "table": Workload(table_inputs, table_execute, table_render,
                      ("ceresa.table1", "ceresa.f_value") + _SERIES),
    "deep": Workload(deep_inputs, deep_execute, deep_render,
                     ("ceresa.f_value", "ceresa.klein_value", "ceresa.multiples_scan")
                     + _SERIES),
    "selfcheck": Workload(selfcheck_inputs, selfcheck_execute, selfcheck_render,
                          ("cli.main", "specfun.dixon_family",
                           "specfun.euler_double_integral", "fermat.delta_iterated_integral")
                          + _SERIES),
    "volume": Workload(volume_inputs, volume_execute, volume_render,
                       ("fermat.harmonic_volume_sigma", "fermat.harmonic_volume_exact_parts",
                        "fermat.harmonic_volume_trace_exact_defect",
                        "fermat.delta_iterated_integral", "cyclotomic.CycloElem.mul",
                        "cyclotomic.CycloElem.inverse", "cyclotomic.embed",
                        "cyclotomic.trace_to_rationals") + _SERIES),
}


def reference_inputs(workload: str, reference: dict):
    """Every input the seeded workloads can draw, for recording the reference."""
    if workload == "table":
        return list(range(4, 100))
    if workload == "deep":
        return deep_inputs(0, reference)
    if workload == "selfcheck":
        return list(SELFCHECK_SEEDS)
    return [(n, t) for n in VOLUME_TRIPLES for t in reference["volume_pool"][str(n)]]
