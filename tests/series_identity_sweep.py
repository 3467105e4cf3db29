"""Compare the series engine's exact-integer kernels with the list loops they
replaced (``tests/_series_reference.py``) on every series that the benchmark's
reference inputs sum.

Runs every input of the four perfbench workloads in one process (perfbench's
modules are imported, not changed) and records each attempt of
``specfun._hyp_unit_series``: its parameters, M and K with the defect majorant
it computed, and every ``_partial_sum`` call (terminating series included) with
its terms, prec and result.  Then, for every distinct attempt, the reference
re-does ``_solve_tail_series``, ``_defect_poly`` and ``_tail_defect_majorant``,
and for every distinct partial sum ``_partial_sum``; each must give the same
integers, and the majorant and the partial sum also those of the run.  It also
records every call of ``hyp_unit_sum``, ``gamma_quotient`` and ``ceresa._h_term``
with its ball (mid, rad, exp) or its exception, and replays each distinct call from
cold caches through the Fraction set-up of ``_series_reference`` (``hyp_unit_sum``,
``gamma_quotient``, ``h_term``), which must give the same ints or the same
exception type and text.  Since that set-up calls the live ``_ln_gamma_fixed``,
every ``_stirling_order(y, digits)`` of the run is recorded too, and each distinct
one must equal the per-J scan ``stirling_order``.  Past the workloads it sums series
whose negative parameters make the floor shift decide M
(``negative_parameter_inputs``), which no workload input does, and replays them the
same way:

    PYTHONPATH=src:tests python3 tests/series_identity_sweep.py

Prints the distinct attempts, partial sums, calls and order searches and every
mismatch; exits 1 on
any mismatch, on any workload item that reports a problem or differs from
perfbench's reference line, or when nothing was replayed.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from fermatvol import ceresa, specfun  # noqa: E402

import _series_reference as ref  # noqa: E402

# (uppers, lowers, K, M) -> the run's (hn, hd); (uppers, lowers, terms, prec) -> the
# run's (S, S_err, T, T_err)
attempts: dict = {}
sums: dict = {}
# (function name, args) -> ("ball", (mid, rad, exp)) or ("raise", type name, text)
calls: dict = {}
# (y, digits) -> the J of specfun._stirling_order
orders: dict = {}
mismatches: list[str] = []


def _series(uppers, lowers) -> tuple:
    return tuple(uppers), tuple(lowers)


def _note(table: dict, key, got) -> None:
    # the same call must give the same integers every time the run makes it
    if table.setdefault(key, got) != got:
        mismatches.append(f"impure: {key} gave two results in the run")


def install() -> None:
    solve, majorant, partial = (specfun._solve_tail_series, specfun._tail_defect_majorant,
                                specfun._partial_sum)
    current = []

    def solving(uppers, lowers, K, *args):
        # an attempt solves its tail before it bounds the defect
        current[:] = [_series(uppers, lowers)]
        return solve(uppers, lowers, K, *args)

    def bounding(P, Q, V, L, K, M):
        out = majorant(P, Q, V, L, K, M)
        _note(attempts, (*current[0], K, M), out)
        return out

    def summing(uppers, lowers, terms, prec):
        out = partial(uppers, lowers, terms, prec)
        _note(sums, (*_series(uppers, lowers), terms, prec), out)
        return out

    def ordering(y, digits, order=specfun._stirling_order):
        out = order(y, digits)
        _note(orders, (y, digits), out)
        return out

    specfun._solve_tail_series = solving
    specfun._tail_defect_majorant = bounding
    specfun._partial_sum = summing
    specfun._stirling_order = ordering
    for module, name in [(specfun, "hyp_unit_sum"), (specfun, "gamma_quotient"),
                         (ceresa, "hyp_unit_sum"), (ceresa, "gamma_quotient"),
                         (ceresa, "_h_term")]:
        setattr(module, name, _recording(name, getattr(module, name)))
    return solve, majorant, partial


def _outcome(fn, args):
    try:
        r = fn(*args)
    except (ArithmeticError, ValueError, RuntimeError) as e:
        return ("raise", type(e).__name__, str(e)), e
    return ("ball", (r.mid, r.rad, r.exp)), r


def _recording(name, fn):
    def recorded(*args):
        # lists become tuples of the caller's own ints and Fractions, for the key
        key = (name, tuple(tuple(a) if isinstance(a, list) else a for a in args))
        got, out = _outcome(fn, args)
        _note(calls, key, got)
        if got[0] == "raise":
            raise out
        return out
    return recorded


# inputs with parameters negative enough that the floor shift decides M, so that the
# floor shift, qscale and the abs error chain are replayed too: the -(k + 1/2) family
# (M = 2k + 4 from k = 19 on), the same with a negative lower, and the Dixon members
# whose upper s - 1 is negative (s = a1 + b1 + a2 + b2 < 1) at M = 1, 2 and 4
NEGATIVE_K = range(1, 41)
DIXON_SMALL_S = [(F(1, 7), F(1, 7), F(1, 7), F(2, 7)), (F(1, 9), F(2, 9), F(1, 9), F(1, 9)),
                 (F(1, 5), F(1, 10), F(1, 4), F(1, 6)), (F(1, 13), F(3, 13), F(2, 13), F(1, 13))]
SMALL_M = (1, 2, 4)


def negative_parameter_inputs() -> None:
    for k in NEGATIVE_K:
        for uppers, lowers in [([-(k + F(1, 2)), F(1, 3)], [F(1, 2)]),
                               ([F(1, 3), F(1, 4), F(1, 5)], [-(k + F(1, 2)), F(k + 2)])]:
            specfun.hyp_unit_sum(uppers, lowers, 10)
    series = _recording("_hyp_unit_series", specfun._hyp_unit_series)
    for params in DIXON_SMALL_S:
        for _gnum, _gden, uppers, lowers in specfun._dixon_table(*params):
            if min(uppers) < 0:
                for digits in (10, 20):
                    for M in SMALL_M:
                        series(list(uppers), list(lowers), digits, M, int(digits * 0.46) + 8)


def replay(solve, majorant, partial) -> None:
    for (uppers, lowers, K, M), run in attempts.items():
        uppers, lowers = list(uppers), list(lowers)
        P, Q = specfun._series_polys(uppers, lowers)
        want_V, want_L = ref.solve_tail_series(P, Q, sum(lowers) - sum(uppers), K)
        V, L = solve(uppers, lowers, K)
        checks = [("_solve_tail_series", (V, L), (want_V, want_L)),
                  ("_defect_poly", specfun._defect_poly(P, Q, V, L, K),
                   ref.defect_poly(P, Q, want_V, want_L, K)),
                  ("_tail_defect_majorant", majorant(P, Q, V, L, K, M),
                   ref.tail_defect_majorant(P, Q, want_V, want_L, K, M)),
                  ("_tail_defect_majorant in the run", run,
                   ref.tail_defect_majorant(P, Q, want_V, want_L, K, M))]
        mismatches.extend(f"{name}: {uppers}; {lowers} K={K} M={M}"
                          for name, got, want in checks if got != want)
    for (*series, terms, prec), run in sums.items():
        uppers, lowers = list(series[0]), list(series[1])
        want = ref.partial_sum(uppers, lowers, terms, prec)
        for name, got in [("_partial_sum", partial(uppers, lowers, terms, prec)),
                          ("_partial_sum in the run", run)]:
            if got != want:
                mismatches.append(f"{name}: {uppers}; {lowers} terms={terms} prec={prec}")
    # the Fraction set-up from cold caches, on the arguments exactly as the run got them
    specfun.clear_caches()
    reference = {"hyp_unit_sum": ref.hyp_unit_sum, "gamma_quotient": ref.gamma_quotient,
                 "_h_term": ref.h_term,
                 "_hyp_unit_series": lambda uppers, lowers, *rest: ref._hyp_unit_series(
                     uppers, lowers, sum(lowers) - sum(uppers), *rest)}
    for (name, args), run in calls.items():
        want, _ = _outcome(reference[name], [list(a) if isinstance(a, tuple) else a
                                             for a in args])
        if run != want:
            mismatches.append(f"{name}{args}: {run} in the run, {want} from the reference")
    for (y, digits), J in orders.items():
        want = ref.stirling_order(y, digits)
        if J != want:
            mismatches.append(f"_stirling_order({y!r}, {digits}): {J} in the run, {want} "
                              f"from the reference")


def main() -> int:
    kernels = install()
    reference = json.loads(Path(workloads.__file__).with_name("reference.json").read_text())
    failed = []
    for name, wl in workloads.WORKLOADS.items():
        items = wl.render(wl.execute(workloads.reference_inputs(name, reference)))
        failed += [f"{name} {item.key}: {item.problem or item.line}" for item in items
                   if item.problem or item.line != reference[name].get(item.key)]
        print(f"{name}: {len(attempts)} distinct attempts, {len(sums)} distinct partial sums "
              f"so far", flush=True)
    negative_parameter_inputs()
    replay(*kernels)
    for line in mismatches[:50]:
        print(f"mismatch: {line}")
    for line in failed[:50]:
        print(f"failed: {line}")
    series = {key[:2] for key in attempts} | {key[:2] for key in sums}
    counts = Counter(name for name, _ in calls)
    raised = sum(1 for got in calls.values() if got[0] == "raise")
    print(f"{len(attempts)} attempts and {len(sums)} partial sums of {len(series)} series "
          f"replayed (K up to {max((k[2] for k in attempts), default=0)}, M up to "
          f"{max((k[3] for k in attempts), default=0)}, prec up to "
          f"{max((k[3] for k in sums), default=0)}); {counts['hyp_unit_sum']} hyp_unit_sum, "
          f"{counts['gamma_quotient']} gamma_quotient, {counts['_h_term']} _h_term and "
          f"{counts['_hyp_unit_series']} small-M _hyp_unit_series calls ({raised} raising) "
          f"replayed; {len(orders)} distinct _stirling_order calls (J up to "
          f"{max(filter(None, orders.values()), default=0)}) scanned; {len(mismatches)} mismatches, "
          f"{len(failed)} failed items")
    return 1 if mismatches or failed or not attempts or not sums or not orders or not all(
        counts[name] for name in ("hyp_unit_sum", "gamma_quotient", "_h_term",
                                  "_hyp_unit_series")) else 0


if __name__ == "__main__":
    sys.exit(main())
