"""Compare the harmonic-volume path's embeddings and arc integrals with the code they
replaced (``tests/_volume_reference.py``) on every call that the benchmark's
``volume`` and ``selfcheck`` reference inputs make.

Runs every input of those two perfbench workloads in one process (perfbench's
modules are imported, not changed) and records each call of ``cyclotomic._root``
(its raw cos-sin pair), ``cyclotomic.embed`` (its ball's ints, or its exception) and
``fermat.delta_iterated_integral`` (its ball's ints).  Then every distinct call is
re-done by the reference: the angle under ``mp.workprec`` with separate ``mpmath.cos``
and ``mpmath.sin``, the mpc sum through ``mpf_div`` and ``mpc_mul_mpf``, and the
closed form on its ``Fraction`` lists from cold caches.  Each must give the same raw
tuple, the same ints or the same exception type and text:

    PYTHONPATH=src:tests python3 tests/volume_identity_sweep.py

Prints the distinct calls per function and every mismatch; exits 1 on any mismatch,
on any workload item that reports a problem or differs from perfbench's reference
line, or when a function was never called.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from fermatvol import cyclotomic, fermat, specfun  # noqa: E402
from fermatvol.cyclotomic import CycloElem, EmbeddingIndex  # noqa: E402
from fermatvol.fermat import FermatCurve, FermatIndex  # noqa: E402

import _volume_reference as ref  # noqa: E402

WORKLOADS = ("volume", "selfcheck")
# function name -> {key: the run's result}
calls: dict = {"_root": {}, "embed": {}, "delta_iterated_integral": {}}
mismatches: list[str] = []


def _ints(ball) -> tuple:
    if isinstance(ball, specfun.BoundedComplex):
        return ball.re, ball.im, ball.rad, ball.exp
    return ball.mid, ball.rad, ball.exp


def _outcome(fn, args):
    try:
        r = fn(*args)
    except (ArithmeticError, ValueError) as e:
        return ("raise", type(e).__name__, str(e)), e
    return ("value", r if isinstance(r, tuple) else _ints(r)), r


def _note(name: str, key, got) -> None:
    # the same call must give the same result every time the run makes it
    if calls[name].setdefault(key, got) != got:
        mismatches.append(f"impure: {name}{key} gave two results in the run")


def _key(name: str, args) -> tuple:
    if name == "_root":
        return args
    if name == "embed":
        a, sigma, digits = args
        return a.n, a.num, a.den, sigma.h, digits
    curve, idx1, idx2, digits = args
    return curve.n, idx1.a, idx1.b, idx2.a, idx2.b, digits


def _recording(name: str, fn):
    def recorded(*args):
        got, out = _outcome(fn, args)
        _note(name, _key(name, args), got)
        if got[0] == "raise":
            raise out
        return out
    return recorded


def install() -> None:
    # every fermatvol namespace that binds one of the three functions gets the recorder
    namespaces = [m for name, m in list(sys.modules.items())
                  if name == "fermatvol" or name.startswith("fermatvol.")]
    for module, name in [(cyclotomic, "_root"), (cyclotomic, "embed"),
                         (fermat, "delta_iterated_integral")]:
        original = getattr(module, name)
        wrapper = _recording(name, original)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)


def _element(n: int, num: tuple, den: int) -> CycloElem:
    return CycloElem(n, [Fraction(c, den) for c in num])


def replay() -> None:
    specfun.clear_caches()
    for args, run in calls["_root"].items():
        want, _ = _outcome(ref.root, args)
        if run != want:
            mismatches.append(f"_root{args}: {run} in the run, {want} from the reference")
    for (n, num, den, h, digits), run in calls["embed"].items():
        want, _ = _outcome(ref.embed, (_element(n, num, den), EmbeddingIndex(h, n), digits))
        if run != want:
            mismatches.append(f"embed at n={n} h={h} digits={digits} of {num}/{den}: {run} "
                              f"in the run, {want} from the reference")
    for (n, a1, b1, a2, b2, digits), run in calls["delta_iterated_integral"].items():
        want, _ = _outcome(ref.delta_iterated_integral,
                           (FermatCurve(n), FermatIndex(n, a1, b1), FermatIndex(n, a2, b2),
                            digits))
        if run != want:
            mismatches.append(f"delta_iterated_integral{(n, a1, b1, a2, b2, digits)}: {run} "
                              f"in the run, {want} from the reference")


def main() -> int:
    install()
    reference = json.loads(Path(workloads.__file__).with_name("reference.json").read_text())
    failed = []
    for name in WORKLOADS:
        wl = workloads.WORKLOADS[name]
        items = wl.render(wl.execute(workloads.reference_inputs(name, reference)))
        failed += [f"{name} {item.key}: {item.problem or item.line}" for item in items
                   if item.problem or item.line != reference[name].get(item.key)]
        print(f"{name}: " + ", ".join(f"{len(v)} distinct {k}" for k, v in calls.items())
              + " calls so far", flush=True)
    replay()
    for line in mismatches[:50]:
        print(f"mismatch: {line}")
    for line in failed[:50]:
        print(f"failed: {line}")
    print(", ".join(f"{len(v)} {k}" for k, v in calls.items())
          + f" calls replayed; {len(mismatches)} mismatches, {len(failed)} failed items")
    return 1 if mismatches or failed or not all(calls.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
