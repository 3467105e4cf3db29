"""Replay every ball operation of the benchmark's reference inputs with the mpf
classes that the integer balls replaced (``tests/_ball_reference.py``).

Runs every input of the four perfbench workloads in one process (perfbench's
modules are imported, not changed).  Each call of ``BoundedReal`` and
``BoundedComplex`` arithmetic, of ``specfun._certified`` and of
``specfun._round_product`` is re-done on the same operands by the reference,
which must give the same value and bound (or the same bool, or the same
``PrecisionError``):

    PYTHONPATH=src:tests python3 tests/ball_identity_sweep.py

Prints the calls per operation and every mismatch; exits 1 on any mismatch,
on any workload item that reports a problem or differs from perfbench's
reference line, or when nothing was replayed.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from fermatvol import specfun  # noqa: E402
from fermatvol.specfun import BoundedComplex, BoundedReal, PrecisionError  # noqa: E402

import _ball_reference as ref  # noqa: E402

METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
           "conjugate", "agrees_with")

calls: Counter = Counter()
mismatches: list[str] = []


def _to_ref(x):
    if isinstance(x, BoundedReal):
        return ref.BoundedReal(x.value, x.err)
    if isinstance(x, BoundedComplex):
        return ref.BoundedComplex(x.value, x.err)
    return x


def _key(x):
    # a result as exact raw mpfs (equal exactly when the rationals are), or as itself
    if isinstance(x, (BoundedComplex, ref.BoundedComplex)):
        return x.value._mpc_, x.err._mpf_
    if isinstance(x, (BoundedReal, ref.BoundedReal)):
        return x.value._mpf_, x.err._mpf_
    return x


def _record(name: str, got, want) -> None:
    calls[name] += 1
    if _key(got) != _key(want):
        mismatches.append(f"{name}: got {got!r}, reference {want!r}")


def _replaying(name: str, original, replay):
    def replayed(*args, **kwargs):
        try:
            out = original(*args, **kwargs)
        except PrecisionError as exc:
            try:
                replay(*args, **kwargs)
            except PrecisionError as want:
                _record(name, str(exc), str(want))
            else:
                _record(name, str(exc), "no PrecisionError")
            raise
        _record(name, out, replay(*args, **kwargs))
        return out
    return replayed


def install() -> None:
    for cls in (BoundedReal, BoundedComplex):
        for attr in METHODS:
            if attr in vars(cls):
                setattr(cls, attr, _replaying(
                    f"{cls.__name__}.{attr}", vars(cls)[attr],
                    lambda self, *args, attr=attr: getattr(_to_ref(self), attr)(
                        *map(_to_ref, args))))
    replays = {"_certified": lambda value, err, prec, digits, what, *args, **kwargs: (
                   # a series is named by a function, called only for a message
                   ref._certified(value, err, prec, digits, what() if callable(what) else what,
                                  *args, **kwargs)),
               "_round_product": lambda factors, prec: ref._round_product(
                   [_to_ref(f) for f in factors], prec)}
    for attr, replay in replays.items():
        original = getattr(specfun, attr)
        wrapper = _replaying(attr, original, replay)
        # ceresa imports both names from specfun: rebind every module that holds them
        for name, module in list(sys.modules.items()):
            if name.startswith("fermatvol"):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


def main() -> int:
    install()
    reference = json.loads(Path(workloads.__file__).with_name("reference.json").read_text())
    failed = []
    for name, wl in workloads.WORKLOADS.items():
        # a row that fails is caught and rendered, not raised: count those, and lines
        # that differ from the recorded reference, too
        items = wl.render(wl.execute(workloads.reference_inputs(name, reference)))
        failed += [f"{name} {item.key}: {item.problem or item.line}" for item in items
                   if item.problem or item.line != reference[name].get(item.key)]
        print(f"{name}: {sum(calls.values())} calls so far", flush=True)
    for name, count in sorted(calls.items()):
        print(f"  {name}: {count}")
    for line in mismatches[:50]:
        print(f"mismatch: {line}")
    for line in failed[:50]:
        print(f"failed: {line}")
    print(f"{sum(calls.values())} ball operations replayed, {len(mismatches)} mismatches, "
          f"{len(failed)} failed items")
    return 1 if mismatches or failed or not calls else 0


if __name__ == "__main__":
    sys.exit(main())
