from collections import Counter
from fractions import Fraction

import pytest


@pytest.fixture(autouse=True)
def _no_digits_from_environment(monkeypatch):
    # CERESA_DIGITS sets the CLI's default --digits; the suite pins output for the default
    # 30, so it must not inherit the variable. Tests that read it set it themselves.
    monkeypatch.delenv("CERESA_DIGITS", raising=False)


# every Fraction operator that computes or compares; hashing is not one of them
_FRACTION_OPS = ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__",
                 "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__", "__neg__",
                 "__pos__", "__abs__", "__trunc__", "__floor__", "__ceil__", "__round__",
                 "__int__", "__float__", "__bool__", "__eq__", "__lt__", "__le__", "__gt__",
                 "__ge__", "limit_denominator", "as_integer_ratio"]


@pytest.fixture
def count_fractions(monkeypatch):
    """Calling it counts, until ``monkeypatch.undo()``, every Fraction operator called
    and the arguments of every Fraction constructed; it returns (Counter, list)."""
    def start():
        used, built = Counter(), []
        for name in _FRACTION_OPS:
            op = getattr(Fraction, name)

            def counted(*args, _op=op, _name=name, **kwargs):
                used[_name] += 1
                return _op(*args, **kwargs)

            monkeypatch.setattr(Fraction, name, counted)
        new = Fraction.__new__

        def building(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", building)
        return used, built
    return start
