"""fermatvol: error-bounded Ceresa-cycle invariants of Fermat curves.

Layers, bottom up: bounded special functions and the unit-argument
series engine (``specfun``), exact cyclotomic arithmetic
(``cyclotomic``), curve periods and harmonic volume (``fermat``),
invariant values and verdicts (``ceresa``), and a CLI (``cli``).
"""

import functools

# every memo of the package, for specfun.clear_caches: here, ahead of the modules that
# declare theirs as they load, since the quadrature oracle imports nothing from specfun
_MEMOS: list = []


def _memo(maxsize):
    """``functools.lru_cache(maxsize)``, registered for ``specfun.clear_caches``; the
    cached function is lru_cache's own wrapper, with ``cache_info`` and ``__wrapped__``."""
    def register(fn):
        _MEMOS.append(functools.lru_cache(maxsize=maxsize)(fn))
        return _MEMOS[-1]
    return register


from .ceresa import (CeresaResult, ScanResult, f_value, klein_value,
                     multiples_scan, table1)
from .cyclotomic import CycloElem, EmbeddingIndex, cyclo_from_power, embed, trace_to_rationals
from .fermat import (FermatCurve, FermatIndex, TripleConfig,
                     assumption_check, delta_iterated_integral,
                     harmonic_volume_sigma, harmonic_volume_trace)
from .specfun import (BoundedComplex, BoundedReal, DivergenceError, DomainError,
                      PrecisionError, dixon_family, euler_double_integral,
                      gamma_quotient, hyp_unit_sum, ln_gamma)

__version__ = "0.1.0"

__all__ = [
    "BoundedComplex", "BoundedReal", "CeresaResult",
    "CycloElem", "DivergenceError", "DomainError", "EmbeddingIndex",
    "FermatCurve", "FermatIndex",
    "PrecisionError", "ScanResult", "TripleConfig",
    "assumption_check", "cyclo_from_power",
    "delta_iterated_integral", "dixon_family", "embed",
    "euler_double_integral", "f_value", "gamma_quotient",
    "harmonic_volume_sigma", "harmonic_volume_trace", "hyp_unit_sum",
    "klein_value", "ln_gamma", "multiples_scan", "table1",
    "trace_to_rationals",
]
