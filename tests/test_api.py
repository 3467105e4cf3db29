import ast
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fermatvol
from fermatvol import _quadrature, ceresa, cli, cyclotomic, fermat, specfun


def test_all_exports_resolve():
    missing = [name for name in fermatvol.__all__ if not hasattr(fermatvol, name)]
    assert missing == []


def test_bench_trace_targets_resolve():
    # perfbench wraps these names and reads these caches; a rename must fail here
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name, module, attr_path in tracer.TARGETS:
        owner = importlib.import_module(f"fermatvol.{module}")
        owner_path, _, attr = attr_path.rpartition(".")
        if owner_path:
            owner = getattr(owner, owner_path, None)
        if owner is None or attr not in vars(owner):
            missing.append(name)
    assert missing == []
    assert hasattr(ceresa._h_term, "cache_info")
    assert hasattr(fermat._sigma_exact_parts_cached, "cache_info")


def test_package_is_the_certifier():
    # the package holds the certifier only; the oracles that only tests use live in tests/
    modules = sorted(m.name for m in pkgutil.iter_modules(fermatvol.__path__))
    assert modules == ["_quadrature", "ceresa", "cli", "cyclotomic", "fermat", "specfun"]
    gone = {
        fermatvol: ["LoopIndex", "appell_f3_unit"],
        fermat: ["LoopIndex", "period_integral", "PathData", "delta_path_data",
                 "kappa_path_data", "kappa_rs_path_data", "kappa_rs_exact",
                 "kappa_iterated_integral", "kappa_rs_iterated_integral",
                 "example_triple", "klein_triple", "phi_pairing", "angle_rep"],
        ceresa: ["klein_trace_route"],
        specfun: ["appell_f3_unit",
                  # one digits contract (_certified), one fixed-point summation loop
                  "_hyp_unit_attempt", "_certified_sum", "_fixed_prec",
                  # the balls hold ints: no mpf read-back or mpf-built ball
                  "_exact_fixed", "_exact_mpf", "_real", "_complex", "_modulus_up"],
        # the quotient, the one bounded operation that read the ambient mp.prec
        specfun.BoundedReal: ["__truediv__"],
        cyclotomic.CycloElem: ["galois", "is_rational", "rational_value", "__pow__",
                               "__truediv__", "__rsub__", "abs_coeff_sum"],
        # second copies of a rule that the package states once
        fermat.FermatIndex: ["angle_a", "angle_b"],
        cli: ["_emit_result"],
        # B(a1, b1) is the rules' normaliser, not a second quadrature
        _quadrature: ["_full_beta"],
    }
    present = [(owner.__name__, name) for owner, names in gone.items()
               for name in names if hasattr(owner, name)]
    assert present == []
    assert "terms" not in inspect.signature(specfun.hyp_unit_sum).parameters
    assert "series_order" not in inspect.signature(specfun.hyp_unit_sum).parameters
    # the quadrature oracle stays independent of the closed forms it checks
    imports = [node for node in ast.walk(ast.parse(inspect.getsource(_quadrature)))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    names = {getattr(node, "module", None) or "" for node in imports}
    names |= {alias.name for node in imports for alias in node.names}
    assert not [name for name in names if "specfun" in name]


_NUMPY_FREE_CALLS = {
    "import": "pass",
    "f_value": "fermatvol.f_value(5, 1)",
    "table1": "fermatvol.table1(range(4, 7), 1)",
    "klein_value": "fermatvol.klein_value(13)",
    "multiples_scan": "fermatvol.multiples_scan(5, 1, 100)",
    "harmonic_volume_sigma": "fermatvol.harmonic_volume_sigma(FermatCurve(11), "
    "assumption_check(FermatCurve(11), FermatIndex(11, 4, 5), FermatIndex(11, 2, 4), "
    "FermatIndex(11, 5, 2)), EmbeddingIndex(1, 11))",
    "cli-value": "cli.main(['value', '--n', '5'])",
    "cli-check": "cli.main(['check', '--n', '5'])",
    "cli-table": "cli.main(['table', '--n-min', '4', '--n-max', '7'])",
    "cli-dixon-test": "cli.main(['dixon-test', '--trials', '2'])",
}


@pytest.mark.parametrize("call,loads_numpy", [
    *(pytest.param(call, False, id=name) for name, call in _NUMPY_FREE_CALLS.items()),
    pytest.param("cli.main(['oracle-test', '--n', '4'])", True, id="cli-oracle-test")])
def test_numpy_only_on_the_quadrature_path(call, loads_numpy):
    # a fresh interpreter: importing numpy costs about 0.1 s, so only the quadrature
    # oracle may pay it, never the certifier's own paths
    script = ("import contextlib, io, sys\nimport fermatvol\nfrom fermatvol import cli\n"
              "from fermatvol.cyclotomic import EmbeddingIndex\n"
              "from fermatvol.fermat import FermatCurve, FermatIndex, assumption_check\n"
              f"with contextlib.redirect_stdout(io.StringIO()):\n    {call}\n"
              "print('numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fermatvol.__file__)))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    assert done.stdout.splitlines()[-1] == str(loads_numpy)
