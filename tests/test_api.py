import ast
import importlib.util
import inspect
import pkgutil
from pathlib import Path

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
        specfun: ["appell_f3_unit"],
        cyclotomic.CycloElem: ["galois", "is_rational", "rational_value", "__pow__",
                               "__truediv__", "__rsub__", "abs_coeff_sum"],
        # second copies of a rule that the package states once
        fermat.FermatIndex: ["angle_a", "angle_b"],
        cli: ["_emit_result"],
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
