import importlib.util
from pathlib import Path

import fermatvol
from fermatvol import ceresa, fermat


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
