"""Every name the benchmark's tracer wraps exists in the package.

bench/tracing.py lists (layer, module, attribute path, mode) in TRACED and
wraps each path when a traced run starts, so a function deleted or renamed
in src/ without its TRACED line would only fail that run.  The module is
loaded by its path and not edited.
"""
import functools
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for _, module, path, _ in tracing.TRACED:
        try:
            target = functools.reduce(getattr, path.split("."), importlib.import_module(module))
        except (ImportError, AttributeError):
            missing.append(f"{module}:{path}")
        else:
            if not callable(target):
                missing.append(f"{module}:{path} (not callable)")
    assert len(tracing.TRACED) > 0
    assert missing == []
