"""The benchmark's trace hooks still find every function they rebind."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_trace_hooks_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # dataclasses look their module up here
    try:
        spec.loader.exec_module(tracing)
    finally:
        del sys.modules[spec.name]
    missing = [
        f"netcap.{module}.{attr}"
        for module, attr, _ in tracing.PATCHES
        if not callable(getattr(importlib.import_module(f"netcap.{module}"), attr, None))
    ]
    assert tracing.PATCHES and not missing
