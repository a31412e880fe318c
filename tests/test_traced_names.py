"""The benchmark's tracer (``perfbench/tracer.py``) wraps hclab functions by
module and qualified name.  Resolving every name here makes a rename fail the
test suite instead of a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    missing = []
    for module, qualname in _load_tracer().FUNCTIONS:
        mod = importlib.import_module(f"hclab.{module}")
        # as Tracer.installed does: a module global, or a method in its class __dict__
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            found = attr in getattr(getattr(mod, cls_name, None), "__dict__", {})
        else:
            found = callable(getattr(mod, qualname, None))
        if not found:
            missing.append(f"{module}.{qualname}")
    assert missing == []
