"""The library's public surface: the README's library example runs as
written, and every name a module lists in ``__all__`` exists, so that
``from hclab.<module> import *`` keeps working when a name is deleted."""

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import hclab

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs_as_written():
    section = _README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(_README), "exec"), {})
    deviation, verdict = out.getvalue().splitlines()
    assert 0 < float(deviation) < 1e-3
    # the example's last line states the output it prints
    assert verdict == code.rstrip().rsplit("#", 1)[1].strip()


def test_every_name_in_all_resolves():
    missing = []
    for info in pkgutil.iter_modules(hclab.__path__):
        module = importlib.import_module(f"hclab.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []
