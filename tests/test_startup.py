"""What `import horikawa.cli` loads, and the names the benchmark tracer hooks.

Core claims:
    - in a fresh `python -S` process, `import horikawa.cli` loads all six
      library modules and none of `dataclasses`, `inspect` and `ast`, whose
      import and class set-up would double the package's cold-start cost
    - every (module, attribute) that benchmarks/tracer.py wraps exists once
      `horikawa.cli` is imported; the tracer skips a missing one silently
    - ContractionSet construction calls `__post_init__` through the class,
      once, so a wrapper set on the class sees every construction
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import horikawa
import horikawa.cli  # noqa: F401  (the import the tracer runs after)
from horikawa.blowdown import ContractionSet
from horikawa.lattice import BlownHirzebruch

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = ("classt", "lattice", "covers", "blowdown", "report", "pipeline")


def test_cli_import_loads_every_module_and_no_introspection():
    script = (
        "import sys, horikawa.cli; "
        "print(' '.join(sorted(m for m in ('dataclasses', 'inspect', 'ast') if m in sys.modules))); "
        "print(' '.join(sorted(sys.modules)))"
    )
    src = str(Path(horikawa.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    unwanted, loaded = proc.stdout.split("\n")[:2]
    assert unwanted == ""
    assert {f"horikawa.{name}" for name in SUBMODULES} <= set(loaded.split())


def _tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "benchmarks" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    for module_name, attr, *_ in _tracer().TARGETS:
        owner = sys.modules[module_name]
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)


def test_contraction_set_calls_post_init_through_the_class(monkeypatch):
    calls = []
    original = ContractionSet.__post_init__

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(ContractionSet, "__post_init__", counting)
    surface = BlownHirzebruch(4)
    contraction = ContractionSet(surface, ((surface.c0(),),))
    assert calls == [contraction]
    assert len(contraction.classifications) == 1
