"""The benchmark's traced run wraps swedge callables by name.

``perfbench/tracing.py`` lists them in ``BINDINGS``; a refactor that renames
or removes one of them must fail here rather than in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _binding(module, path):
    """(owner, attribute name, current value) of one binding."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def test_every_binding_installs_and_restores():
    tracing = _load_tracing()
    originals = [_binding(module, path) for module, path, _, _ in tracing.BINDINGS]
    restore = tracing.Tracer().install()
    try:
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original, attr
    finally:
        restore()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, attr
