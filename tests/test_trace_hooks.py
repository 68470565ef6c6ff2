"""The benchmark's tracer (perfbench/tracing.py) on the live qfe modules.

``Tracer.install`` looks up every public function and method it wraps by
name, so a deleted or renamed one fails here rather than in a traced
benchmark run; ``uninstall`` must put back every attribute it replaced.
"""

import importlib.util
import sys
from pathlib import Path

import qfe.cli  # noqa: F401  (loads every qfe module the tracer patches)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("qfe_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces() -> dict:
    """Each qfe module's namespace and each class dict defined in one."""
    spaces = {}
    for name, mod in list(sys.modules.items()):
        if name == "qfe" or name.startswith("qfe."):
            spaces[name] = vars(mod)
            for attr, val in vars(mod).items():
                if isinstance(val, type) and val.__module__ == name:
                    spaces[f"{name}.{attr}"] = val.__dict__
    return spaces


def snapshot(spaces: dict) -> dict:
    return {key: dict(space) for key, space in spaces.items()}


def test_tracer_wraps_every_listed_name_and_uninstall_restores_all():
    tracing = load_tracing()
    spaces = namespaces()
    before = snapshot(spaces)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = snapshot(spaces)
    finally:
        tracer.uninstall()
    for layer, names in tracing.WRAPPED.items():
        for name in names:
            cls_name, _, attr = name.rpartition(".")
            key = f"qfe.{layer}" + (f".{cls_name}" if cls_name else "")
            assert during[key][attr].__wrapped__ is before[key][attr], name
    after = snapshot(spaces)
    assert after.keys() == before.keys()
    for key, space in before.items():
        assert after[key].keys() == space.keys(), key
        changed = [a for a, v in space.items() if after[key][a] is not v]
        assert not changed, (key, changed)
