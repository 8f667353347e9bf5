"""The benchmark's tracer wraps qfluct functions by (module, attribute path);
a rename or deletion in qfluct must not leave a traced name dangling."""

import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    # compiled from its text, so that nothing is written next to the tracer
    namespace = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["TRACED"]


def test_traced_names_resolve_in_qfluct():
    traced = traced_names()
    assert traced
    for module_name, path in traced:
        module = importlib.import_module(f"qfluct.{module_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            raw = inspect.getattr_static(getattr(module, cls_name), attr)
            assert isinstance(raw, classmethod), f"{module_name}.{path} is not a classmethod"
        else:
            assert callable(getattr(module, path)), f"{module_name}.{path} is not callable"
