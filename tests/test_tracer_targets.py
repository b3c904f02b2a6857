"""The benchmark tracer wraps engelkit functions by name; every name it
lists must resolve, or a renamed function would only show up as a
missing span in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def tracer_targets():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_resolves():
    targets = tracer_targets()
    assert targets
    for metric, (module_name, path) in targets.items():
        obj = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(obj, part), f"{metric}: {module_name}.{path}"
            obj = getattr(obj, part)
        assert callable(obj), f"{metric}: {module_name}.{path}"
