"""The benchmark tracer rebinds rmps names by module and attribute; a name
dropped from a module would only surface as an AttributeError when a traced
benchmark run installs its patches.  This reads the patch table and checks
every rmps entry resolves, without installing anything."""

import functools
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


def test_every_rmps_patch_target_resolves():
    targets = [(mod, attr) for mod, attr, _ in _patches() if mod.startswith("rmps.")]
    assert targets
    for mod, attr in targets:
        obj = functools.reduce(getattr, attr.split("."), importlib.import_module(mod))
        assert callable(obj), f"{mod}.{attr}"
    # Tracer.install flags this exception on the engine.normalize span
    assert importlib.import_module("rmps.engine").DegenerateSampleError
