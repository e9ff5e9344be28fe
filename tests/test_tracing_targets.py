"""The benchmark's tracer wraps steptuner names; each one must still exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets() -> list:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("layer, module_name, attr, kind", _targets())
def test_tracer_target_resolves(layer, module_name, attr, kind):
    # a renamed or deleted target would break every traced benchmark run
    owner = importlib.import_module(module_name)
    cls_name, _, name = attr.rpartition(".")
    if cls_name:
        owner = getattr(owner, cls_name)
    assert callable(owner.__dict__[name])
    assert kind in ("span", "count")
