"""The benchmark tracer (perfbench/tracer.py) patches package functions by
name. Every function it traces must resolve in the package and be defined
on its owner itself, or the benchmark cannot install its trace."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("target", tracer.TARGETS, ids=lambda t: t.name)
def test_tracer_target_is_defined_on_its_owner(target):
    owner = importlib.import_module(target.module)
    *path, attr = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert attr in vars(owner)
