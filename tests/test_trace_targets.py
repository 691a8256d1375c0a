"""Every function the benchmark's per-layer trace wraps still exists.

``sepbench/layers.py`` looks each traced function up by (module, attribute
path) and reports a target it cannot find as missing, which silently drops
the metrics built on it. Resolving the same table here, without installing
any wrapper, turns a rename or deletion of a traced function into a failing
test.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "sepbench"


def _traced_targets() -> list[tuple[str, str, str, str]]:
    # layers.py imports its sibling ``spans`` as a top-level module.
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("sepbench_layers", BENCH / "layers.py")
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
    finally:
        sys.path.remove(str(BENCH))
    return layers.TARGETS


TARGETS = _traced_targets()


@pytest.mark.parametrize("span, module, path, kind", TARGETS,
                         ids=[f"{module}.{path}" for _, module, path, _ in TARGETS])
def test_traced_target_resolves(span, module, path, kind):
    owner = importlib.import_module(f"sepdyn.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
