"""Every function the benchmark's per-layer trace wraps still exists, and is called.

``sepbench/layers.py`` looks each traced function up by (module, attribute
path) and reports a target it cannot find as missing, which silently drops
the metrics built on it. Resolving the same table here, without installing
any wrapper, turns a rename or deletion of a traced function into a failing
test. A target that still resolves but that no run reaches any more reads
zero on every workload; one traced run over every integrator turns that
into a failing test too.
"""

import importlib
import importlib.util
import json
import os
import subprocess
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


# Spans that no ``sepdyn run`` reaches: a splitting run calls ``evolve``, not
# the one-step maps or the one-component flow; nothing in the product calls
# the one-vector propagator or ``partially_reduced``; and the variational
# steps solve through ``_newton_rows``, not the one-system ``newton_solve``.
# Retiring or retargeting these is the benchmark's change to make; every
# other span must see a call.
DARK = {
    "propagators.step",
    "propagators.sse_component_flow",
    "propagators.hermitian_expm_apply",
    "reduced.partially_reduced",
    "variational.newton_solve",
}
UNIT_SWAP_STATE = [[1.0, 0.0], [0.6, 0.8]]  # bea_truncation needs unit-norm components


def test_every_span_outside_the_dark_set_sees_a_call(tmp_path):
    """A traced ``sepdyn run`` of one swap config per integrator, every output
    on, calls every wrapped target but the dark ones at least once, and
    ``cli.execute`` once per work unit."""
    configs = tmp_path / "configs"
    configs.mkdir()
    fields = {"var_restrict_first": {"alpha": 0.5}, "var_discretize_first": {"alpha": 0.5},
              "bea_truncation": {"bea_order": 2}}
    integrators = ("se_exact", "lie_trotter", "strang", "var_restrict_first",
                   "var_discretize_first", "bea_truncation")
    for integrator in integrators:
        config = {"experiment": "swap", "integrator": integrator, "dt": 0.1, "t_final": 0.5,
                  "initial_state": UNIT_SWAP_STATE, "out_path": str(tmp_path / "out" / integrator),
                  "outputs": ["norm", "abs_overlap", "rate_nucl", "bloch", "purity"],
                  **fields.get(integrator, {})}
        (configs / f"{integrator}.json").write_text(json.dumps(config))
    spans = sorted({span for span, *_ in TARGETS})
    root = BENCH.parent
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    metrics = tmp_path / "metrics.json"
    done = subprocess.run(
        [sys.executable, str(BENCH / "traced.py"), str(configs), str(tmp_path / "spans.csv"),
         str(metrics), *(f"{span}.calls" for span in spans)],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(metrics.read_text())
    assert result["exit_code"] == 0 and result["missing"] == []
    calls = result["metrics"]
    assert DARK <= set(spans)
    assert [span for span in spans if span not in DARK and calls[f"{span}.calls"] < 1] == []
    # Lie-Trotter and Strang share a unit; every other config is a unit of one.
    assert calls["cli.execute.calls"] == 5
