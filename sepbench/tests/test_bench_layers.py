"""Layer wrappers: exact counts on a small traced run, and missing targets."""

import json
import subprocess
import sys

import _paths
import pytest

import layers
from spans import SpanRecorder

STATE = [[[0.6, 0.0], [0.0, 0.8]], [[0.0, 1.0], [1.0, 0.0]]]


def test_traced_pass_counts_work_where_callers_look_it_up(tmp_path):
    configs = {
        "00_strang": {"integrator": "strang", "dt": 0.1, "t_final": 0.5},
        "01_var": {"integrator": "var_restrict_first", "dt": 0.1, "t_final": 0.3,
                   "alpha": 0.5},
        "02_bea": {"integrator": "bea_truncation", "dt": 0.1, "t_final": 0.5,
                   "bea_order": 2, "outputs": ["norm", "purity"]},
    }
    for name, extra in configs.items():
        config = {"experiment": "swap", "initial_state": STATE, "outputs": ["norm"],
                  "out_path": str(tmp_path / "out" / name), **extra}
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    wanted = ["propagators.step.calls", "reduced.contract_reduced.calls",
              "propagators.sse_component_flow.calls", "cli.build_hamiltonian.calls",
              "variational.del_step.calls", "variational.newton_solve.calls",
              "variational.newton_solve.residual_evals_per_iter",
              "bea.rk.rhs_evals", "bea.rhs.calls", "analysis.purity_series.s",
              "layers.propagators.self_s"]
    metrics_path = tmp_path / "metrics.json"
    subprocess.run(
        [sys.executable, str(_paths.BENCH / "traced.py"), str(tmp_path),
         str(tmp_path / "spans.csv"), str(metrics_path), *wanted],
        check=True, capture_output=True, timeout=120,
        env={"PYTHONPATH": str(_paths.ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"},
    )
    result = json.loads(metrics_path.read_text())
    metrics = result["metrics"]
    assert result["exit_code"] == 0 and result["missing"] == []
    assert metrics["propagators.step.calls"] == 5
    # Strang on two components: three sub-steps, each one reduction.
    assert metrics["propagators.sse_component_flow.calls"] == 15
    assert metrics["reduced.contract_reduced.calls"] == 15
    assert metrics["cli.build_hamiltonian.calls"] == 6
    # Momentum matching plus one del_step per further grid point.
    assert metrics["variational.del_step.calls"] == 2
    assert metrics["variational.newton_solve.calls"] == 3
    # Forward differences: m = 2 * (2 + 2) real unknowns, m + 1 per iteration.
    assert metrics["variational.newton_solve.residual_evals_per_iter"] == pytest.approx(9)
    assert metrics["bea.rhs.calls"] == metrics["bea.rk.rhs_evals"] > 0
    assert metrics["analysis.purity_series.s"] > 0
    assert metrics["layers.propagators.self_s"] > 0
    header = (tmp_path / "spans.csv").read_text().splitlines()[0]
    assert header == "index,name,start_s,end_s,parent,run"


def test_missing_target_is_reported_not_raised():
    recorder = SpanRecorder()
    missing = layers.install(recorder, [("states.gone", "states", "no_such_function",
                                         "span")])
    assert missing == ["states.gone"]
    metrics = layers.layer_metrics(recorder, ["reduced.contract_reduced"],
                                   ["reduced.contract_reduced.calls", "states.Ket.calls"])
    assert metrics == {"states.Ket.calls": 0}
