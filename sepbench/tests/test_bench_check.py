"""The output check accepts real runs and rejects tampered ones."""

import json

import _paths  # noqa: F401
import pytest

import check
from sepdyn import cli

STATE = [[[0.6, 0.0], [0.0, 0.8]], [[1.0, 0.0], [0.0, 0.0]]]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two real config runs: swap se_exact and swap Lie-Trotter."""
    out = tmp_path_factory.mktemp("runs")
    configs = []
    for index, integrator in enumerate(("se_exact", "lie_trotter")):
        config = {"experiment": "swap", "integrator": integrator, "dt": 0.05,
                  "t_final": 0.5, "initial_state": STATE, "outputs": ["norm"],
                  "out_path": str(out / f"{index:02d}_{integrator}")}
        path = out / f"{index:02d}.json"
        path.write_text(json.dumps(config))
        configs.append(config)
    assert cli.main(["run", "--config", str(out), "--jobs", "1"]) == 0
    return configs, check.read_outputs(configs, out)


def perturb_last_amplitude(output: check.RunOutput, delta: float) -> check.RunOutput:
    lines = output.csv_bytes.decode().splitlines()
    cells = lines[-1].split(",")
    cells[1] = repr(float(cells[1]) + delta)
    lines[-1] = ",".join(cells)
    data = ("\n".join(lines) + "\n").encode()
    return check.RunOutput(output.name, output.json, data)


def test_real_runs_pass_every_check(runs):
    configs, outputs = runs
    expected = [check.outcome(o) for o in outputs]
    report = check.check_process(configs, outputs, 0, expected)
    assert report == [[], []]
    assert check.check_repeat(outputs, outputs, 0, 0) == [[], []]
    assert [o.steps for o in outputs] == [10, 10]


def test_perturbed_csv_is_rejected(runs):
    configs, outputs = runs
    expected = [check.outcome(o) for o in outputs]
    tampered = [perturb_last_amplitude(o, 1e-6) for o in outputs]
    report = check.check_process(configs, tampered, 0, expected)
    assert all(any("amplitudes differ" in p for p in problems) for problems in report)
    # Without a recording, the swap oracle and the norm still catch it.
    assert any("exact_se_swap" in p for p in check.check_process(
        configs, tampered, 0, None)[0])
    assert all(check.check_repeat(outputs, tampered, 0, 0))


def test_change_below_tolerance_is_accepted(runs):
    configs, outputs = runs
    expected = [check.outcome(o) for o in outputs]
    nudged = [perturb_last_amplitude(o, 1e-13) for o in outputs]
    assert check.check_process(configs, nudged, 0, expected) == [[], []]


def test_wrong_exit_code_is_rejected(runs):
    configs, outputs = runs
    expected = [check.outcome(o) for o in outputs]
    report = check.check_process(configs, outputs, 4, expected)
    assert all(any("exit code" in p for p in problems) for problems in report)
    wrong = [dict(e, exit_code=4) for e in expected]
    assert all(check.check_process(configs, outputs, 0, wrong))
    assert all(check.check_repeat(outputs, outputs, 3, 0))


def test_missing_output_is_rejected_for_non_newton_runs(runs):
    configs, outputs = runs
    gone = [check.RunOutput(o.name, None, None) for o in outputs]
    report = check.check_process(configs, gone, 3, None)
    assert all(any("no complete output" in p for p in problems) for problems in report)
