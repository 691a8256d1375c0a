"""The benchmark's own calls into ``sepdyn`` still work.

``sepbench/check.py`` rebuilds swap initial data with
``SwapInitialData(array, array)`` and compares ``se_exact`` runs with
``exact_se_swap(data, t).amplitudes``; ``sepbench/setup_probe.py`` calls
``cli.load_config(path, [])`` and ``cli.build_hamiltonian(config)``. A
change to any of these signatures would only show as the benchmark's
``correct`` flag going false; here it fails a test instead.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sepdyn import cli

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "sepbench"

SWAP_SE_EXACT = {
    "experiment": "swap",
    "integrator": "se_exact",
    "dt": 0.01,
    "t_final": 1.0,
    # [re, im] pairs, the form the benchmark's generator writes.
    "initial_state": [[[1.0, 0.0], [0.0, 0.0]], [[0.6, 0.0], [0.0, 0.8]]],
    "out_path": "runs/swap_se_exact",
    "outputs": ["norm"],
}


@pytest.fixture
def check(monkeypatch):
    spec = importlib.util.spec_from_file_location("sepbench_check", BENCH / "check.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def config_dir(tmp_path):
    directory = tmp_path / "configs"
    directory.mkdir()
    (directory / "swap_se_exact.json").write_text(json.dumps(SWAP_SE_EXACT))
    return directory


def test_swap_run_passes_the_output_check(check, config_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "--config", str(config_dir)]) == cli.EXIT_OK
    [output] = check.read_outputs([SWAP_SE_EXACT], tmp_path)
    assert output.rows_written == 101
    assert check.invariant_problems(SWAP_SE_EXACT, output) == []


def test_setup_probe_runs(config_dir):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), str(config_dir)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
