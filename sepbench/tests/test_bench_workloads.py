"""The workload generator is a pure function of its seed."""

import _paths  # noqa: F401
import pytest

import workloads
from sepdyn.cli import ExperimentConfig


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_configs(name, tmp_path):
    first = workloads.generate(name, 7, "out/runs")
    again = workloads.generate(name, 7, "out/runs")
    assert first == again
    paths_a = workloads.write_configs(first, tmp_path / "a")
    paths_b = workloads.write_configs(again, tmp_path / "b")
    assert [p.read_bytes() for p in paths_a] == [p.read_bytes() for p in paths_b]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_different_seeds_give_different_configs(name):
    first = workloads.generate(name, 7, "out/runs")
    other = workloads.generate(name, 8, "out/runs")
    assert [c["initial_state"] for c in first] != [c["initial_state"] for c in other]
    # Everything but the drawn values is fixed by the workload.
    fixed = ("experiment", "integrator", "dt", "t_final", "out_path", "outputs")
    assert [[c[k] for k in fixed] for c in first] == [[c[k] for k in fixed] for c in other]


def test_random5_hamiltonian_seed_is_drawn_from_the_seed():
    seeds = {c["seed"] for s in range(4) for c in workloads.generate("splitting", s, "o")
             if c["experiment"] == "random5"}
    assert len(seeds) == 4


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_configs_are_valid_and_write_distinct_outputs(name):
    configs = workloads.generate(name, 3, "out/runs")
    for config in configs:
        ExperimentConfig.from_dict(dict(config))
        assert "." not in config["out_path"].rsplit("/", 1)[1]
    assert len({c["out_path"] for c in configs}) == len(configs)
