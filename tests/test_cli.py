import json

import numpy as np
import pytest

from sepdyn import cli, variational
from sepdyn.propagators import Trajectory

SWAP_STATE = [[1.0, 0.0], [0.6, [0.0, 0.8]]]


def swap_config(out_path, dt):
    return {
        "experiment": "swap",
        "integrator": "se_exact",
        "dt": dt,
        "t_final": 0.1,
        "initial_state": SWAP_STATE,
        "out_path": str(out_path),
        "outputs": ["norm", "rate_nucl"],
    }


def read_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()]


class TestOutputPaths:
    def test_dotted_stems_write_distinct_files(self, tmp_path):
        for dt in ("0.02", "0.01"):
            config = tmp_path / f"v{dt}.config.json"
            config.write_text(json.dumps(swap_config(tmp_path / "out" / f"v{dt}", float(dt))))
            assert cli.main(["run", "--config", str(config)]) == cli.EXIT_OK
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == [
            "v0.01.csv", "v0.01.json", "v0.02.csv", "v0.02.json",
        ]
        # A header plus one row per grid time.
        assert len(read_rows(out / "v0.02.csv")) == 1 + 6
        assert len(read_rows(out / "v0.01.csv")) == 1 + 11
        assert json.loads((out / "v0.01.json").read_text())["config"]["dt"] == 0.01


class TestWriteCsv:
    SPECIAL = [-0.0, 5e-324, 1e300, 1.0 / 3.0, -2.5e-17, 0.1]

    def test_full_state_cells_match_per_value_format(self, tmp_path):
        values = np.array(self.SPECIAL)
        full = np.stack([values[:4] + 1j * values[2:], values[2:] - 1j * values[:4]])
        traj = Trajectory(np.array([0.0, 0.1]), (2, 2), full=full)
        columns = {"norm": values[:2], "rate_nucl": values[-2:]}
        path = tmp_path / "run.csv"
        cli.write_csv(path, cli.RunResult(traj, {}), columns)
        rows = read_rows(path)
        assert rows[0] == (["t"] + [f"{p}_psi_{i}" for i in range(4) for p in ("re", "im")]
                           + ["norm", "rate_nucl"])
        for k, row in enumerate(rows[1:]):
            expected = [traj.times[k]]
            for z in full[k]:
                expected += [z.real, z.imag]
            expected += [columns["norm"][k], columns["rate_nucl"][k]]
            assert row == [format(float(v), ".17g") for v in expected]

    def test_component_rows_are_written_per_subsystem(self, tmp_path):
        components = np.array([[1.0, -0.0, 5e-324j, 1e300], [0.5, 0.5j, -0.25, 0.75]])
        traj = Trajectory(np.array([0.0, 0.5]), (2, 2), components=components)
        path = tmp_path / "run.csv"
        cli.write_csv(path, cli.RunResult(traj, {}), {})
        rows = read_rows(path)
        assert rows[0] == ["t", "re_a1_0", "im_a1_0", "re_a1_1", "im_a1_1",
                           "re_a2_0", "im_a2_0", "re_a2_1", "im_a2_1"]
        for k, row in enumerate(rows[1:]):
            expected = [traj.times[k]]
            for z in components[k]:
                expected += [z.real, z.imag]
            assert row == [format(float(v), ".17g") for v in expected]
        assert rows[1][3:5] == ["-0", "0"]
        assert rows[1][6] == "4.9406564584124654e-324"


def run_with(tmp_path, capsys, overrides=(), **fields):
    config = {**swap_config(tmp_path / "out" / "run", 0.02), **fields}
    path = tmp_path / "run.config.json"
    path.write_text(json.dumps(config))
    argv = ["run", "--config", str(path)]
    for item in overrides:
        argv += ["--override", item]
    code = cli.main(argv)
    return code, capsys.readouterr().err


FIVE_QUBITS = [[1.0, 0.0]] * 5
THREE_QUTRITS = [[1.0, 0.0, 0.0]] * 3
BEA = {"integrator": "bea_truncation", "bea_scheme": "lie_trotter"}


class TestConfigErrors:
    def assert_config_error(self, tmp_path, capsys, overrides=(), **fields):
        code, err = run_with(tmp_path, capsys, overrides, **fields)
        assert code == cli.EXIT_CONFIG
        assert "config error" in err
        assert not (tmp_path / "out").exists()
        return err

    @pytest.mark.parametrize("fields, message", [
        ({"gellmann_projection": ["a", 1, 2]}, "gellmann_projection"),
        ({"gellmann_projection": [0, 1.5, 2]}, "gellmann_projection"),
        ({"gellmann_projection": [0, True, 2]}, "gellmann_projection"),
        # t_final above 1 so dt=true is not rejected for t_final < dt instead.
        ({"dt": True, "t_final": 2.0}, "dt must be a positive number"),
        ({"t_final": True}, "t_final"),
        ({"t_final": float("inf")}, "t_final"),
        ({"integrator": "var_restrict_first", "alpha": True}, "alpha"),
        ({"integrator": "var_restrict_first", "alpha": "half"}, "alpha"),
        ({"experiment": "random5", "initial_state": FIVE_QUBITS, "seed": 1.5}, "seed"),
        ({"experiment": "random5", "initial_state": FIVE_QUBITS, "seed": True}, "seed"),
        ({"experiment": "ladder", "initial_state": THREE_QUTRITS, "r_party": True},
         "r_party"),
        ({**BEA, "bea_order": True}, "bea_order"),
        ({"initial_state": [[True, 0.0], [0.0, 1.0]]}, "amplitudes"),
        ({"initial_state": [[["a", 0.0], 0.0], [0.0, 1.0]]}, "amplitudes"),
        ({"outputs": 5}, "outputs"),
        ({"out_path": 5}, "out_path"),
    ])
    def test_malformed_field(self, tmp_path, capsys, fields, message):
        assert message in self.assert_config_error(tmp_path, capsys, **fields)

    @pytest.mark.parametrize("override, message", [
        ("initial_state.5.0=1", "out of range"),
        ("initial_state.x.0=1", "not a list index"),
        ("initial_state.0.9=1", "out of range"),
        ("dt.x=1", "not inside an object or list"),
    ])
    def test_malformed_override(self, tmp_path, capsys, override, message):
        assert message in self.assert_config_error(tmp_path, capsys, [override])

    def test_valid_override_still_applies(self, tmp_path, capsys):
        code, _ = run_with(tmp_path, capsys, ["initial_state.1.0=0.8", "dt=0.05"])
        assert code == cli.EXIT_OK
        record = json.loads((tmp_path / "out" / "run.json").read_text())
        assert record["config"]["dt"] == 0.05
        assert record["config"]["initial_state"][1][0] == 0.8


class TestNewtonRecord:
    def test_solver_block_matches_the_trajectory(self, tmp_path, capsys):
        code, _ = run_with(tmp_path, capsys, integrator="var_restrict_first", alpha=0.5)
        assert code == cli.EXIT_OK
        solver = json.loads((tmp_path / "out" / "run.json").read_text())["solver"]
        config = cli.ExperimentConfig.from_dict(
            {**swap_config(tmp_path / "unused", 0.02),
             "integrator": "var_restrict_first", "alpha": 0.5})
        state0 = config._parse_initial_state()
        discrete = variational.integrate_restrict_then_discretize(
            cli.build_hamiltonian(config), 0.5, 0.02, config.steps(), state0,
            blowup_factor=cli.BLOWUP_FACTOR)
        counts = discrete.newton_iterations
        assert solver["newton_solves"] == config.steps() == counts.size
        assert solver["newton_iterations"] == int(counts.sum())
        assert solver["max_newton_iterations"] == int(counts.max())
