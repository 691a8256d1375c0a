import json

import numpy as np

from sepdyn import cli
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
