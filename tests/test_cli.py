import concurrent.futures
import json
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sepdyn import analysis, bea, cli, propagators, reduced, states, variational
from sepdyn.propagators import SplittingScheme, Trajectory

SWAP_STATE = [[1.0, 0.0], [0.6, [0.0, 0.8]]]
# |0> on the first qubit, the equal superposition on the second.
FIG1_STATE = [[1.0, 0.0], [2**-0.5, 2**-0.5]]


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

    @pytest.mark.parametrize("config_name, config_arg, out_path", [
        ("a.json", "cfg", "cfg/a"),              # a directory run: its own record
        ("a.json", "cfg/a.json", "cfg/a"),       # a single file
        ("a.csv", "cfg/a.csv", "cfg/a"),         # a single file its CSV would replace
        ("a.json", "cfg", "cfg/../cfg/a"),       # the same file by another path
    ])
    def test_an_output_never_replaces_its_own_config(self, tmp_path, capsys, monkeypatch,
                                                     config_name, config_arg, out_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg").mkdir()
        text = json.dumps(swap_config(out_path, 0.05))
        (tmp_path / "cfg" / config_name).write_text(text)
        assert cli.main(["run", "--config", config_arg]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "over the config" in err
        assert (tmp_path / "cfg" / config_name).read_text() == text
        assert [p.name for p in (tmp_path / "cfg").iterdir()] == [config_name]

    def test_two_configs_never_share_an_output_prefix(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg").mkdir()
        for name, out_path in (("a.json", "out/x"), ("b.json", "out/../out/x")):
            (tmp_path / "cfg" / name).write_text(json.dumps(swap_config(out_path, 0.05)))
        assert cli.main(["run", "--config", "cfg"]) == cli.EXIT_CONFIG
        assert "cfg/a.json and cfg/b.json both write to" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_an_output_never_replaces_another_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg").mkdir()
        texts = {"a.json": json.dumps(swap_config("out/a", 0.05)),
                 "b.json": json.dumps(swap_config("cfg/a", 0.05))}
        for name, text in texts.items():
            (tmp_path / "cfg" / name).write_text(text)
        assert cli.main(["run", "--config", "cfg"]) == cli.EXIT_CONFIG
        assert "cfg/b.json would write its output over the config cfg/a.json" in \
            capsys.readouterr().err
        assert {p.name: p.read_text() for p in (tmp_path / "cfg").iterdir()} == texts
        assert not (tmp_path / "out").exists()  # no run started


class TestWriteCsv:
    SPECIAL = [-0.0, 5e-324, 1e300, 1.0 / 3.0, -2.5e-17, 0.1]

    def test_full_state_cells_match_per_value_format(self, tmp_path):
        values = np.array(self.SPECIAL)
        full = np.stack([values[:4] + 1j * values[2:], values[2:] - 1j * values[:4]])
        traj = Trajectory(0.1, (2, 2), full=full)
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
        traj = Trajectory(0.5, (2, 2), components=components)
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


def row_format_csv(headers, table) -> bytes:
    """A CSV written one row at a time with ``%.17g`` per cell: the reference bytes."""
    row_format = ",".join(["%.17g"] * len(headers)) + "\n"
    return (",".join(headers) + "\n"
            + "".join(row_format % tuple(row) for row in table.tolist())).encode()


class TestWriteCsvBlocks:
    """Blocks of rows give the bytes of the row-by-row ``%.17g`` writer."""

    def mixed_run(self, rows):
        rng = np.random.default_rng(7)
        scale = 10.0 ** rng.integers(-9, 3, (rows, 4))
        full = (rng.standard_normal((rows, 4)) + 1j * rng.standard_normal((rows, 4))) * scale
        full[::5, 1] = complex(-0.0, 0.0)
        full[::7, 2] = complex(0.0, -0.0)
        full[-1, 3] = 1e300 - 1e-300j
        columns = {"norm": 1 + rng.integers(-3, 4, rows) * 2.0**-52,
                   "rate_nucl": rng.standard_normal(rows) * 1e-6,
                   "purity1": np.where(np.arange(rows) % 3, -0.0, 0.5)}
        traj = Trajectory(0.001, (2, 2), full=full)
        headers = ["t"] + [f"{p}_psi_{i}" for i in range(4) for p in ("re", "im")]
        headers += list(columns)
        table = np.column_stack([traj.times, full.view(float), *columns.values()])
        return traj, columns, headers, table

    # 12 columns a row; the row counts are not multiples of the block.
    @pytest.mark.parametrize("block_cells, rows", [
        (cli.CSV_BLOCK_CELLS, 2 * (cli.CSV_BLOCK_CELLS // 12) + 5), (25, 9), (25, 1)])
    def test_same_bytes_as_row_by_row(self, tmp_path, monkeypatch, block_cells, rows):
        monkeypatch.setattr(cli, "CSV_BLOCK_CELLS", block_cells)
        traj, columns, headers, table = self.mixed_run(rows)
        path = tmp_path / "run.csv"
        cli.write_csv(path, cli.RunResult(traj, {}), columns)
        assert path.read_bytes() == row_format_csv(headers, table)


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
RANDOM5_SEED3 = {"experiment": "random5", "seed": 3}
# Product norm² 1e308, just inside the double range.
BIG_FIVE_QUBITS = [[1e154, 0], [0.6, 0.8], [1, 0], [0, 1], [1, 0]]
# norm² 1e308, with ‖H‖ = 6 on r_party 1.
BIG_LADDER = {"experiment": "ladder", "r_party": 1,
              "initial_state": [[1e154, 0, 0], [0.6, 0.8, 0], [1, 0, 0]]}
MIXED_FIVE_QUBITS = [[1, 0], [0.6, 0.8], [1, 0], [0, 1], [0.6, 0.8]]


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

    @pytest.mark.parametrize("scheme, order", [("lie_trotter", 0), ("strang", 2)])
    @pytest.mark.parametrize("state", [[[2, 0], [0.6, 0.8]], [[1, 0], [0.6, 0.9]],
                                       [[1, 0], [0.6, 0.8 + 1e-11]]])
    def test_bea_needs_unit_norm_components(self, tmp_path, capsys, scheme, order, state):
        # The modified series are those of unit components; other norms would
        # integrate equations that no splitting run follows.
        err = self.assert_config_error(tmp_path, capsys, integrator="bea_truncation",
                                       bea_scheme=scheme, bea_order=order,
                                       initial_state=state)
        assert "unit-norm" in err

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
        state0 = config.initial_components
        (discrete,) = variational.integrate_separable_rows(
            "restrict_first", cli.build_hamiltonian(config), 0.5, 0.02, [config.steps()],
            [state0], blowup_factor=cli.BLOWUP_FACTOR)
        counts = discrete.newton_iterations
        assert solver["newton_solves"] == config.steps() == counts.size
        assert solver["newton_iterations"] == int(counts.sum())
        assert solver["max_newton_iterations"] == int(counts.max())
        assert solver["max_final_newton_residual"] == discrete.newton_residuals.max()
        assert 0 < solver["max_final_newton_residual"] <= solver["tolerance"]
        assert set(solver) == {"kind", "tolerance", "newton_solves", "newton_iterations",
                               "max_newton_iterations", "max_final_newton_residual"}


class TestRungeKuttaRecord:
    def test_solver_block_reports_the_step_range(self, tmp_path, capsys):
        fields = {**BEA, "bea_order": 2, "initial_state": [[1, 0], [0.6, 0.8]],
                  "dt": 0.01, "t_final": 2.0}
        code, _ = run_with(tmp_path, capsys, **fields)
        assert code == cli.EXIT_OK
        solver = json.loads((tmp_path / "out" / "run.json").read_text())["solver"]
        config = cli.ExperimentConfig.from_dict(
            {**swap_config(tmp_path / "unused", 0.01), **fields})
        sol = bea.rk_integrate(bea.ModifiedRHS(SplittingScheme.LIE_TROTTER, 2, 0.01),
                               np.concatenate(config.initial_components.vectors()),
                               0.01, config.steps())
        assert solver == {"kind": "runge_kutta", "steps": sol.steps,
                          "rejected": sol.rejected, "rhs_evals": sol.rhs_evals,
                          "min_step": sol.min_step, "max_step": sol.max_step}
        # The controller, not a cap, sizes the steps: they grow past the first.
        assert solver["min_step"] == bea.RK_FIRST_STEP < solver["max_step"]


class TestRunGuards:
    def write_configs(self, directory, out_paths):
        directory.mkdir()
        for name, out_path in zip("ab", out_paths):
            (directory / f"{name}.json").write_text(json.dumps(swap_config(out_path, 0.02)))

    def test_duplicate_output_prefix_is_rejected_before_any_run(self, tmp_path, capsys):
        self.write_configs(tmp_path / "configs", [tmp_path / "out" / "run"] * 2)
        code = cli.main(["run", "--config", str(tmp_path / "configs")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert "a.json" in err and "b.json" in err
        assert not (tmp_path / "out").exists()

    def test_prefixes_are_compared_after_resolving(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        self.write_configs(tmp_path / "configs", ["out/run", tmp_path / "out" / "sub" / ".." / "run"])
        assert cli.main(["run", "--config", "configs", "--jobs", "2"]) == cli.EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_distinct_prefixes_all_run(self, tmp_path, capsys):
        self.write_configs(tmp_path / "configs", [tmp_path / "out" / "a", tmp_path / "out" / "b"])
        assert cli.main(["run", "--config", str(tmp_path / "configs")]) == cli.EXIT_OK
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "a.csv", "a.json", "b.csv", "b.json",
        ]

    @pytest.mark.parametrize("dt, t_final", [(1e-300, 1.0), (5e-324, 1.0), (1e-6, 1.000002)])
    def test_step_count_is_capped_before_running(self, tmp_path, capsys, monkeypatch, dt,
                                                 t_final):
        def execute(*args):
            pytest.fail("execute must not run for an over-long config")

        monkeypatch.setattr(cli, "execute", execute)
        code, err = run_with(tmp_path, capsys, dt=dt, t_final=t_final)
        assert code == cli.EXIT_CONFIG
        assert f"more than {cli.MAX_STEPS} steps" in err

    @pytest.mark.parametrize("order, dt, t_final", [(1, 1000, 4000), (0, 1e150, 1e150)])
    def test_bea_step_budget_ends_a_long_horizon(self, tmp_path, capsys, order, dt,
                                                  t_final):
        # No horizon is refused at load: the solver's step budget ends the run.
        code, err = run_with(tmp_path, capsys, **BEA, bea_order=order,
                             initial_state=[[1, 0], [0.6, 0.8]], dt=dt, t_final=t_final)
        assert code == cli.EXIT_SOLVER
        assert f"step budget of {bea.RK_MAX_STEPS} steps spent" in err
        assert len(err.strip().splitlines()) == 1
        assert list((tmp_path / "out").glob("run.*")) == []

    @pytest.mark.parametrize("t_final", [150.0, 260.0])
    def test_bea_horizon_admits_the_step_budget(self, tmp_path, capsys, t_final):
        # The controller's steps outgrow the first one, so horizons far past
        # t_final / RK_FIRST_STEP = RK_MAX_STEPS (t = 79.6) still complete.
        code, err = run_with(tmp_path, capsys, **BEA, bea_order=0,
                             initial_state=[[1, 0], [0.6, 0.8]], dt=0.5, t_final=t_final)
        assert (code, err) == (cli.EXIT_OK, "")
        solver = json.loads((tmp_path / "out" / "run.json").read_text())["solver"]
        assert t_final / bea.RK_FIRST_STEP > bea.RK_MAX_STEPS > solver["steps"]
        assert len(read_rows(tmp_path / "out" / "run.csv")) == 1 + 1 + int(2 * t_final)

    def test_bea_run_that_spends_the_step_budget_exits_3(self, tmp_path, capsys):
        # Order 2 at dt 79 inside the horizon: the modified field grows like
        # dt^2, so steps of about 4e-5 spend the budget near t = 0.8.
        start = time.perf_counter()
        code, err = run_with(tmp_path, capsys, **BEA, bea_order=2,
                             initial_state=[[1, 0], [0.6, 0.8]], dt=79.0, t_final=79.0)
        assert time.perf_counter() - start < 10.0
        assert code == cli.EXIT_SOLVER
        assert f"step budget of {bea.RK_MAX_STEPS} steps spent" in err
        assert len(err.strip().splitlines()) == 1
        assert list((tmp_path / "out").glob("run.*")) == []

    def test_step_cap_admits_max_steps(self, tmp_path):
        config = cli.ExperimentConfig.from_dict(
            {**swap_config(tmp_path / "run", 1e-6), "t_final": 1.0})
        assert config.steps() == cli.MAX_STEPS


class TestFiniteProbes:
    """Finite but extreme configs end with one line on stderr and exit 2 or 3."""

    @pytest.mark.filterwarnings("error")  # a numpy warning would be a second line
    @pytest.mark.parametrize("fields, code, message", [
        # The modified series hold for unit-norm components only.
        ({**BEA, "bea_order": 2, "initial_state": [[1e150, 0], [0.6, 0.8]]},
         cli.EXIT_CONFIG, "unit-norm"),
        # The order-2 series at dt 1e155 overflow in the first step.
        ({**BEA, "bea_order": 2, "initial_state": [[1, 0], [0.6, 0.8]], "dt": 1e155,
          "t_final": 1e155}, cli.EXIT_SOLVER, "non-finite error estimate"),
        ({**BEA, "bea_order": 2, "initial_state": [[1e200, 0], [0.6, 0.8]]},
         cli.EXIT_CONFIG, "too large"),
        # Product states whose norm² overflows.
        ({"integrator": "strang", "initial_state": [[1e200, 0], [0.6, 0.8]]},
         cli.EXIT_CONFIG, "too large"),
        ({"integrator": "var_discretize_first", "alpha": 0.5,
          "initial_state": [[1e200, 0], [0.6, 0.8]]}, cli.EXIT_CONFIG, "too large"),
        ({"experiment": "ladder", "integrator": "strang", "r_party": 2,
          "initial_state": [[1e100, 0, 0], [1e100, 1, 0], [1, 0, 1]]},
         cli.EXIT_CONFIG, "too large"),
        ({"initial_state": [[1e150, 0], [1e150, 0.8]]}, cli.EXIT_CONFIG, "too large"),
        # An out_path without a file name.
        ({"out_path": ""}, cli.EXIT_CONFIG, "out_path"),
        ({"out_path": "."}, cli.EXIT_CONFIG, "out_path"),
        ({"out_path": "/"}, cli.EXIT_CONFIG, "out_path"),
        # Finite norm², but the diagnostics are of order norm⁴ and overflow.
        ({"initial_state": [[1e150, 0], [0.6, 0.8]], "outputs": list(cli.OUTPUT_NAMES)},
         cli.EXIT_SOLVER, "diagnostic column 'rate_nucl' is not finite"),
        ({"integrator": "strang", "initial_state": [[1e150, 0], [0.6, 0.8]],
          "outputs": list(cli.OUTPUT_NAMES)},
         cli.EXIT_SOLVER, "diagnostic column 'rate_nucl' is not finite"),
        ({"initial_state": [[1e150, 0], [0.6, 0.8]], "outputs": ["norm", "purity"]},
         cli.EXIT_SOLVER, "diagnostic column 'purity1' is not finite"),
        # The Newton residual overflows.
        ({"integrator": "var_restrict_first", "alpha": 0.5,
          "initial_state": [[1e150, 0], [0.6, 0.8]]}, cli.EXIT_SOLVER, "non-finite"),
        ({"integrator": "var_discretize_first", "alpha": 0.5,
          "initial_state": [[1e150, 0], [0.6, 0.8]]}, cli.EXIT_SOLVER, "non-finite"),
        # norm² 1e308: the first Newton residual overflows.
        ({**RANDOM5_SEED3, "integrator": "var_restrict_first", "alpha": 0.5,
          "initial_state": BIG_FIVE_QUBITS}, cli.EXIT_SOLVER, "non-finite"),
        ({**RANDOM5_SEED3, "integrator": "var_discretize_first", "alpha": 0.5,
          "initial_state": BIG_FIVE_QUBITS}, cli.EXIT_SOLVER, "non-finite"),
        # The splitting reduction c^H H c is of order ‖H‖ norm² and overflows.
        ({**BIG_LADDER, "integrator": "strang"},
         cli.EXIT_SOLVER, "splitting step 1 produced a non-finite state"),
        ({**BIG_LADDER, "integrator": "lie_trotter"},
         cli.EXIT_SOLVER, "splitting step 1 produced a non-finite state"),
        ({**RANDOM5_SEED3, "integrator": "strang", "initial_state": BIG_FIVE_QUBITS},
         cli.EXIT_SOLVER, "splitting step 1 produced a non-finite state"),
        ({**RANDOM5_SEED3, "integrator": "lie_trotter", "initial_state": BIG_FIVE_QUBITS},
         cli.EXIT_SOLVER, "splitting step 1 produced a non-finite state"),
        # The phases t * E of the exact grid overflow: in the run itself, or in
        # the abs_overlap reference of a splitting run that succeeded.
        ({**RANDOM5_SEED3, "initial_state": FIVE_QUBITS, "dt": 1e308, "t_final": 1e308},
         cli.EXIT_SOLVER, "phases t * E of exp(-i t H) overflow"),
        ({**RANDOM5_SEED3, "integrator": "lie_trotter", "initial_state": MIXED_FIVE_QUBITS,
          "dt": 3e307, "t_final": 3e307, "outputs": ["norm", "abs_overlap"]},
         cli.EXIT_SOLVER, "phases t * E of exp(-i t H) overflow"),
        ({**RANDOM5_SEED3, "integrator": "strang", "initial_state": MIXED_FIVE_QUBITS,
          "dt": 3e307, "t_final": 3e307, "outputs": ["norm", "abs_overlap"]},
         cli.EXIT_SOLVER, "phases t * E of exp(-i t H) overflow"),
    ])
    def test_exits_with_one_line(self, tmp_path, capsys, fields, code, message):
        got, err = run_with(tmp_path, capsys, **{"dt": 0.1, "t_final": 0.3, **fields})
        assert got == code
        assert message in err
        assert len(err.strip().splitlines()) == 1
        assert list((tmp_path / "out").glob("run.*")) == []

    @pytest.mark.filterwarnings("error")
    # Reductions in steps 1 and 2 on swap: two a step for Lie-Trotter; for
    # Strang three, then two, as step 2 reuses step 1's last decomposition.
    @pytest.mark.parametrize("integrator, before", [("lie_trotter", 4), ("strang", 5)])
    def test_a_nan_decomposition_exits_3(self, tmp_path, capsys, monkeypatch, integrator,
                                         before):
        # Sub-steps call the eigh gufunc without np.linalg.eigh's wrapper, so a
        # decomposition that fails gives NaN, not LinAlgError. From step 3 on,
        # every sub-step's reduction here is NaN.
        calls = []

        def nan_from_step_3(block, vectors, keep, _kernel=propagators.contract_reduced):
            calls.append(keep)
            sandwich, norm2 = _kernel(block, vectors, keep)
            if len(calls) > before:
                sandwich = np.full_like(sandwich, np.nan)
            return sandwich, norm2

        monkeypatch.setattr(propagators, "contract_reduced", nan_from_step_3)
        code, err = run_with(tmp_path, capsys, integrator=integrator, dt=0.1, t_final=0.5)
        assert code == cli.EXIT_SOLVER
        assert "splitting step 3 produced a non-finite state" in err
        assert len(err.strip().splitlines()) == 1
        assert list((tmp_path / "out").glob("run.*")) == []

    @pytest.mark.filterwarnings("error")
    def test_integer_grid_beyond_a_c_long_runs(self, tmp_path, capsys):
        # JSON integers of 2**63 or more; the config keeps them as doubles.
        code, err = run_with(tmp_path, capsys, dt=10**19, t_final=10**19)
        assert (code, err) == (cli.EXIT_OK, "")
        assert len(read_rows(tmp_path / "out" / "run.csv")) == 1 + 2
        config = json.loads((tmp_path / "out" / "run.json").read_text())["config"]
        assert type(config["dt"]) is type(config["t_final"]) is float

    @pytest.mark.parametrize("scheme", ["lie_trotter", "strang"])
    def test_an_overflowing_field_exits_3_without_a_traceback(self, tmp_path, scheme):
        # At dt 1000 the order-2 field drives |<a|b>| past 1e154 within the
        # first step, where the float power |q|**2 raises OverflowError.
        config = {**swap_config(tmp_path / "out" / "run", 1000.0), **BEA, "t_final": 1000.0,
                  "bea_scheme": scheme, "bea_order": 2, "initial_state": [[1, 0], [0.6, 0.8]]}
        path = tmp_path / "run.config.json"
        path.write_text(json.dumps(config))
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-m", "sepdyn.cli", "run", "--config", str(path)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == cli.EXIT_SOLVER
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("solver failure: modified field overflowed at t=")
        assert len(done.stderr.strip().splitlines()) == 1
        assert list((tmp_path / "out").glob("run.*")) == []

    def test_out_path_through_a_file(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        code, err = run_with(tmp_path, capsys, out_path=str(tmp_path / "afile" / "x"))
        assert code == cli.EXIT_CONFIG
        assert "config error" in err and "out_path" in err
        assert len(err.strip().splitlines()) == 1


class TestInitialStateParse:
    @pytest.mark.parametrize("fields", [
        {},
        {"integrator": "strang"},
        {"integrator": "var_discretize_first", "alpha": 0.5},
        {**BEA, "bea_order": 2},
    ], ids=["se_exact", "strang", "var_discretize_first", "bea_truncation"])
    def test_a_run_builds_one_component_state(self, tmp_path, capsys, monkeypatch, fields):
        builds = []
        post_init = states.ComponentState.__post_init__

        def counting(state):
            builds.append(state)
            post_init(state)

        monkeypatch.setattr(states.ComponentState, "__post_init__", counting)
        code, _ = run_with(tmp_path, capsys, **fields)
        assert code == cli.EXIT_OK
        assert len(builds) == 1


class TestConfigPass:
    """``run --config DIR`` loads each config once and forks no idle workers."""

    def write_configs(self, directory, count):
        directory.mkdir()
        for i in range(count):
            config = swap_config(directory.parent / "out" / f"run{i}", 0.05)
            (directory / f"c{i}.json").write_text(json.dumps(config))

    def test_each_config_is_loaded_once(self, tmp_path, capsys, monkeypatch):
        loads = []
        load_config = cli.load_config

        def counting(path, overrides):
            loads.append(path.name)
            return load_config(path, overrides)

        monkeypatch.setattr(cli, "load_config", counting)
        self.write_configs(tmp_path / "configs", 3)
        assert cli.main(["run", "--config", str(tmp_path / "configs")]) == cli.EXIT_OK
        assert loads == ["c0.json", "c1.json", "c2.json"]

    def test_a_bad_config_exits_2_while_the_others_run(self, tmp_path, capsys):
        self.write_configs(tmp_path / "configs", 2)
        (tmp_path / "configs" / "c2.json").write_text("{")
        assert cli.main(["run", "--config", str(tmp_path / "configs")]) == cli.EXIT_CONFIG
        assert "config error in" in capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "run0.csv", "run0.json", "run1.csv", "run1.json",
        ]

    @pytest.mark.parametrize("jobs, cpus, workers", [
        (1000, 64, 3),   # no more workers than configs
        (8, 2, 2),       # no more workers than CPUs
        (2, 64, 2),      # as many as asked for when both allow it
        (1, 64, None),   # one job runs in this process, without a pool
    ])
    def test_workers_are_capped(self, tmp_path, capsys, monkeypatch, jobs, cpus, workers):
        started = []

        class InlineExecutor:
            """Records the pool size and runs the work here, starting no process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        self.write_configs(tmp_path / "configs", 3)
        argv = ["run", "--config", str(tmp_path / "configs"), "--jobs", str(jobs)]
        assert cli.main(argv) == cli.EXIT_OK
        assert started == ([] if workers is None else [workers])
        assert len(list((tmp_path / "out").iterdir())) == 6

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_exit_2_before_any_load(self, tmp_path, capsys, monkeypatch,
                                                   jobs):
        def load_config(path, overrides):
            pytest.fail("no config may load with --jobs below 1")

        monkeypatch.setattr(cli, "load_config", load_config)
        self.write_configs(tmp_path / "configs", 2)
        argv = ["run", "--config", str(tmp_path / "configs"), "--jobs", str(jobs)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"--jobs must be at least 1, got {jobs}\n"
        assert not (tmp_path / "out").exists()

    def test_one_step_run_writes_rate_of_change(self, tmp_path, capsys):
        code, _ = run_with(tmp_path, capsys, integrator="strang", dt=0.1, t_final=0.1,
                           outputs=["rate_nucl"])
        assert code == cli.EXIT_OK
        columns = csv_columns(tmp_path / "out" / "run.csv")
        assert columns["t"].tolist() == [0.0, 0.1]
        assert columns["rate_nucl"][0] == columns["rate_nucl"][1] > 0


class TestColdStart:
    """Setting up a run loads only the modules that the run needs."""

    LAZY = ("sepdyn.variational", "sepdyn.bea", "concurrent.futures")
    # What the benchmark's set-up probe does: import the CLI, load each
    # config, build its Hamiltonian; then report which LAZY modules loaded.
    PROBE = """
import json, sys
from pathlib import Path
from sepdyn import cli
cli.build_hamiltonian(cli.load_config(Path(sys.argv[1]), []))
print(json.dumps([name for name in sys.argv[2:] if name in sys.modules]))
"""

    def test_setup_of_a_splitting_config_imports_no_lazy_module(self, tmp_path):
        path = tmp_path / "strang.json"
        config = {**swap_config(tmp_path / "out" / "run", 0.1), "integrator": "strang"}
        path.write_text(json.dumps(config))
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", self.PROBE, str(path), *self.LAZY],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == []

    @pytest.mark.parametrize("error", [
        variational.NewtonConvergenceError, bea.StepSizeUnderflowError,
        propagators.NonFiniteStateError, reduced.DegenerateStateError])
    def test_every_solver_error_is_one_failure(self, error):
        assert issubclass(error, states.SolverFailure)


class TestList:
    def listing(self, capsys):
        assert cli.main(["list", "--json"]) == cli.EXIT_OK
        return json.loads(capsys.readouterr().out)

    def minimal_config(self, listing, experiment, integrator, tmp_path):
        """A config holding exactly the listed required fields, optional ones left out."""
        fields = listing["required_fields"]
        names = (fields["common"] + fields["per_experiment"][experiment]
                 + fields["per_integrator"].get(integrator, []))
        config = {"experiment": experiment, "integrator": integrator, "dt": 0.05,
                  "t_final": 0.1, "out_path": str(tmp_path / "out" / "run")}
        values = {"seed": 3, "r_party": 2, "alpha": 0.5, "bea_order": 0}
        for name in names:
            # The common "initial_state" is sized by its per-experiment entry.
            if name.endswith("(optional)") or name in config or name == "initial_state":
                continue
            if name.startswith("initial_state"):
                # e.g. "initial_state (5 qubits)": that many basis states |0>.
                count, kind = name[name.index("(") + 1 : -1].split()
                d = {"qubits": 2, "qutrits": 3}[kind]
                config["initial_state"] = [[1.0] + [0.0] * (d - 1)] * int(count)
            else:
                config[name] = values[name]
        return config

    def test_json_agrees_with_compatible(self, capsys):
        listing = self.listing(capsys)
        assert listing["experiments"] == list(cli.EXPERIMENTS)
        assert listing["integrators"] == list(cli.INTEGRATORS)
        assert listing["compatibility"] == {
            exp: [integ for integ in cli.INTEGRATORS if cli.compatible(exp, integ)]
            for exp in cli.EXPERIMENTS
        }

    def test_listed_fields_make_a_valid_config_for_each_compatible_pair(self, tmp_path,
                                                                          capsys):
        listing = self.listing(capsys)
        for exp, integrators in listing["compatibility"].items():
            for integ in integrators:
                config = self.minimal_config(listing, exp, integ, tmp_path)
                assert cli.ExperimentConfig.from_dict(config).experiment == exp

    def test_each_specific_field_is_required(self, tmp_path, capsys):
        listing = self.listing(capsys)
        fields = listing["required_fields"]
        cases = [(exp, integ, name)
                 for exp, integrators in listing["compatibility"].items()
                 for integ in integrators
                 for name in (fields["per_experiment"][exp]
                              + fields["per_integrator"].get(integ, []))
                 if name in ("seed", "r_party", "alpha", "bea_order")]
        assert {name for *_, name in cases} == {"seed", "r_party", "alpha", "bea_order"}
        path = tmp_path / "run.config.json"
        for exp, integ, name in cases:
            config = self.minimal_config(listing, exp, integ, tmp_path)
            del config[name]
            path.write_text(json.dumps(config))
            assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG, (exp, integ)
            assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_text_listing_names_every_pair(self, capsys):
        assert cli.main(["list"]) == cli.EXIT_OK
        text = capsys.readouterr().out
        for name in cli.EXPERIMENTS + cli.INTEGRATORS:
            assert name in text


class TestExitCodesEndToEnd:
    """One config directory holding an ok run, a blow-up and a solver failure."""

    CONFIGS = {
        "a_ok": {"integrator": "strang"},
        # Discretize-first on the exchange system blows up within 30 steps.
        "b_blowup": {"integrator": "var_discretize_first", "alpha": 0.5, "dt": 0.1,
                     "t_final": 3.0, "initial_state": FIG1_STATE},
        "c_solver": {"experiment": "ladder", "r_party": 2,
                     "integrator": "var_restrict_first", "alpha": 0.5,
                     "initial_state": THREE_QUTRITS},
    }

    def test_codes_outputs_and_rerun(self, tmp_path, capsys, monkeypatch):
        configs = tmp_path / "configs"
        configs.mkdir()
        out = tmp_path / "out"
        for name, fields in self.CONFIGS.items():
            config = {**swap_config(out / name, 0.02), "t_final": 0.2, **fields}
            (configs / f"{name}.json").write_text(json.dumps(config))

        solve = variational._newton_rows

        def failing_on_ladder(residual, guesses):
            # The ladder's stacked components have nine amplitudes.
            if np.shape(guesses)[-1] == 9:
                return [variational.NewtonConvergenceError("forced failure", 1.0)
                        for _ in guesses]
            return solve(residual, guesses)

        monkeypatch.setattr(variational, "_newton_rows", failing_on_ladder)
        codes = []
        run_file = cli._run_file

        def recording(path, config, batch=None):
            codes.append(run_file(path, config, batch))
            return codes[-1]

        monkeypatch.setattr(cli, "_run_file", recording)

        assert cli.main(["run", "--config", str(configs)]) == cli.EXIT_BLOWUP
        assert codes == [cli.EXIT_OK, cli.EXIT_BLOWUP, cli.EXIT_SOLVER]
        assert "solver failure: forced failure" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == [
            "a_ok.csv", "a_ok.json", "b_blowup.csv", "b_blowup.json",
        ]
        assert "blowup" not in json.loads((out / "a_ok.json").read_text())
        record = json.loads((out / "b_blowup.json").read_text())
        steps = record["blowup"]["steps_completed"]
        assert steps < 30  # a partial run of the 30 configured steps
        assert record["rows_written"] == steps + 1 == len(read_rows(out / "b_blowup.csv")) - 1

        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert cli.main(["run", "--config", str(configs)]) == cli.EXIT_BLOWUP
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first


class TestBatches:
    """Variational configs that share a grid run as one batch, and each writes
    what it writes run alone."""

    VARIATIONAL = {"integrator": "var_discretize_first", "alpha": 0.5, "dt": 0.1}
    CONFIGS = {
        # One batch of four rows: a blow-up, a run of every output, a start
        # whose Newton residual overflows, and a run too short for p_n.
        "a_blowup": {**VARIATIONAL, "t_final": 3.0, "initial_state": FIG1_STATE},
        "b_split": {"integrator": "strang", "dt": 0.1, "t_final": 1.0},
        "c_ok": {**VARIATIONAL, "t_final": 1.0, "outputs": list(cli.OUTPUT_NAMES)},
        "d_other_dt": {**VARIATIONAL, "dt": 0.05, "t_final": 1.0},
        "e_failed_start": {**VARIATIONAL, "t_final": 1.0,
                           "initial_state": [[1e150, 0], [0.6, 0.8]]},
        "f_short": {**VARIATIONAL, "t_final": 0.2},
    }
    BATCH = ["a_blowup.json", "c_ok.json", "e_failed_start.json", "f_short.json"]

    def write_configs(self, tmp_path):
        configs = tmp_path / "configs"
        configs.mkdir()
        for name, fields in self.CONFIGS.items():
            config = {**swap_config(tmp_path / "out" / name, 0.1), **fields}
            (configs / f"{name}.json").write_text(json.dumps(config))
        return configs

    @staticmethod
    def outputs(tmp_path):
        return {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}

    def test_each_config_writes_what_it_writes_alone(self, tmp_path, capsys, monkeypatch):
        configs = self.write_configs(tmp_path)
        rows = variational.integrate_separable_rows
        batch_sizes = []

        def recording_rows(ordering, H, alpha, dt, steps, states, **kwargs):
            batch_sizes.append(len(states))
            return rows(ordering, H, alpha, dt, steps, states, **kwargs)

        monkeypatch.setattr(variational, "integrate_separable_rows", recording_rows)
        codes = []
        run_file = cli._run_file

        def recording(path, config, batch=None):
            codes.append(run_file(path, config, batch))
            return codes[-1]

        monkeypatch.setattr(cli, "_run_file", recording)
        code = cli.main(["run", "--config", str(configs)])
        together = capsys.readouterr()
        outputs = self.outputs(tmp_path)
        assert batch_sizes == [4, 1]
        monkeypatch.undo()

        shutil.rmtree(tmp_path / "out")
        solo_codes, solo_out, solo_err = [], [], []
        for path in sorted(configs.iterdir()):
            solo_codes.append(cli.main(["run", "--config", str(path)]))
            captured = capsys.readouterr()
            solo_out.append(captured.out)
            solo_err.append(captured.err)
        assert codes == solo_codes == [cli.EXIT_BLOWUP, cli.EXIT_OK, cli.EXIT_OK, cli.EXIT_OK,
                                       cli.EXIT_SOLVER, cli.EXIT_OK]
        assert code == cli.EXIT_BLOWUP
        assert self.outputs(tmp_path) == outputs
        assert "e_failed_start.csv" not in outputs
        assert together.err == "".join(solo_err) != ""

        def masked(text):
            return re.sub(r"wall=\S+s", "wall=", text)

        assert masked(together.out) == masked("".join(solo_out))
        assert [line.split(" -> ")[1] for line in together.out.splitlines()] == [
            str(tmp_path / "out" / f"{name}.csv")
            for name in ("a_blowup", "b_split", "c_ok", "d_other_dt", "f_short")]

    def test_a_batch_is_one_work_unit(self, tmp_path, capsys, monkeypatch):
        configs = self.write_configs(tmp_path)
        assert cli.main(["run", "--config", str(configs)]) == cli.EXIT_BLOWUP
        serial = self.outputs(tmp_path)
        shutil.rmtree(tmp_path / "out")
        started, units = [], []

        class InlineExecutor:
            """Records the pool size and the work units, and runs them here."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                units.extend(items)
                return map(fn, units)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        assert cli.main(["run", "--config", str(configs), "--jobs", "2"]) == cli.EXIT_BLOWUP
        assert started == [2]
        assert [[path.name for path, _ in unit] for unit in units] == [
            self.BATCH, ["b_split.json"], ["d_other_dt.json"]]
        assert self.outputs(tmp_path) == serial

    def test_a_group_past_the_amplitude_budget_splits(self, tmp_path, capsys, monkeypatch):
        configs = self.write_configs(tmp_path)
        assert cli.main(["run", "--config", str(configs)]) == cli.EXIT_BLOWUP
        whole = self.outputs(tmp_path)
        shutil.rmtree(tmp_path / "out")
        # Rows stored per config: (steps + 1) * 4 = 124, 44, 44 and 12, each
        # plus NEWTON_COPIES * 2 * 4 * 4 = 320 of Newton temporaries: 444, 364,
        # 364 and 332. The first two fill 808 of 850; the last two fill 696.
        assert cli.NEWTON_COPIES == 10
        monkeypatch.setattr(cli, "BATCH_AMPLITUDES", 850)
        items = [(path, cli.load_config(path, [])) for path in sorted(configs.iterdir())]
        assert [[path.stem for path, _ in unit] for unit in cli._work_units(items)] == [
            ["a_blowup", "c_ok"], ["b_split"], ["d_other_dt"], ["e_failed_start", "f_short"]]
        assert cli.main(["run", "--config", str(configs)]) == cli.EXIT_BLOWUP
        assert self.outputs(tmp_path) == whole

    def test_the_budget_counts_what_a_batch_allocates(self, tmp_path, monkeypatch):
        configs = self.write_configs(tmp_path)
        items = [(path, cli.load_config(path, [])) for path in sorted(configs.iterdir())]
        batch = [config for path, config in items if path.name in self.BATCH]
        outcomes = cli._variational_rows(batch, cli.build_hamiltonian(batch[0]))
        runs = [getattr(outcome, "partial", outcome) for outcome in outcomes
                if not isinstance(outcome, variational.NewtonConvergenceError)]
        # Every row has its place in one buffer, the failed start's included.
        buffer = runs[0].points.base
        assert all(run.points.base is buffer for run in runs)
        assert buffer.size == 124 + 44 + 44 + 12
        # Each row also counts its Newton temporaries: 2 * 4 bumped points of 4.
        temporaries = len(batch) * cli.NEWTON_COPIES * 2 * 4 * 4
        monkeypatch.setattr(cli, "BATCH_AMPLITUDES", buffer.size + temporaries)
        assert [path.name for path, _ in cli._work_units(items)[0]] == self.BATCH
        monkeypatch.setattr(cli, "BATCH_AMPLITUDES", buffer.size + temporaries - 1)
        assert [path.name for path, _ in cli._work_units(items)[0]] == self.BATCH[:-1]

    @pytest.mark.parametrize("ordering", ["var_restrict_first", "var_discretize_first"])
    def test_a_random5_batch_peaks_near_what_it_counts(self, tmp_path, ordering):
        """Short random5 rows store little, but each Newton iteration holds
        about 70 kB of temporaries a row; the count covers them."""
        configs = []
        for j in range(16):
            path = tmp_path / f"r{j:02d}.json"
            state = [[np.cos(0.1 * j + l), np.sin(0.1 * j + l)] for l in range(5)]
            path.write_text(json.dumps({
                **swap_config(tmp_path / "out" / f"r{j:02d}", 0.01), **RANDOM5_SEED3,
                "integrator": ordering, "alpha": 0.5, "t_final": 0.02,
                "initial_state": state}))
            configs.append(cli.load_config(path, []))
        H = cli.build_hamiltonian(configs[0])
        H.slot_blocks, H.spectrum  # built once per batch, outside the count
        counted = 16 * sum(map(cli._batch_amplitudes, configs))
        tracemalloc.start()
        try:
            outcomes = cli._variational_rows(configs, H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(isinstance(outcome, variational.DiscreteTrajectory) for outcome in outcomes)
        assert counted / 2 <= peak <= 2 * counted


class TestSplittingBatches:
    """Lie-Trotter and Strang configs on one Hamiltonian run as one batch of
    rows, whatever their dt, and each writes what it writes run alone."""

    SWAP = {"experiment": "swap"}
    RANDOM5 = {**RANDOM5_SEED3, "initial_state": MIXED_FIVE_QUBITS}
    CONFIGS = {
        "a_swap_lie": {**SWAP, "integrator": "lie_trotter", "dt": 0.1, "t_final": 1.0,
                       "outputs": ["norm", "abs_overlap"]},
        # The reduction overflows in step 1: exit 3, inside the random5 batch.
        "b_random5_big": {**RANDOM5, "integrator": "lie_trotter", "dt": 0.1, "t_final": 0.3,
                          "initial_state": BIG_FIVE_QUBITS},
        "c_swap_var": {**SWAP, "integrator": "var_restrict_first", "alpha": 0.5, "dt": 0.1,
                       "t_final": 0.5},
        "d_random5_strang": {**RANDOM5, "integrator": "strang", "dt": 0.05, "t_final": 0.5,
                             "outputs": list(cli.OUTPUT_NAMES)},
        "e_swap_strang": {**SWAP, "integrator": "strang", "dt": 0.05, "t_final": 1.0,
                          "outputs": list(cli.OUTPUT_NAMES)},
        "f_swap_se": {**SWAP, "integrator": "se_exact", "dt": 0.1, "t_final": 0.5},
        "g_random5_lie": {**RANDOM5, "integrator": "lie_trotter", "dt": 0.02, "t_final": 0.3},
        "h_swap_strang": {**SWAP, "integrator": "strang", "dt": 0.1, "t_final": 0.3,
                          "initial_state": FIG1_STATE},
    }
    UNITS = [["a_swap_lie", "e_swap_strang", "h_swap_strang"],
             ["b_random5_big", "d_random5_strang", "g_random5_lie"],
             ["c_swap_var"], ["f_swap_se"]]

    def write_configs(self, tmp_path):
        configs = tmp_path / "configs"
        configs.mkdir()
        for name, fields in self.CONFIGS.items():
            config = {**swap_config(tmp_path / "out" / name, 0.1), **fields}
            (configs / f"{name}.json").write_text(json.dumps(config))
        return configs

    @staticmethod
    def outputs(tmp_path):
        return {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}

    def test_each_config_writes_what_it_writes_alone(self, tmp_path, capsys, monkeypatch):
        configs = self.write_configs(tmp_path)
        rows = cli.evolve_rows
        batch_sizes = []

        def recording_rows(H, schemes, states, dts, steps):
            batch_sizes.append(len(states))
            return rows(H, schemes, states, dts, steps)

        monkeypatch.setattr(cli, "evolve_rows", recording_rows)
        codes = []
        run_file = cli._run_file

        def recording(path, config, batch=None):
            codes.append(run_file(path, config, batch))
            return codes[-1]

        monkeypatch.setattr(cli, "_run_file", recording)
        code = cli.main(["run", "--config", str(configs)])
        together = capsys.readouterr()
        outputs = self.outputs(tmp_path)
        assert batch_sizes == [3, 3]
        monkeypatch.undo()

        shutil.rmtree(tmp_path / "out")
        solo_codes, solo_out, solo_err = [], [], []
        for path in sorted(configs.iterdir()):
            solo_codes.append(cli.main(["run", "--config", str(path)]))
            captured = capsys.readouterr()
            solo_out.append(captured.out)
            solo_err.append(captured.err)
        assert codes == solo_codes
        assert solo_codes[1] == cli.EXIT_SOLVER
        assert code == max(solo_codes) == cli.EXIT_SOLVER
        assert self.outputs(tmp_path) == outputs
        assert sorted(outputs) == sorted(
            f"{name}.{suffix}" for name in self.CONFIGS if name != "b_random5_big"
            for suffix in ("csv", "json"))
        assert together.err == "".join(solo_err) == (
            "solver failure: splitting step 1 produced a non-finite state\n")

        def masked(text):
            return re.sub(r"wall=\S+s", "wall=", text)

        assert masked(together.out) == masked("".join(solo_out))
        assert [line.split(" -> ")[1] for line in together.out.splitlines()] == [
            str(tmp_path / "out" / f"{name}.csv")
            for name in self.CONFIGS if name != "b_random5_big"]

    def test_jobs_give_the_same_files(self, tmp_path, capsys):
        configs = self.write_configs(tmp_path)
        code = cli.main(["run", "--config", str(configs)])
        serial = self.outputs(tmp_path)
        shutil.rmtree(tmp_path / "out")
        assert cli.main(["run", "--config", str(configs), "--jobs", "2"]) == code
        assert self.outputs(tmp_path) == serial

    def test_work_units_group_splitting_configs_per_hamiltonian(self, tmp_path, monkeypatch):
        configs = self.write_configs(tmp_path)
        items = [(path, cli.load_config(path, [])) for path in sorted(configs.iterdir())]
        assert [[path.stem for path, _ in unit] for unit in cli._work_units(items)] == self.UNITS
        # A splitting row keeps (steps + 1) rows of its 4 components and of its
        # 4 product amplitudes: 11 * 8, 21 * 8 and 4 * 8 on swap.
        swap = {path.stem: config for path, config in items
                if path.stem in self.UNITS[0]}
        assert [cli._batch_amplitudes(swap[name]) for name in self.UNITS[0]] == [88, 168, 32]

        def swap_units():
            units = [[path.stem for path, _ in unit] for unit in cli._work_units(items)]
            return [unit for unit in units if unit[0] in swap]

        monkeypatch.setattr(cli, "BATCH_AMPLITUDES", 88 + 168)
        assert swap_units() == [["a_swap_lie", "e_swap_strang"], ["h_swap_strang"]]
        monkeypatch.setattr(cli, "BATCH_AMPLITUDES", 88 + 168 - 1)
        assert swap_units() == [["a_swap_lie"], ["e_swap_strang", "h_swap_strang"]]


class TestVariationalRecord:
    """Each variational run JSON summarizes the gauge and the period-2 mode."""

    KEYS = {"max_log_norm_spread", "final_log_norm_spread", "max_period_two",
            "final_period_two", "period_two_rate"}

    def summary(self, tmp_path, capsys, **fields):
        code, _ = run_with(tmp_path, capsys, **fields)
        return code, json.loads((tmp_path / "out" / "run.json").read_text())["summary"]

    def test_summaries_match_the_written_rows(self, tmp_path, capsys):
        code, summary = self.summary(tmp_path, capsys, integrator="var_discretize_first",
                                     alpha=0.5, dt=0.1, t_final=3.0,
                                     initial_state=FIG1_STATE)
        assert code == cli.EXIT_BLOWUP
        columns = csv_columns(tmp_path / "out" / "run.csv")
        a = np.stack([columns[f"re_a1_{i}"] + 1j * columns[f"im_a1_{i}"] for i in range(2)], 1)
        b = np.stack([columns[f"re_a2_{i}"] + 1j * columns[f"im_a2_{i}"] for i in range(2)], 1)
        spread = np.abs(np.log(np.linalg.norm(a, axis=1) / np.linalg.norm(b, axis=1)))
        assert summary["max_log_norm_spread"] == pytest.approx(spread.max(), rel=1e-12)
        assert summary["final_log_norm_spread"] == pytest.approx(spread[-1], rel=1e-12)
        psi = np.stack([np.kron(x, y) for x, y in zip(a, b)])
        p = [np.linalg.norm(psi[n + 2] - 3 * psi[n + 1] + 3 * psi[n] - psi[n - 1]) / 8
             for n in range(1, len(psi) - 2)]
        assert summary["max_period_two"] == pytest.approx(max(p), rel=1e-12)
        assert summary["final_period_two"] == pytest.approx(p[-1], rel=1e-12)
        half = len(p) // 2
        times = 0.1 * np.arange(1, len(p) + 1)
        gamma = np.polyfit(times[half:], np.log(p[half:]), 1)[0]
        assert summary["period_two_rate"] == pytest.approx(gamma, rel=1e-9)
        # The blow-up is the parasitic mode growing.
        assert summary["period_two_rate"] > 0

    def test_too_few_rows_give_null(self, tmp_path, capsys):
        code, summary = self.summary(tmp_path, capsys, integrator="var_restrict_first",
                                     alpha=0.5, dt=0.1, t_final=0.2)
        assert code == cli.EXIT_OK
        assert summary["max_period_two"] is summary["final_period_two"] is None
        assert summary["period_two_rate"] is None
        assert summary["max_log_norm_spread"] >= summary["final_log_norm_spread"] >= 0

    def test_other_integrators_have_no_variational_keys(self, tmp_path, capsys):
        code, summary = self.summary(tmp_path, capsys, integrator="strang")
        assert code == cli.EXIT_OK
        assert not self.KEYS & set(summary)


def csv_columns(path) -> dict[str, np.ndarray]:
    header, *rows = read_rows(path)
    return dict(zip(header, np.array(rows, dtype=float).T))


def component_kets(columns, dims) -> list[np.ndarray]:
    """Per subsystem, the (T, d) normalised component kets of a component run."""
    kets = []
    for j, d in enumerate(dims):
        ket = np.stack([columns[f"re_a{j + 1}_{i}"] + 1j * columns[f"im_a{j + 1}_{i}"]
                        for i in range(d)], axis=1)
        kets.append(ket / np.linalg.norm(ket, axis=1, keepdims=True))
    return kets


class TestDiagnosticColumns:
    def run_columns(self, tmp_path, capsys, **fields):
        code, _ = run_with(tmp_path, capsys, **fields)
        assert code == cli.EXIT_OK
        return csv_columns(tmp_path / "out" / "run.csv")

    def test_qubit_bloch_columns_match_component_kets(self, tmp_path, capsys):
        columns = self.run_columns(tmp_path, capsys, integrator="strang", t_final=0.4,
                                   outputs=["bloch"])
        for j, a in enumerate(component_kets(columns, (2, 2)), start=1):
            rho01 = a[:, 0] * a[:, 1].conj()
            assert np.max(np.abs(columns[f"bloch_x{j}"] - 2 * rho01.real)) < 1e-12
            assert np.max(np.abs(columns[f"bloch_y{j}"] + 2 * rho01.imag)) < 1e-12
            z = np.abs(a[:, 0]) ** 2 - np.abs(a[:, 1]) ** 2
            assert np.max(np.abs(columns[f"bloch_z{j}"] - z)) < 1e-12

    def test_qutrit_columns_follow_gellmann_projection(self, tmp_path, capsys):
        state = [[0.6, 0.0, [0.0, 0.8]], [[0.5, 0.5], 0.5, -0.5], [0.0, 1.0, 0.0]]
        columns = self.run_columns(
            tmp_path, capsys, experiment="ladder", r_party=2, integrator="lie_trotter",
            t_final=0.2, initial_state=state, outputs=["bloch"],
            gellmann_projection=[7, 3, 0])
        for j, a in enumerate(component_kets(columns, (3, 3, 3)), start=1):
            rho = a[:, :, None] * a[:, None, :].conj()
            expected = {  # tr(rho G_i) for G_7 (lambda_8), G_3 (lambda_4), G_0 (lambda_1)
                "x": (rho[:, 0, 0] + rho[:, 1, 1] - 2 * rho[:, 2, 2]).real / np.sqrt(3),
                "y": 2 * rho[:, 0, 2].real,
                "z": 2 * rho[:, 0, 1].real,
            }
            for axis, values in expected.items():
                assert np.max(np.abs(columns[f"bloch_{axis}{j}"] - values)) < 1e-12

    def test_reduced_densities_formed_once_per_subsystem(self, tmp_path, capsys,
                                                         monkeypatch):
        formed = []
        reduced_density_series = analysis.reduced_density_series

        def counting(traj, k):
            formed.append(k)
            return reduced_density_series(traj, k)

        monkeypatch.setattr(analysis, "reduced_density_series", counting)
        columns = self.run_columns(
            tmp_path, capsys, experiment="ladder", r_party=2, integrator="lie_trotter",
            t_final=0.2, initial_state=THREE_QUTRITS, outputs=["bloch", "purity"])
        assert formed == [0, 1, 2]
        assert [name for name in columns if name.startswith("purity")] == [
            "purity1", "purity2", "purity3"]

    def test_se_exact_overlap_is_one(self, tmp_path, capsys):
        columns = self.run_columns(tmp_path, capsys, t_final=1.0,
                                   outputs=["abs_overlap", "bloch"])
        assert np.max(np.abs(columns["abs_overlap"] - 1.0)) < 1e-12

    def test_se_exact_overlap_decomposes_h_once(self, tmp_path, capsys, monkeypatch):
        eigh = np.linalg.eigh
        sides = []

        def counting(matrix):
            sides.append(matrix.shape[0])
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        self.run_columns(tmp_path, capsys, outputs=["abs_overlap"])
        assert sides == [4]


class TestAnswerRecord:
    """The summary records the smallest overlap and the largest linear entropy."""

    KEYS = {"min_abs_overlap", "min_abs_overlap_time", "max_linear_entropy"}

    def run_summary(self, tmp_path, capsys, **fields):
        code, _ = run_with(tmp_path, capsys, **fields)
        assert code == cli.EXIT_OK
        out = tmp_path / "out"
        return json.loads((out / "run.json").read_text())["summary"], csv_columns(out / "run.csv")

    def test_swap_from_a_product_basis_state_reaches_half(self, tmp_path, capsys):
        # From |0>|1>, each qubit's linear entropy is sin^2(2t) / 2.
        summary, columns = self.run_summary(
            tmp_path, capsys, dt=0.01, t_final=1.0, initial_state=[[1, 0], [0, 1]],
            outputs=["abs_overlap", "purity"])
        assert abs(summary["max_linear_entropy"] - 0.5) < 1e-4
        assert summary["max_linear_entropy"] == 1 - min(columns["purity1"].min(),
                                                        columns["purity2"].min())
        expected = np.sin(2 * columns["t"]) ** 2 / 2
        assert np.max(np.abs(1 - columns["purity1"] - expected)) < 1e-12
        assert abs(summary["min_abs_overlap"] - 1) < 1e-12

    def test_restricted_run_stays_a_product_state(self, tmp_path, capsys):
        summary, columns = self.run_summary(
            tmp_path, capsys, integrator="lie_trotter", dt=0.01, t_final=1.0,
            outputs=["abs_overlap", "purity"])
        assert summary["max_linear_entropy"] <= 1e-12
        lowest = int(np.argmin(columns["abs_overlap"]))
        assert summary["min_abs_overlap"] == columns["abs_overlap"][lowest] < 1
        assert summary["min_abs_overlap_time"] == columns["t"][lowest]

    def test_keys_only_with_their_columns(self, tmp_path, capsys):
        summary, _ = self.run_summary(tmp_path, capsys, outputs=["norm", "bloch"])
        assert not self.KEYS & set(summary)
