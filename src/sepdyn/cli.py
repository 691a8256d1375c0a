"""Experiment runner: named systems, JSON configs, CSV/JSON trajectory export.

A run picks one of three experiment Hamiltonians (two-qubit exchange,
seeded random five-qubit, three-qutrit correlator) and one integrator, then
writes the trajectory as CSV plus a diagnostics JSON. Runs are byte-for-byte
reproducible for a fixed config, including the random seed.

``sepdyn run`` loads and validates each config once, before any run (a
single file is a directory of one), parsing the initial state into the
``ComponentState`` the run starts from; the output-prefix clash check and
the runs share those configs, and one that fails to load, or whose output
directory cannot be made, exits 2 while the others still run. ``--jobs``
starts at most one worker per config and CPU.

Exit codes: 0 success, 2 config validation error, 3 solver failure,
4 variational blow-up (partial output retained); a directory exits with the
largest code of its configs.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__, analysis, bea, variational
from .exact_swap import SwapInitialData
from .hamiltonians import (
    HermitianOperator,
    correlator_hamiltonian,
    random_hermitian,
    swap_hamiltonian,
)
from .propagators import (
    HermitianPropagator,
    NonFiniteStateError,
    SplittingScheme,
    Trajectory,
    evolve,
    se_evolve,
)
from .states import ComponentState, Ket, tensor_product
from .reduced import DegenerateStateError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_BLOWUP = 4

EXPERIMENTS = ("swap", "random5", "ladder")
INTEGRATORS = (
    "se_exact",
    "lie_trotter",
    "strang",
    "var_restrict_first",
    "var_discretize_first",
    "bea_truncation",
)
OUTPUT_NAMES = ("norm", "abs_overlap", "rate_nucl", "bloch", "purity")
EXPERIMENT_DIMS = {"swap": (2, 2), "random5": (2,) * 5, "ladder": (3, 3, 3)}
BLOWUP_FACTOR = 2.0
MAX_STEPS = 10**6


class ConfigError(ValueError):
    """The run configuration is malformed or inconsistent."""


def _is_int(value) -> bool:
    """A JSON integer: bools are ints in Python but not in a config."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A JSON number that is not a bool and is finite as a double."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the double range
        return False


@dataclass
class ExperimentConfig:
    experiment: str
    integrator: str
    dt: float
    t_final: float
    initial_state: list
    out_path: str
    outputs: list = field(default_factory=lambda: ["norm"])
    alpha: float | None = None
    seed: int | None = None
    r_party: int | None = None
    bea_order: int | None = None
    bea_scheme: str = "lie_trotter"
    gellmann_projection: list = field(default_factory=lambda: [0, 1, 2])

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"experiment", "integrator", "dt", "t_final", "initial_state",
                   "out_path"} - set(raw)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        config = cls(**raw)
        config.validate()
        return config

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment '{self.experiment}'")
        if self.integrator not in INTEGRATORS:
            raise ConfigError(f"unknown integrator '{self.integrator}'")
        if not compatible(self.experiment, self.integrator):
            raise ConfigError(
                f"integrator '{self.integrator}' is not available for "
                f"experiment '{self.experiment}'"
            )
        if not (_is_real(self.dt) and self.dt > 0):
            raise ConfigError("dt must be a positive number")
        if not (_is_real(self.t_final) and self.t_final > 0):
            raise ConfigError("t_final must be a positive number")
        # One type for every grid: an integer of 2**63 or more fits no C long.
        self.dt, self.t_final = float(self.dt), float(self.t_final)
        if self.t_final < self.dt:
            raise ConfigError("t_final must be at least dt")
        if not (math.isfinite(self.t_final / self.dt) and self.steps() <= MAX_STEPS):
            raise ConfigError(f"t_final / dt asks for more than {MAX_STEPS} steps")
        if not isinstance(self.out_path, str):
            raise ConfigError("out_path must be a string")
        if not Path(self.out_path).name:
            raise ConfigError("out_path must end in a file name")
        if self.integrator.startswith("var_"):
            if self.alpha is None:
                raise ConfigError("variational runs require 'alpha'")
            if not (_is_real(self.alpha) and 0.0 <= self.alpha <= 1.0):
                raise ConfigError("alpha must be a number in [0, 1]")
        if self.experiment == "random5":
            if self.seed is None:
                raise ConfigError("the random5 experiment requires 'seed'")
            if not (_is_int(self.seed) and self.seed >= 0):
                raise ConfigError("seed must be a non-negative integer")
        if self.experiment == "ladder":
            if not (_is_int(self.r_party) and self.r_party in (1, 2, 3)):
                raise ConfigError("the ladder experiment requires r_party in {1, 2, 3}")
        if self.integrator == "bea_truncation":
            if self.t_final / bea.RK_STEP_CAP > MAX_STEPS:
                raise ConfigError(
                    f"bea_truncation takes steps of at most {bea.RK_STEP_CAP:.3g}, so a "
                    f"t_final above {MAX_STEPS * bea.RK_STEP_CAP:.0f} asks for more than "
                    f"{MAX_STEPS} steps")
            if self.bea_scheme not in ("lie_trotter", "strang"):
                raise ConfigError("bea_scheme must be 'lie_trotter' or 'strang'")
            orders = bea.TROTTER_ORDERS if self.bea_scheme == "lie_trotter" else bea.STRANG_ORDERS
            if not (_is_int(self.bea_order) and self.bea_order in orders):
                raise ConfigError(f"bea_order must be one of {orders} for {self.bea_scheme}")
        if not isinstance(self.outputs, list):
            raise ConfigError(f"outputs must be a list drawn from {OUTPUT_NAMES}")
        for name in self.outputs:
            if name not in OUTPUT_NAMES:
                raise ConfigError(f"unknown output '{name}'; allowed: {OUTPUT_NAMES}")
        picks = self.gellmann_projection
        if not (isinstance(picks, list) and len(picks) == 3
                and all(_is_int(i) and 0 <= i < 8 for i in picks) and len(set(picks)) == 3):
            raise ConfigError("gellmann_projection must be three distinct integers in 0..7")
        self.initial_components  # parsed once here; the run reads the cached state
        if self.integrator == "bea_truncation":  # the modified series assume unit norms
            try:
                SwapInitialData(*self.initial_components.parts)
            except ValueError as err:
                raise ConfigError(f"bea_truncation needs unit-norm components: {err}") from None

    @cached_property
    def initial_components(self) -> ComponentState:
        """The one parse of ``initial_state``; not a field, so not in ``asdict``."""
        dims = EXPERIMENT_DIMS[self.experiment]
        if not isinstance(self.initial_state, list) or len(self.initial_state) != len(dims):
            raise ConfigError(
                f"initial_state must list {len(dims)} subsystem amplitude vectors"
            )
        kets = []
        norm2 = 1.0  # the product state's norm²
        for j, (raw_vec, d) in enumerate(zip(self.initial_state, dims)):
            if not isinstance(raw_vec, list) or len(raw_vec) != d:
                raise ConfigError(f"initial_state[{j}] must have {d} amplitudes")
            amps = []
            for entry in raw_vec:
                if _is_real(entry):
                    amps.append(complex(entry))
                elif isinstance(entry, list) and len(entry) == 2 and all(map(_is_real, entry)):
                    amps.append(complex(entry[0], entry[1]))
                else:
                    raise ConfigError(
                        "amplitudes must be finite numbers or [re, im] pairs"
                    )
            norm = math.hypot(*map(abs, amps))  # scaled, so it does not overflow
            if norm < 1e-12:
                raise ConfigError(f"initial_state[{j}] has zero norm")
            norm2 *= norm * norm
            kets.append(Ket(np.asarray(amps)))
        if not math.isfinite(norm2):  # every integrator would meet inf or NaN
            raise ConfigError("initial_state is too large: its product state's norm² "
                              "overflows a double")
        return ComponentState(tuple(kets))

    def steps(self) -> int:
        return int(np.floor(self.t_final / self.dt + 1e-9))


def compatible(experiment: str, integrator: str) -> bool:
    if integrator == "bea_truncation":
        return experiment == "swap"
    return True


def build_hamiltonian(config: ExperimentConfig) -> HermitianOperator:
    if config.experiment == "swap":
        return swap_hamiltonian(2)
    if config.experiment == "random5":
        return random_hermitian(5, config.seed)
    return correlator_hamiltonian(config.r_party)


@dataclass
class RunResult:
    trajectory: Trajectory
    solver_stats: dict
    blowup: dict | None = None


def _variational_run(config, H, state0) -> RunResult:
    integrators = {
        "var_restrict_first": variational.integrate_restrict_then_discretize,
        "var_discretize_first": variational.integrate_discretize_then_restrict,
    }
    run = integrators[config.integrator]
    blowup = None
    try:
        discrete = run(H, float(config.alpha), config.dt, config.steps(), state0,
                       blowup_factor=BLOWUP_FACTOR)
    except variational.BlowupError as err:
        discrete = err.partial
        blowup = {
            "message": str(err),
            "steps_completed": int(discrete.points.shape[0] - 1),
            "time_reached": float(discrete.times[-1]),
        }
    traj = Trajectory.from_components(discrete.dt, discrete.points, state0.dims)
    iterations = discrete.newton_iterations
    stats = {
        "kind": "newton",
        "tolerance": variational.NEWTON_TOL,
        "newton_solves": int(iterations.size),
        "newton_iterations": int(iterations.sum()),
        "max_newton_iterations": int(iterations.max()),
    }
    return RunResult(traj, stats, blowup)


def _bea_run(config, state0) -> RunResult:
    rhs = bea.ModifiedRHS(SplittingScheme(config.bea_scheme), config.bea_order, config.dt)
    sol = bea.rk_integrate(rhs, np.concatenate(state0.vectors()), config.dt, config.steps())
    traj = Trajectory.from_components(config.dt, sol.y_eval, state0.dims)
    stats = {"kind": "runge_kutta", "steps": sol.steps, "rejected": sol.rejected,
             "rhs_evals": sol.rhs_evals}
    return RunResult(traj, stats)


def execute(config: ExperimentConfig, H: HermitianOperator) -> RunResult:
    state0 = config.initial_components
    steps = config.steps()
    if config.integrator == "se_exact":
        traj = se_evolve(H, tensor_product(state0), config.dt, steps)
        return RunResult(traj, {"kind": "eigendecomposition"})
    if config.integrator in ("lie_trotter", "strang"):
        traj = evolve(SplittingScheme(config.integrator), H, state0, config.dt, steps)
        return RunResult(traj, {"kind": "splitting"})
    if config.integrator == "bea_truncation":
        return _bea_run(config, state0)
    return _variational_run(config, H, state0)


def _diagnostic_columns(config: ExperimentConfig, result: RunResult,
                        H: HermitianOperator) -> dict[str, np.ndarray]:
    traj = result.trajectory
    columns: dict[str, np.ndarray] = {}
    rhos = None
    for name in config.outputs:
        if name == "norm":
            columns["norm"] = traj.norm
        elif name == "abs_overlap":
            reference = HermitianPropagator(H).states_on_grid(traj.full[0], traj.times)
            columns["abs_overlap"] = np.abs(analysis.overlap_series(
                Trajectory(traj.dt, traj.dims, full=reference), traj))
        elif name == "rate_nucl":
            columns["rate_nucl"] = analysis.rate_of_change_nuclear(traj)
        elif name in ("purity", "bloch"):
            if rhos is None:  # each subsystem's reduced densities, formed once for both
                rhos = [analysis.reduced_density_series(traj, j)
                        for j in range(len(traj.dims))]
            for j, (d, rho) in enumerate(zip(traj.dims, rhos)):
                if name == "purity":
                    columns[f"purity{j + 1}"] = analysis.purity_series(rho)
                    continue
                # Qutrits keep the three configured Gell-Mann components.
                picks = (0, 1, 2) if d == 2 else config.gellmann_projection
                vectors = analysis.bloch_series(rho)
                for axis, idx in zip("xyz", picks):
                    columns[f"bloch_{axis}{j + 1}"] = vectors[:, idx]
    return columns


def write_csv(path: Path, result: RunResult, columns: dict[str, np.ndarray]):
    """Time, the real and imaginary part of every stored amplitude, then ``columns``.

    Component runs write the stacked components, others the full state. Every
    value is written as ``format(v, ".17g")``, which round-trips a double.
    """
    traj = result.trajectory
    if traj.components is not None:
        states = traj.components
        labels = [f"a{j + 1}_{i}" for j, d in enumerate(traj.dims) for i in range(d)]
    else:
        states = traj.full
        labels = [f"psi_{i}" for i in range(states.shape[1])]
    headers = ["t"] + [f"{part}_{label}" for label in labels for part in ("re", "im")]
    headers += list(columns)
    width = 2 * states.shape[1]
    table = np.empty((traj.times.size, len(headers)))
    table[:, 0] = traj.times
    table[:, 1 : 1 + width : 2] = states.real
    table[:, 2 : 2 + width : 2] = states.imag
    for offset, values in enumerate(columns.values(), start=1 + width):
        table[:, offset] = values
    row_format = ",".join(["%.17g"] * len(headers)) + "\n"
    with path.open("w", newline="") as handle:
        handle.write(",".join(headers) + "\n")
        handle.writelines(row_format % tuple(row) for row in table.tolist())


def _conservation_summary(config: ExperimentConfig, result: RunResult) -> dict:
    traj = result.trajectory
    norms = traj.norm
    summary = {
        "max_abs_norm_drift": float(np.max(np.abs(norms - norms[0]))),
        "final_norm": float(norms[-1]),
    }
    if config.experiment == "swap" and traj.components is not None:
        qs = np.einsum("ti,ti->t", traj.components[:, :2].conj(), traj.components[:, 2:])
        summary["max_abs_q_drift"] = float(np.max(np.abs(qs - qs[0])))
    return summary


def run(config: ExperimentConfig) -> int:
    """Execute one configured run; returns the process exit code."""
    start = time.perf_counter()
    out_prefix = Path(config.out_path)
    try:
        out_prefix.parent.mkdir(parents=True, exist_ok=True)
    except OSError as err:  # a component of the path is an existing file
        print(f"config error: cannot make the directory of out_path: {err}", file=sys.stderr)
        return EXIT_CONFIG
    H = build_hamiltonian(config)
    try:
        result = execute(config, H)
    except (variational.NewtonConvergenceError, bea.StepSizeUnderflowError,
            DegenerateStateError, NonFiniteStateError) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER
    # A state of finite norm² can still overflow a diagnostic of order norm⁴;
    # such a column is reported below, so numpy's warning would only repeat it.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            columns = _diagnostic_columns(config, result, H)
    except NonFiniteStateError as err:  # the abs_overlap reference grid
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER
    for name, values in columns.items():
        if not np.all(np.isfinite(values)):
            print(f"solver failure: diagnostic column '{name}' is not finite", file=sys.stderr)
            return EXIT_SOLVER

    # Appended, not with_suffix: a dotted stem such as "v0.02" is kept whole.
    csv_path = out_prefix.with_name(out_prefix.name + ".csv")
    json_path = out_prefix.with_name(out_prefix.name + ".json")
    write_csv(csv_path, result, columns)

    payload = {
        "config": asdict(config),
        "summary": _conservation_summary(config, result),
        "solver": result.solver_stats,
        "rows_written": int(result.trajectory.times.size),
    }
    if result.blowup is not None:
        payload["blowup"] = result.blowup
    with json_path.open("w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    elapsed = time.perf_counter() - start
    norms = result.trajectory.norm
    status = "blow-up" if result.blowup else "ok"
    print(
        f"{config.experiment}/{config.integrator}: {status}, "
        f"steps={result.trajectory.times.size - 1}, final_norm={norms[-1]:.6g}, "
        f"wall={elapsed:.2f}s -> {csv_path}"
    )
    return EXIT_BLOWUP if result.blowup else EXIT_OK


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply key=value overrides; keys may be dot paths, values JSON or text."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not of the form key=value")
        key, text = item.split("=", 1)
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        target = raw
        *path, leaf = key.split(".")
        for part in path:
            if isinstance(target, list):
                target = target[_list_index(target, part, key)]
            elif isinstance(target, dict):
                target = target.setdefault(part, {})
            else:
                raise ConfigError(f"override '{key}': '{part}' is not inside an object or list")
        if isinstance(target, list):
            target[_list_index(target, leaf, key)] = value
        elif isinstance(target, dict):
            target[leaf] = value
        else:
            raise ConfigError(f"override '{key}': '{leaf}' is not inside an object or list")
    return raw


def _list_index(items: list, part: str, key: str) -> int:
    """``part`` of an override path as a valid index into ``items``."""
    try:
        index = int(part)
    except ValueError:
        raise ConfigError(f"override '{key}': '{part}' is not a list index") from None
    if not -len(items) <= index < len(items):
        raise ConfigError(
            f"override '{key}': index {index} is out of range for a list of {len(items)}"
        )
    return index


def load_config(path: Path, overrides: list[str]) -> ExperimentConfig:
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    raw = apply_overrides(raw, overrides)
    return ExperimentConfig.from_dict(raw)


def _load_or_error(path: Path, overrides: list[str]) -> ExperimentConfig | ConfigError:
    """The loaded config, or the error its run reports."""
    try:
        return load_config(path, overrides)
    except ConfigError as err:
        return err


def _output_clash(files: list[Path],
                  loaded: list[ExperimentConfig | ConfigError]) -> str | None:
    """A message naming two configs that write one output prefix, or an output over a config.

    Configs that failed to load are checked only as files; their own run reports them.
    """
    inputs = {path.resolve(): path for path in files}
    owners: dict[Path, Path] = {}
    for path, config in zip(files, loaded):
        if isinstance(config, ConfigError):
            continue
        out = Path(config.out_path)
        prefix = out.resolve()
        if prefix in owners:
            return f"{owners[prefix]} and {path} both write to {prefix}"
        owners[prefix] = path
        for suffix in (".csv", ".json"):
            output = out.with_name(out.name + suffix).resolve()
            if output in inputs:
                return f"{path} would write its output over the config {inputs[output]}"
    return None


def _run_file(path: Path, config: ExperimentConfig | ConfigError) -> int:
    """Run one loaded config, or report the error it failed to load with."""
    if isinstance(config, ConfigError):
        print(f"config error in {path}: {config}", file=sys.stderr)
        return EXIT_CONFIG
    return run(config)


def list_experiments(as_json: bool) -> str:
    required = {
        "swap": ["initial_state (2 qubits)"],
        "random5": ["initial_state (5 qubits)", "seed"],
        "ladder": ["initial_state (3 qutrits)", "r_party"],
    }
    integrator_fields = {
        "var_restrict_first": ["alpha"],
        "var_discretize_first": ["alpha"],
        "bea_truncation": ["bea_order", "bea_scheme (optional)"],
    }
    if as_json:
        data = {
            "experiments": list(EXPERIMENTS),
            "integrators": list(INTEGRATORS),
            "compatibility": {
                exp: [integ for integ in INTEGRATORS if compatible(exp, integ)]
                for exp in EXPERIMENTS
            },
            "required_fields": {
                "common": ["experiment", "integrator", "dt", "t_final",
                           "initial_state", "out_path"],
                "per_experiment": required,
                "per_integrator": integrator_fields,
            },
        }
        return json.dumps(data, indent=2, sort_keys=True)
    width = max(len(e) for e in EXPERIMENTS) + 2
    lines = ["experiment x integrator compatibility:", ""]
    header = " " * width + "  ".join(f"{i:<20}" for i in INTEGRATORS)
    lines.append(header.rstrip())
    for exp in EXPERIMENTS:
        marks = ["yes" if compatible(exp, integ) else "no" for integ in INTEGRATORS]
        lines.append(f"{exp:<{width}}" + "  ".join(f"{m:<20}" for m in marks))
    lines.append("")
    lines.append("required fields: experiment, integrator, dt, t_final, "
                 "initial_state, out_path")
    for exp, extras in required.items():
        lines.append(f"  {exp}: {', '.join(extras)}")
    for integ, extras in integrator_fields.items():
        lines.append(f"  {integ}: {', '.join(extras)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sepdyn",
        description="Run restricted/unrestricted quantum dynamics experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    run_parser = sub.add_parser("run", help="execute a config file or directory")
    run_parser.add_argument("--config", required=True,
                            help="JSON config file, or a directory of configs")
    run_parser.add_argument("--override", action="append", default=[],
                            metavar="KEY=VALUE",
                            help="dot-path config override, value parsed as JSON")
    run_parser.add_argument("--jobs", type=int, default=1,
                            help="worker processes for a config directory")

    list_parser = sub.add_parser("list", help="show experiments and integrators")
    list_parser.add_argument("--json", action="store_true",
                             help="machine-readable listing")

    args = parser.parse_args(argv)
    if args.command == "list":
        print(list_experiments(args.json))
        return EXIT_OK
    if args.command != "run":
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG

    config_path = Path(args.config)
    files = sorted(config_path.glob("*.json")) if config_path.is_dir() else [config_path]
    if not files:
        print(f"no .json configs in {config_path}", file=sys.stderr)
        return EXIT_CONFIG
    loaded = [_load_or_error(path, args.override) for path in files]
    clash = _output_clash(files, loaded)
    if clash is not None:
        print(f"config error: {clash}", file=sys.stderr)
        return EXIT_CONFIG
    # The pool starts every worker at once, so never more than can be busy.
    workers = min(args.jobs, len(files), os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            codes = list(pool.map(_run_file, files, loaded))
    else:
        codes = [_run_file(path, config) for path, config in zip(files, loaded)]
    return max(codes)


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
