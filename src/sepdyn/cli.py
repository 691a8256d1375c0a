"""Experiment runner: named systems, JSON configs, CSV/JSON trajectory export.

A run picks one of three experiment Hamiltonians (two-qubit exchange,
seeded random five-qubit, three-qutrit correlator) and one integrator, then
writes the trajectory as CSV plus a diagnostics JSON. Runs are byte-for-byte
reproducible for a fixed config, including the random seed.

``sepdyn run`` loads and validates each config once, before any run (a
single file is a directory of one), parsing the initial state into the
``ComponentState`` the run starts from; the output-prefix clash check and
the runs share those configs, and one that fails to load, or whose output
directory cannot be made, exits 2 while the others still run.

Configs of one invocation run as one batch (several, past
``BATCH_AMPLITUDES`` amplitudes) when they share the experiment and its
Hamiltonian (``seed``/``r_party``), and either are all splitting configs,
of either scheme and any ``dt`` (``propagators.evolve_rows``), or are
variational configs that also share integrator, ``alpha`` and ``dt``
(``variational.integrate_separable_rows``, into one buffer allocated up
front). A batch's rows are integrated together, each with its own initial
state and step count, on the turn of the first of its configs. Every
config still writes its CSV, JSON, exit code and output lines on its own
turn, in config order, exactly as when run alone; its ``wall=`` is the
time of its own turn, so the first config of a batch carries the batch's
integration. ``--jobs`` hands each batch, and each other config, to a
worker as one work unit, and starts at most one worker per unit and CPU.

The CSV holds every value as ``format(v, ".17g")``, byte for byte; a numpy
kernel (``write_csv``) produces that text in blocks of rows, and formats
with ``%.17g`` itself only the cells its error certificate does not cover.

Exit codes: 0 success, 2 config validation error, 3 solver failure (any
``SolverFailure``), 4 variational blow-up (partial output retained); a
directory exits with the largest code of its configs.

``variational``, ``bea`` and ``concurrent.futures`` are imported on the
paths that use them, so that a process that validates configs or runs
only splitting and exact configs does not load them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__, analysis
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
    evolve_rows,
    se_evolve,
)
from .states import ComponentState, Ket, SolverFailure, tensor_product

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
# A variational batch allocates (steps + 1) * sum(dims) amplitudes a config,
# plus 16 bytes a point of Newton records, and keeps them until its last config
# is written. Each Newton iteration adds, per running row, one residual call on
# a stack of 2 * sum(dims) + 1 points (the iterate and the bumped points of its
# forward-difference Jacobian) as product states, prod(dims) amplitudes each,
# and the residual's temporaries on them: at most NEWTON_COPIES arrays of
# 2 * sum(dims) such states in all (tracemalloc reads 8.9-9.3 on random5 and
# ladder). A splitting batch keeps each config's trajectory, (steps + 1) rows
# of sum(dims) components and of their prod(dims) product state. A batch
# counts these, at most BATCH_AMPLITUDES (160 MB) over its configs, or one
# config's if more.
BATCH_AMPLITUDES = 10**7
NEWTON_COPIES = 10
# write_csv formats whole rows of at most about this many cells at a time.
CSV_BLOCK_CELLS = 2**15


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
            from . import bea

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


def _variational_rows(configs: list[ExperimentConfig], H: HermitianOperator) -> list:
    """Variational configs of one ``_batch_key``, integrated as one batch of rows.

    Returns each config's outcome from ``variational.integrate_separable_rows``.
    """
    from . import variational

    first = configs[0]
    return variational.integrate_separable_rows(
        first.integrator.removeprefix("var_"), H, float(first.alpha), first.dt,
        [config.steps() for config in configs],
        [config.initial_components for config in configs], blowup_factor=BLOWUP_FACTOR)


def _newton_result(outcome, dims) -> RunResult:
    """The RunResult of a variational row; raises the error its start failed with."""
    from . import variational

    if isinstance(outcome, variational.NewtonConvergenceError):
        raise outcome
    blowup = None
    if isinstance(outcome, variational.BlowupError):
        blowup = {
            "message": str(outcome),
            "steps_completed": int(outcome.partial.points.shape[0] - 1),
            "time_reached": float(outcome.partial.times[-1]),
        }
        outcome = outcome.partial
    traj = Trajectory.from_components(outcome.dt, outcome.points, dims)
    iterations = outcome.newton_iterations
    stats = {
        "kind": "newton",
        "tolerance": variational.NEWTON_TOL,
        "newton_solves": int(iterations.size),
        "newton_iterations": int(iterations.sum()),
        "max_newton_iterations": int(iterations.max()),
        "max_final_newton_residual": float(outcome.newton_residuals.max()),
    }
    return RunResult(traj, stats, blowup)


def _is_splitting(config: ExperimentConfig) -> bool:
    return config.integrator in ("lie_trotter", "strang")


def _splitting_rows(configs: list[ExperimentConfig], H: HermitianOperator) -> list:
    """Splitting configs of one ``_batch_key``, integrated as one batch of rows.

    Returns each config's outcome from ``propagators.evolve_rows``.
    """
    return evolve_rows(H, [SplittingScheme(config.integrator) for config in configs],
                       [config.initial_components for config in configs],
                       [config.dt for config in configs],
                       [config.steps() for config in configs])


def _batch_key(config: ExperimentConfig | ConfigError) -> tuple | None:
    """Configs with one key run as one batch; None for a config that runs alone.

    The key holds what a batch shares: the Hamiltonian (what
    ``build_hamiltonian`` reads), and for variational configs also the
    ordering, alpha and dt. alpha enters by its bits, since 0.0 and -0.0
    compare equal. Splitting configs of either scheme and any dt share a
    batch.
    """
    if isinstance(config, ConfigError):
        return None
    seed = config.seed if config.experiment == "random5" else None
    r_party = config.r_party if config.experiment == "ladder" else None
    if _is_splitting(config):
        return (config.experiment, seed, r_party, "splitting")
    if not config.integrator.startswith("var_"):
        return None
    return (config.experiment, seed, r_party, config.integrator,
            float(config.alpha).hex(), config.dt)


class _Batch:
    """Configs of one ``_batch_key``, integrated together when the first one runs.

    Each config then takes its own row's outcome, so it writes what it would
    write run alone; a row becomes a RunResult only on its config's turn.
    """

    def __init__(self, configs: list[ExperimentConfig]):
        self.configs = configs
        self.H: HermitianOperator | None = None
        self.outcomes: dict[int, object] | None = None

    def result(self, config: ExperimentConfig) -> tuple[HermitianOperator, RunResult]:
        """H and ``config``'s RunResult; raises the error its row ended with."""
        if self.outcomes is None:
            self.H = build_hamiltonian(self.configs[0])
            integrate = _splitting_rows if _is_splitting(config) else _variational_rows
            self.outcomes = dict(zip(map(id, self.configs), integrate(self.configs, self.H)))
        outcome = self.outcomes.pop(id(config))
        if not _is_splitting(config):
            return self.H, _newton_result(outcome, config.initial_components.dims)
        if isinstance(outcome, NonFiniteStateError):
            raise outcome
        return self.H, RunResult(outcome, {"kind": "splitting"})


def _bea_run(config, state0) -> RunResult:
    from . import bea

    rhs = bea.ModifiedRHS(SplittingScheme(config.bea_scheme), config.bea_order, config.dt)
    sol = bea.rk_integrate(rhs, np.concatenate(state0.vectors()), config.dt, config.steps())
    traj = Trajectory.from_components(config.dt, sol.y_eval, state0.dims)
    stats = {"kind": "runge_kutta", "steps": sol.steps, "rejected": sol.rejected,
             "rhs_evals": sol.rhs_evals, "min_step": sol.min_step, "max_step": sol.max_step}
    return RunResult(traj, stats)


def execute(config: ExperimentConfig, H: HermitianOperator) -> RunResult:
    state0 = config.initial_components
    steps = config.steps()
    if config.integrator == "se_exact":
        traj = se_evolve(H, tensor_product(state0), config.dt, steps)
        return RunResult(traj, {"kind": "eigendecomposition"})
    if _is_splitting(config):
        traj = evolve(SplittingScheme(config.integrator), H, state0, config.dt, steps)
        return RunResult(traj, {"kind": "splitting"})
    if config.integrator == "bea_truncation":
        return _bea_run(config, state0)
    (outcome,) = _variational_rows([config], H)
    return _newton_result(outcome, state0.dims)


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

    Component runs write the stacked components, others the full state. The
    file is byte for byte a header line, then per row every value as
    ``format(v, ".17g")`` (which round-trips a double) joined by ``,`` and
    ended by ``\\n``. Whole rows of at most ``CSV_BLOCK_CELLS`` cells (or
    one row) at a time go through the numpy kernel of ``sepdyn._csvtext``. It
    certifies a cell's 17 digits when the computed remainder of
    |v| * 10^(16 - X), whose error is at most 4.3e-15, lies farther than
    1e-14 from a half-integer and the digits do not round to a power of ten.
    Every other cell, and every zero, non-finite value or |v| outside
    [1e-280, 1e280), is formatted by ``%.17g`` itself.
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
    block_rows = max(1, CSV_BLOCK_CELLS // len(headers))
    # Imported here, not with the module, so that a process that never writes a
    # CSV (setup, validation) does not compile the kernel.
    from ._csvtext import csv_rows

    with path.open("wb") as handle:
        handle.write((",".join(headers) + "\n").encode())
        for start in range(0, traj.times.size, block_rows):
            stop = min(start + block_rows, traj.times.size)
            block = np.empty((stop - start, len(headers)))
            block[:, 0] = traj.times[start:stop]
            block[:, 1 : 1 + width : 2] = states[start:stop].real
            block[:, 2 : 2 + width : 2] = states[start:stop].imag
            for offset, values in enumerate(columns.values(), start=1 + width):
                block[:, offset] = values[start:stop]
            handle.write(csv_rows(block))


def _conservation_summary(config: ExperimentConfig, result: RunResult,
                          columns: dict[str, np.ndarray]) -> dict:
    """The run JSON's summary: drifts, extremes of the diagnostic ``columns``, gauge.

    With ``abs_overlap``: its minimum and the first time it is reached. With
    ``purity``: the largest linear entropy 1 - tr rho^2 over subsystems and rows.
    """
    traj = result.trajectory
    norms = traj.norm
    summary = {
        "max_abs_norm_drift": float(np.max(np.abs(norms - norms[0]))),
        "final_norm": float(norms[-1]),
    }
    if "abs_overlap" in columns:
        lowest = int(np.argmin(columns["abs_overlap"]))
        summary["min_abs_overlap"] = float(columns["abs_overlap"][lowest])
        summary["min_abs_overlap_time"] = float(traj.times[lowest])
    if "purity" in config.outputs:
        lowest_purity = min(columns[f"purity{j + 1}"].min() for j in range(len(traj.dims)))
        summary["max_linear_entropy"] = float(1.0 - lowest_purity)
    if config.experiment == "swap" and traj.components is not None:
        qs = np.einsum("ti,ti->t", traj.components[:, :2].conj(), traj.components[:, 2:])
        summary["max_abs_q_drift"] = float(np.max(np.abs(qs - qs[0])))
    if config.integrator.startswith("var_"):
        summary.update(_variational_summary(traj))
    return summary


def _variational_summary(traj: Trajectory) -> dict:
    """The gauge and the parasitic mode of a variational run, at their largest and at the end.

    The spread of log||a_k|| across components measures the gauge; p_n of
    ``analysis.period_two_amplitude`` on product states, and its fitted
    rate over the run's second half, measure the period-2 mode. Values that
    need more rows than the run has are None.
    """
    # A component of norm 0 or an overflowing stencil is reported, not warned about.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        spread = analysis.log_norm_spread(traj)
        amplitude = analysis.period_two_amplitude(traj.full)
        rate = analysis.period_two_rate(traj.dt, amplitude)
    return {
        "max_log_norm_spread": float(spread.max()),
        "final_log_norm_spread": float(spread[-1]),
        "max_period_two": float(amplitude.max()) if amplitude.size else None,
        "final_period_two": float(amplitude[-1]) if amplitude.size else None,
        "period_two_rate": rate,
    }


def run(config: ExperimentConfig, batch: _Batch | None = None) -> int:
    """Execute one configured run; returns the process exit code.

    A config of a ``batch`` takes its integration from there.
    """
    start = time.perf_counter()
    out_prefix = Path(config.out_path)
    try:
        out_prefix.parent.mkdir(parents=True, exist_ok=True)
    except OSError as err:  # a component of the path is an existing file
        print(f"config error: cannot make the directory of out_path: {err}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if batch is None:
            H = build_hamiltonian(config)
            result = execute(config, H)
        else:
            H, result = batch.result(config)
    except SolverFailure as err:
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
        "summary": _conservation_summary(config, result, columns),
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


def _run_file(path: Path, config: ExperimentConfig | ConfigError,
              batch: _Batch | None = None) -> int:
    """Run one loaded config, or report the error it failed to load with."""
    if isinstance(config, ConfigError):
        print(f"config error in {path}: {config}", file=sys.stderr)
        return EXIT_CONFIG
    return run(config, batch)


def _batch_amplitudes(config: ExperimentConfig) -> int:
    """Amplitudes a config takes in a batch: its stored points, and then
    ``NEWTON_COPIES`` arrays of its row's bumped product states (variational)
    or its trajectory's product states (splitting)."""
    dims = EXPERIMENT_DIMS[config.experiment]
    rows = config.steps() + 1
    if _is_splitting(config):
        return rows * (sum(dims) + math.prod(dims))
    return rows * sum(dims) + NEWTON_COPIES * 2 * sum(dims) * math.prod(dims)


def _work_units(items: list[tuple[Path, ExperimentConfig | ConfigError]]) -> list[list]:
    """The (path, config) items grouped by ``_batch_key``; every other item alone.

    A group whose ``_batch_amplitudes`` would pass ``BATCH_AMPLITUDES``
    continues in a new unit. Units keep config order inside and come in the
    order of their first item.
    """
    units, open_units = [], {}
    for item in items:
        config = item[1]
        key = _batch_key(config)
        if key is None:
            units.append([item])
            continue
        size = _batch_amplitudes(config)
        unit, counted = open_units.get(key, (None, 0))
        if unit is None or counted + size > BATCH_AMPLITUDES:
            unit, counted = [], 0
            units.append(unit)
        unit.append(item)
        open_units[key] = (unit, counted + size)
    return units


def _run_files(items: list[tuple[Path, ExperimentConfig | ConfigError]]) -> list[int]:
    """Run (path, config) items in order; returns their exit codes.

    The configs of one work unit of several items run as one ``_Batch``,
    integrated on the turn of the first of them.
    """
    batches = {}
    for unit in _work_units(items):
        if len(unit) > 1:
            batch = _Batch([config for _, config in unit])
            batches.update((id(config), batch) for _, config in unit)
    return [_run_file(path, config, batches.get(id(config))) for path, config in items]


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

    if args.jobs < 1:
        print(f"--jobs must be at least 1, got {args.jobs}", file=sys.stderr)
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
    items = list(zip(files, loaded))
    units = _work_units(items)
    # The pool starts every worker at once, so never more than can be busy.
    workers = min(args.jobs, len(units), os.cpu_count() or 1)
    if workers > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            codes = [code for unit in pool.map(_run_files, units) for code in unit]
    else:
        codes = _run_files(items)
    return max(codes)


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
