"""Experiment runner: named systems, JSON configs, CSV/JSON trajectory export.

A run picks an experiment of ``SYSTEMS`` (two-qubit exchange, seeded random
five-qubit, three-qutrit correlator) and an integrator of ``INTEGRATORS``,
then writes the trajectory as CSV plus a diagnostics JSON. Runs are
byte-for-byte reproducible for a fixed config, including the random seed.

``sepdyn run`` loads and validates each config once, before any run (a
single file is a directory of one), parsing the initial state into the
``ComponentState`` the run starts from; the output-prefix clash check and
the runs share those configs, and one that fails to load, or whose outputs
cannot be written, exits 2 while the others still run.

Every config runs in a work unit (``_Batch``), and every unit takes one
path: one ``_integrate`` call on the turn of its first config returns an
outcome per config, and ``_run_result`` turns each outcome into the
config's ``RunResult`` on its own turn. Configs of one invocation share a
unit (several, past ``BATCH_AMPLITUDES`` stored amplitudes) when they share
the experiment and its Hamiltonian (the values of its ``SYSTEMS`` keys), and
either are all splitting configs, of any scheme and ``dt``
(``propagators.evolve``), or are variational configs that also share
integrator, ``alpha`` and ``dt`` (``variational.integrate_separable_rows``,
into one buffer allocated up front); each is a row, with its own initial
state and step count. An ``se_exact`` or ``bea_truncation`` config is a
unit of one, integrated by ``execute``. Every config still writes its CSV,
JSON, exit code and output lines on its own turn, in config order, exactly
as when run alone; its ``wall=`` is the time of its own turn, so the first
config of a unit carries the unit's integration. ``--jobs`` hands each unit
to a worker, and starts at most one worker per unit and CPU.

The CSV holds every value as ``format(v, ".17g")``, byte for byte; a numpy
kernel (``write_csv``) produces that text in blocks of rows, and formats
with ``%.17g`` itself only the cells its error certificate does not cover.

A run's memory is its stored states and columns, plus a row block: the
exact-flow grid, every diagnostic and the CSV text each pass over the
(T, D) rows in ``propagators.row_blocks`` of at most
``propagators.BLOCK_CELLS`` cells, and the reduced densities are held one
subsystem at a time. An ``se_exact`` run is its own ``abs_overlap``
reference; every other integrator is compared with the exact flow from its
first state.

A variational run's JSON ``solver`` block counts its Newton solves (one a
step), their iterations in total and at most, and gives the largest final
residual, ``max_final_newton_residual``. A solve that stopped on the
contraction estimate (``variational._newton_rows``: restrict-first steps
and every start) records that estimate as its final residual, and
``solves_stopped_on_estimate`` counts those solves.

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
from typing import Callable, NamedTuple

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
    SplittingScheme,
    Trajectory,
    evolve,
    row_blocks,
    se_evolve,
)
from .states import ComponentState, FullState, Ket, SolverFailure, tensor_product

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_BLOWUP = 4

# An experiment's subsystem dims, the config keys selecting its Hamiltonian, and its constructor.
System = NamedTuple("System", [("dims", tuple), ("keys", tuple), ("hamiltonian", Callable)])
SYSTEMS = {
    "swap": System((2, 2), (), lambda: swap_hamiltonian(2)),
    "random5": System((2,) * 5, ("seed",), lambda seed: random_hermitian(5, seed)),
    "ladder": System((3, 3, 3), ("r_party",), correlator_hamiltonian),
}
EXPERIMENTS = tuple(SYSTEMS)
SPLITTING = tuple(scheme.value for scheme in SplittingScheme)
# Each variational integrator and the ``variational.ORDERINGS`` entry it runs.
VARIATIONAL = {"var_restrict_first": "restrict_first", "var_discretize_first": "discretize_first"}
INTEGRATORS = ("se_exact", *SPLITTING, *VARIATIONAL, "bea_truncation")
REQUIRED_KEYS = ("experiment", "integrator", "dt", "t_final", "initial_state", "out_path")
OUTPUT_NAMES = ("norm", "abs_overlap", "rate_nucl", "bloch", "purity")
BLOWUP_FACTOR = 2.0
MAX_STEPS = 10**6
# A batch stores each config's points, (steps + 1) rows of sum(dims)
# components (a variational row adds 17 bytes a point of Newton records), and
# keeps them until its last config is written; a row's product states are
# formed on its config's turn. A batch counts the stored amplitudes, at most
# BATCH_AMPLITUDES (160 MB) over its configs, or one config's if more. Newton
# and the momenta bound their own working set by propagators.BLOCK_CELLS.
BATCH_AMPLITUDES = 10**7


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
        missing = set(REQUIRED_KEYS) - set(raw)
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
        if Path(self.out_path).name in ("", ".."):
            raise ConfigError("out_path must end in a file name")
        # A key is checked wherever it is present, by the rule of the run that
        # reads it: a run that does not read it still records it.
        if self.integrator in VARIATIONAL and self.alpha is None:
            raise ConfigError("variational runs require 'alpha'")
        if self.alpha is not None and not (_is_real(self.alpha) and 0.0 <= self.alpha <= 1.0):
            raise ConfigError("alpha must be a number in [0, 1]")
        if self.experiment == "random5" and self.seed is None:
            raise ConfigError("the random5 experiment requires 'seed'")
        if self.seed is not None and not (_is_int(self.seed) and self.seed >= 0):
            raise ConfigError("seed must be a non-negative integer")
        if self.experiment == "ladder" and self.r_party is None:
            raise ConfigError("the ladder experiment requires 'r_party'")
        if self.r_party is not None and not (_is_int(self.r_party) and self.r_party in (1, 2, 3)):
            raise ConfigError("r_party must be 1, 2 or 3")
        if self.bea_scheme not in SPLITTING:
            raise ConfigError("bea_scheme must be " + " or ".join(map(repr, SPLITTING)))
        if self.integrator == "bea_truncation" and self.bea_order is None:
            raise ConfigError("bea_truncation runs require 'bea_order'")
        if self.bea_order is not None:
            from . import bea

            orders = bea.SERIES[SplittingScheme(self.bea_scheme)][0]
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
        dims = SYSTEMS[self.experiment].dims
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


def _hamiltonian_args(config: ExperimentConfig) -> tuple:
    """The values of the config keys that select ``config``'s Hamiltonian."""
    return tuple(getattr(config, key) for key in SYSTEMS[config.experiment].keys)


def build_hamiltonian(config: ExperimentConfig) -> HermitianOperator:
    return SYSTEMS[config.experiment].hamiltonian(*_hamiltonian_args(config))


@dataclass
class RunResult:
    trajectory: Trajectory
    solver_stats: dict
    blowup: dict | None = None


def _integrate(configs: list[ExperimentConfig], H: HermitianOperator) -> list:
    """One outcome per config of a work unit, all integrated in one call.

    A splitting unit's rows come from ``propagators.evolve``, a variational
    unit's from ``variational.integrate_separable_rows``; a unit of one
    ``se_exact`` or ``bea_truncation`` config is ``[execute(config, H)]``.
    """
    first = configs[0]
    if first.integrator in SPLITTING:
        return evolve(H, [SplittingScheme(config.integrator) for config in configs],
                      [config.initial_components for config in configs],
                      [config.dt for config in configs],
                      [config.steps() for config in configs])
    if first.integrator not in VARIATIONAL:
        return [execute(first, H)]
    from . import variational

    return variational.integrate_separable_rows(
        VARIATIONAL[first.integrator], H, float(first.alpha), first.dt,
        [config.steps() for config in configs],
        [config.initial_components for config in configs], blowup_factor=BLOWUP_FACTOR)


def _run_result(config: ExperimentConfig, outcome) -> RunResult:
    """``config``'s RunResult from its ``_integrate`` outcome; raises an outcome
    that is a ``SolverFailure``.

    Splitting components become a trajectory; a variational row, finished
    or ended by a blow-up, also records its Newton stats and the blow-up.
    """
    if isinstance(outcome, RunResult):
        return outcome
    if isinstance(outcome, SolverFailure):
        raise outcome
    dims = config.initial_components.dims
    if isinstance(outcome, np.ndarray):
        return RunResult(Trajectory.from_components(config.dt, outcome, dims),
                         {"kind": "splitting"})
    from . import variational

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
        "solves_stopped_on_estimate": int(outcome.newton_estimated.sum()),
    }
    return RunResult(traj, stats, blowup)


def _batch_key(config: ExperimentConfig | ConfigError) -> tuple | None:
    """Configs with one key run as one batch; None for a config that runs alone.

    The key holds what a batch shares: the Hamiltonian (what
    ``build_hamiltonian`` reads), and for variational configs also the
    ordering, alpha and dt. alpha enters by its bits, since 0.0 and -0.0
    compare equal. Splitting configs of every scheme and any dt share a
    batch.
    """
    if isinstance(config, ConfigError):
        return None
    system = (config.experiment, _hamiltonian_args(config))
    if config.integrator in SPLITTING:
        return (*system, "splitting")
    if config.integrator not in VARIATIONAL:
        return None
    return (*system, config.integrator, float(config.alpha).hex(), config.dt)


class _Batch:
    """The configs of one work unit, integrated together when the first one runs.

    The first ``result`` call builds H and integrates the whole unit through
    ``_integrate``; each config then takes its own outcome, so it writes what
    it would write run alone, and an outcome becomes a RunResult
    (``_run_result``) only on its config's turn.
    """

    def __init__(self, configs: list[ExperimentConfig]):
        self.configs = configs
        self.H: HermitianOperator | None = None
        self.outcomes: dict[int, object] | None = None

    def result(self, config: ExperimentConfig) -> tuple[HermitianOperator, RunResult]:
        """H and ``config``'s RunResult; raises the ``SolverFailure`` its row ended with."""
        if self.outcomes is None:
            self.H = build_hamiltonian(self.configs[0])
            self.outcomes = dict(zip(map(id, self.configs), _integrate(self.configs, self.H)))
        return self.H, _run_result(config, self.outcomes.pop(id(config)))


def execute(config: ExperimentConfig, H: HermitianOperator) -> RunResult:
    """An ``se_exact`` or ``bea_truncation`` run; every other integrator runs in a ``_Batch``."""
    state0 = config.initial_components
    if config.integrator == "se_exact":
        traj = se_evolve(H, tensor_product(state0), config.dt, config.steps())
        return RunResult(traj, {"kind": "eigendecomposition"})
    from . import bea

    rhs = bea.ModifiedRHS(SplittingScheme(config.bea_scheme), config.bea_order, config.dt)
    sol = bea.rk_integrate(rhs, np.concatenate(state0.vectors()), config.dt, config.steps())
    traj = Trajectory.from_components(config.dt, sol.y_eval, state0.dims)
    stats = {"kind": "runge_kutta", "steps": sol.steps, "rejected": sol.rejected,
             "rhs_evals": sol.rhs_evals, "min_step": sol.min_step, "max_step": sol.max_step}
    return RunResult(traj, stats)


def _diagnostic_columns(config: ExperimentConfig, traj: Trajectory,
                        H: HermitianOperator) -> dict[str, np.ndarray]:
    columns: dict[str, np.ndarray] = {}
    densities = None
    for name in config.outputs:
        if name == "norm":
            columns["norm"] = traj.norm
        elif name == "abs_overlap":
            reference = traj  # an se_exact run is the exact flow itself
            if config.integrator != "se_exact":
                reference = se_evolve(H, FullState(traj.full[0], traj.dims), traj.dt,
                                      traj.times.size - 1)
            columns["abs_overlap"] = np.abs(analysis.overlap_series(reference, traj))
        elif name == "rate_nucl":
            columns["rate_nucl"] = analysis.rate_of_change_nuclear(traj)
        elif name in ("purity", "bloch"):
            if densities is None:
                densities = _density_columns(config, traj)
            columns.update(densities[name])
    return columns


def _density_columns(config: ExperimentConfig, traj: Trajectory) -> dict[str, dict]:
    """The configured ``purity`` and ``bloch`` columns, by output name.

    Each subsystem's reduced densities are formed once for both, and only
    one subsystem's stack is held at a time.
    """
    found: dict[str, dict] = {"purity": {}, "bloch": {}}
    for j, d in enumerate(traj.dims):
        rho = analysis.reduced_density_series(traj, j)
        if "purity" in config.outputs:
            found["purity"][f"purity{j + 1}"] = analysis.purity_series(rho)
        if "bloch" in config.outputs:
            # Qutrits keep the three configured Gell-Mann components.
            picks = [0, 1, 2] if d == 2 else config.gellmann_projection
            vectors = analysis.bloch_series(rho)[:, picks]
            for i, axis in enumerate("xyz"):
                found["bloch"][f"bloch_{axis}{j + 1}"] = vectors[:, i]
    return found


def write_csv(path: Path, traj: Trajectory, columns: dict[str, np.ndarray]):
    """Time, the real and imaginary part of every stored amplitude, then ``columns``.

    Component runs write the stacked components, others the full state. The
    file is byte for byte a header line, then per row every value as
    ``format(v, ".17g")`` (which round-trips a double) joined by ``,`` and
    ended by ``\\n``. Whole rows of at most ``propagators.BLOCK_CELLS``
    cells (or one row), the row blocks of every pass of a run, are copied into
    one reused buffer and go through the numpy kernel of ``sepdyn._csvtext``.
    It certifies a cell's 17 digits when the computed remainder of
    |v| * 10^(16 - X), whose error is at most 4.3e-15, lies farther than
    1e-14 from a half-integer and the digits do not round to a power of ten.
    Every other cell, and every zero, non-finite value or |v| outside
    [1e-280, 1e280), is formatted by ``%.17g`` itself. A write that fails
    after the file is opened removes the file.
    """
    if traj.components is not None:
        states = traj.components
        labels = [f"a{j + 1}_{i}" for j, d in enumerate(traj.dims) for i in range(d)]
    else:
        states = traj.full
        labels = [f"psi_{i}" for i in range(states.shape[1])]
    headers = ["t"] + [f"{part}_{label}" for label in labels for part in ("re", "im")]
    headers += list(columns)
    width = 2 * states.shape[1]
    blocks = row_blocks(traj.times.size, len(headers))
    table = np.empty((blocks[0].stop, len(headers)))
    # Imported here, not with the module, so that a process that never writes a
    # CSV (setup, validation) does not compile the kernel.
    from ._csvtext import csv_rows

    handle = path.open("wb")
    try:
        with handle:
            handle.write((",".join(headers) + "\n").encode())
            for rows in blocks:
                block = table[: rows.stop - rows.start]
                block[:, 0] = traj.times[rows]
                block[:, 1 : 1 + width : 2] = states[rows].real
                block[:, 2 : 2 + width : 2] = states[rows].imag
                for offset, values in enumerate(columns.values(), start=1 + width):
                    block[:, offset] = values[rows]
                handle.write(csv_rows(block))
    except BaseException:
        path.unlink()
        raise


def _conservation_summary(config: ExperimentConfig, traj: Trajectory,
                          columns: dict[str, np.ndarray]) -> dict:
    """The run JSON's summary: drifts, extremes of the diagnostic ``columns``, gauge.

    With ``abs_overlap``: its minimum and the first time it is reached; an
    ``se_exact`` run is its own reference, so its column is 1 to rounding,
    and the time of that rounding minimum is left out. With
    ``purity``: the largest linear entropy 1 - tr rho^2 over subsystems and rows.
    """
    norms = traj.norm
    summary = {
        "max_abs_norm_drift": float(np.max(np.abs(norms - norms[0]))),
        "final_norm": float(norms[-1]),
    }
    if "abs_overlap" in columns:
        lowest = int(np.argmin(columns["abs_overlap"]))
        summary["min_abs_overlap"] = float(columns["abs_overlap"][lowest])
        if config.integrator != "se_exact":
            summary["min_abs_overlap_time"] = float(traj.times[lowest])
    if "purity" in config.outputs:
        lowest_purity = min(columns[f"purity{j + 1}"].min() for j in range(len(traj.dims)))
        summary["max_linear_entropy"] = float(1.0 - lowest_purity)
    if config.experiment == "swap" and traj.components is not None:
        qs = np.einsum("ti,ti->t", traj.components[:, :2].conj(), traj.components[:, 2:])
        summary["max_abs_q_drift"] = float(np.max(np.abs(qs - qs[0])))
    if config.integrator in VARIATIONAL:
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


def _outputs(out_prefix: Path) -> tuple[Path, Path]:
    """The CSV and JSON paths of an ``out_path``.

    Appended, not ``with_suffix``: a dotted stem such as "v0.02" is kept whole.
    """
    return (out_prefix.with_name(out_prefix.name + ".csv"),
            out_prefix.with_name(out_prefix.name + ".json"))


def run(config: ExperimentConfig, batch: _Batch) -> int:
    """Execute one configured run; returns the process exit code.

    The config takes its integration from ``batch``, its work unit.
    """
    start = time.perf_counter()
    out_prefix = Path(config.out_path)
    try:
        out_prefix.parent.mkdir(parents=True, exist_ok=True)
    except OSError as err:  # a component of the path is an existing file
        print(f"config error: cannot make the directory of out_path: {err}", file=sys.stderr)
        return EXIT_CONFIG
    # The row's own failure, a non-finite abs_overlap reference grid and a
    # non-finite column all end the run as a solver failure.
    try:
        H, result = batch.result(config)
        # A state of finite norm² can still overflow a diagnostic of order norm⁴;
        # such a column is reported below, so numpy's warning would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            columns = _diagnostic_columns(config, result.trajectory, H)
        for name, values in columns.items():
            if not np.all(np.isfinite(values)):
                raise SolverFailure(f"diagnostic column '{name}' is not finite")
    except SolverFailure as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER

    csv_path, json_path = _outputs(out_prefix)
    written = []  # a failed write removes what this run wrote: both outputs or neither
    try:
        write_csv(csv_path, result.trajectory, columns)
        written.append(csv_path)
        payload = {
            "config": asdict(config),
            "summary": _conservation_summary(config, result.trajectory, columns),
            "solver": result.solver_stats,
            "rows_written": int(result.trajectory.times.size),
        }
        if result.blowup is not None:
            payload["blowup"] = result.blowup
        with json_path.open("w") as handle:
            written.append(json_path)
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as err:  # an output is an existing directory, or not writable
        for path in written:
            path.unlink()
        print(f"config error: cannot write the output: {err}", file=sys.stderr)
        return EXIT_CONFIG

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
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
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
        for output in map(Path.resolve, _outputs(out)):
            if output in inputs:
                return f"{path} would write its output over the config {inputs[output]}"
    return None


def _run_file(path: Path, config: ExperimentConfig | ConfigError, batch: _Batch) -> int:
    """Run one loaded config, or report the error it failed to load with."""
    if isinstance(config, ConfigError):
        print(f"config error in {path}: {config}", file=sys.stderr)
        return EXIT_CONFIG
    return run(config, batch)


def _batch_amplitudes(config: ExperimentConfig) -> int:
    """Amplitudes a config stores in a batch: (steps + 1) points of sum(dims)."""
    return (config.steps() + 1) * sum(SYSTEMS[config.experiment].dims)


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

    The configs of each work unit run as one ``_Batch``, integrated on the
    turn of the first of them.
    """
    batches = {}
    for unit in _work_units(items):
        batch = _Batch([config for _, config in unit])
        batches.update((id(config), batch) for _, config in unit)
    return [_run_file(path, config, batches[id(config)]) for path, config in items]


def list_experiments(as_json: bool) -> str:
    parts = {2: "qubits", 3: "qutrits"}
    required = {exp: [f"initial_state ({len(dims)} {parts[dims[0]]})", *keys]
                for exp, (dims, keys, _) in SYSTEMS.items()}
    integrator_fields = {
        **{integ: ["alpha"] for integ in VARIATIONAL},
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
                "common": list(REQUIRED_KEYS),
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
        lines.append((f"{exp:<{width}}" + "  ".join(f"{m:<20}" for m in marks)).rstrip())
    lines.append("")
    lines.append(f"required fields: {', '.join(REQUIRED_KEYS)}")
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
