"""Output checks behind the benchmark's failure count.

Every config run of a workload process is compared three ways:

* against the outcome recorded from the reference commit for the same seed
  (``expected/<workload>.json``): exit code, rows written, the blow-up
  message with its flagged step, and the state amplitudes at sampled rows;
* against invariants that need no recording: row counts match the step
  count, unitary runs (splitting, ``se_exact``) keep the norm, and swap
  ``se_exact`` matches the closed form ``exact_se_swap``;
* against the first process of the same benchmark run, byte for byte.

``AMPLITUDE_TOL`` sits far below the integrators' O(dt^2) error (1e-4 and
up at these step sizes) and far above Newton's 1e-12 residual tolerance.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

AMPLITUDE_TOL = 1e-9
NORM_TOL = 1e-10
SWAP_ORACLE_TOL = 1e-9
EXIT_OK, EXIT_SOLVER, EXIT_BLOWUP = 0, 3, 4
UNITARY = ("se_exact", "lie_trotter", "strang")


@dataclass
class RunOutput:
    """What one config run left behind (``json`` is None when it wrote nothing)."""

    name: str
    json: dict | None
    csv_bytes: bytes | None

    @property
    def exit_code(self) -> int:
        """The exit code ``sepdyn run`` gives for this config alone."""
        if self.json is None:
            return EXIT_SOLVER
        return EXIT_BLOWUP if "blowup" in self.json else EXIT_OK

    @property
    def rows_written(self) -> int:
        return int(self.json["rows_written"]) if self.json is not None else 0

    @property
    def steps(self) -> int:
        """Grid steps completed: rows written minus the initial row."""
        return max(self.rows_written - 1, 0)

    def digest(self) -> str:
        return hashlib.sha256(self.csv_bytes or b"").hexdigest()

    def table(self) -> tuple[list[str], np.ndarray]:
        lines = self.csv_bytes.decode().splitlines()
        header = lines[0].split(",")
        values = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        return header, values.reshape(len(lines) - 1, len(header))


def read_outputs(configs: list[dict], root: Path) -> list[RunOutput]:
    """Collect each config's JSON record and CSV from its ``out_path``."""
    outputs = []
    for config in configs:
        prefix = root / config["out_path"]
        json_path = prefix.with_name(prefix.name + ".json")
        csv_path = prefix.with_name(prefix.name + ".csv")
        record = json.loads(json_path.read_text()) if json_path.exists() else None
        data = csv_path.read_bytes() if csv_path.exists() else None
        outputs.append(RunOutput(prefix.name, record, data))
    return outputs


def sample_rows(rows: int) -> list[int]:
    """Rows kept in a recorded outcome: the middle one and the last one."""
    return sorted({(rows - 1) // 2, rows - 1}) if rows else []


def outcome(output: RunOutput) -> dict:
    """The recordable outcome of one config run."""
    record = {
        "config": output.name,
        "exit_code": output.exit_code,
        "rows_written": output.rows_written,
        "blowup": (output.json or {}).get("blowup", {}).get("message"),
        "samples": {},
    }
    if output.csv_bytes is not None:
        header, values = output.table()
        cols = [i for i, h in enumerate(header) if h.startswith(("re_", "im_"))]
        for row in sample_rows(values.shape[0]):
            record["samples"][str(row)] = [float(f"{v:.10g}") for v in values[row, cols]]
    return record


def compare_outcome(actual: dict, expected: dict) -> list[str]:
    """Differences between a run's outcome and the recorded one."""
    problems = []
    for key in ("config", "exit_code", "rows_written", "blowup"):
        if actual[key] != expected[key]:
            problems.append(f"{key}: got {actual[key]!r}, expected {expected[key]!r}")
    if problems:
        return problems
    if actual["samples"].keys() != expected["samples"].keys():
        return [f"sampled rows {sorted(actual['samples'])} != {sorted(expected['samples'])}"]
    for row, want in expected["samples"].items():
        got = np.asarray(actual["samples"][row])
        err = float(np.max(np.abs(got - np.asarray(want)))) if got.size else 0.0
        if got.shape != np.shape(want) or err > AMPLITUDE_TOL:
            problems.append(f"row {row}: amplitudes differ by {err:.3g} > {AMPLITUDE_TOL}")
    return problems


def invariant_problems(config: dict, output: RunOutput) -> list[str]:
    """Checks that hold for any seed, recorded or not."""
    integrator = config["integrator"]
    steps = int(np.floor(config["t_final"] / config["dt"] + 1e-9))
    code = output.exit_code
    if code == EXIT_SOLVER:
        # Only Newton solves may fail; they write nothing.
        ok = integrator.startswith("var_") and output.csv_bytes is None
        return [] if ok else [f"{integrator} wrote no complete output"]
    if output.csv_bytes is None:
        return ["JSON record written without its CSV"]
    header, values = output.table()
    problems = []
    if values.shape[0] != output.rows_written:
        problems.append(f"CSV has {values.shape[0]} rows, record says {output.rows_written}")
    if not np.all(np.isfinite(values)):
        problems.append("CSV holds non-finite values")
    if code == EXIT_BLOWUP:
        blowup = output.json["blowup"]
        if not integrator.startswith("var_"):
            problems.append(f"{integrator} flagged a blow-up")
        elif blowup["steps_completed"] != output.steps or output.steps > steps:
            problems.append("blow-up record disagrees with the rows written")
    elif output.steps != steps:
        problems.append(f"{output.steps} steps written, config asks for {steps}")
    if integrator in UNITARY and "norm" in header:
        norm = values[:, header.index("norm")]
        drift = float(np.max(np.abs(norm - norm[0])))
        if drift > NORM_TOL:
            problems.append(f"norm drifted by {drift:.3g} > {NORM_TOL}")
    if integrator == "se_exact" and config["experiment"] == "swap":
        problems += _swap_oracle_problems(config, header, values)
    return problems


def _swap_oracle_problems(config: dict, header: list[str], values: np.ndarray) -> list[str]:
    from sepdyn.exact_swap import SwapInitialData, exact_se_swap

    a0, b0 = ([complex(re, im) for re, im in vec] for vec in config["initial_state"])
    data = SwapInitialData(np.array(a0), np.array(b0))
    re_cols = [header.index(f"re_psi_{i}") for i in range(4)]
    im_cols = [header.index(f"im_psi_{i}") for i in range(4)]
    psi = values[:, re_cols] + 1j * values[:, im_cols]
    exact = np.stack([exact_se_swap(data, t).amplitudes for t in values[:, 0]])
    err = float(np.max(np.abs(psi - exact)))
    if err > SWAP_ORACLE_TOL:
        return [f"swap se_exact is {err:.3g} from exact_se_swap"]
    return []


def load_expected(path: Path, seed: int) -> list[dict] | None:
    """Recorded outcomes for ``seed``, or None when that seed was not recorded."""
    if not path.exists():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def check_process(configs: list[dict], outputs: list[RunOutput], exit_code: int,
                  expected: list[dict] | None) -> list[list[str]]:
    """Problems per config for one workload process; empty lists mean correct."""
    worst = max(o.exit_code for o in outputs)
    report = []
    for i, (config, output) in enumerate(zip(configs, outputs)):
        problems = invariant_problems(config, output)
        if expected is not None:
            problems += compare_outcome(outcome(output), expected[i])
        if exit_code != worst:
            problems.append(f"process exit code {exit_code}, its runs imply {worst}")
        report.append(problems)
    return report


def check_repeat(first: list[RunOutput], again: list[RunOutput], exit_code: int,
                 first_exit_code: int) -> list[list[str]]:
    """Problems per config when a repeated process differs from the first one."""
    report = []
    for a, b in zip(first, again):
        problems = []
        if b.digest() != a.digest():
            problems.append("CSV differs from the first run's, byte for byte")
        if b.json != a.json:
            problems.append("JSON record differs from the first run's")
        if exit_code != first_exit_code:
            problems.append(f"process exit code {exit_code}, first run gave {first_exit_code}")
        report.append(problems)
    return report
