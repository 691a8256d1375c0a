"""Benchmark of ``sepdyn run``: end-to-end metrics, or a traced per-layer run.

    python3 sepbench/run.py --workload splitting --seed 1 --seconds 20 --trace 0

The seed generates the workload's configs (``workloads.py``). With
``--trace 0`` the benchmark alternates, until ``--seconds`` have passed, a
set-up probe (``setup_probe.py``) and one ``sepdyn run --config DIR --jobs 1``
process over all of the workload's configs, and reports medians over those
processes. With ``--trace 1`` it spends half the time on untraced processes
and half on traced in-process passes (``traced.py``), and reports the
per-layer metrics. Every process's outputs are checked (``check.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` counts
config runs checked, ``failed`` those whose outputs were wrong. The lines
before it print every metric with its unit and the environment.

Child processes run one at a time with the BLAS thread pools pinned to one
thread. Everything the benchmark writes goes under ``sepbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import calibrate  # noqa: E402  (imports numpy, so it comes after the pinning)
import check  # noqa: E402
import workloads  # noqa: E402
from spawner import Spawner  # noqa: E402

# Per-layer metrics that count work; they must repeat exactly between passes.
COUNT_SUFFIXES = (".calls", ".bytes", ".iters", ".iters_per_call", ".residual_evals",
                  ".residual_evals_per_iter", ".steps", ".rejected", ".rhs_evals")
MIN_PROCESSES = 3
MIN_TRACED = 2
PROCESS_TIMEOUT_S = 120.0
RUN_CAP_S = 150.0  # start no process that would end later, so a run ends within 180 s


def child_env() -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                               capture_output=True, check=False)
        commit = found.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": PINNED_THREADS["OPENBLAS_NUM_THREADS"],
        "commit": commit,
    }


class Workload:
    """Generated configs of one workload and the checks on its outputs."""

    def __init__(self, name: str, seed: int, spawner: Spawner):
        self.spawner = spawner
        self.work = BENCH / "out" / name
        self.config_dir = self.work / "configs"
        self.runs_dir = self.work / "runs"
        self.configs = workloads.generate(name, seed, str(self.runs_dir.relative_to(ROOT)))
        workloads.write_configs(self.configs, self.config_dir)
        self.expected = check.load_expected(BENCH / "expected" / f"{name}.json", seed)
        self.first: tuple[list[check.RunOutput], int] | None = None
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def spawn(self, cmd: list[str], log_name: str) -> tuple[int, float, float]:
        """Run ``cmd`` from the repository root; (exit code, wall s, peak RSS MB)."""
        return self.spawner.run(cmd, ROOT, child_env(), self.work / log_name,
                                PROCESS_TIMEOUT_S)

    def clear_outputs(self):
        shutil.rmtree(self.runs_dir, ignore_errors=True)
        self.runs_dir.mkdir(parents=True)

    def record(self, label: str, exit_code: int) -> list[check.RunOutput]:
        """Check the outputs the last process left; returns them."""
        outputs = check.read_outputs(self.configs, ROOT)
        if self.first is None:
            report = check.check_process(self.configs, outputs, exit_code, self.expected)
            self.first = (outputs, exit_code)
        else:
            report = check.check_repeat(self.first[0], outputs, exit_code, self.first[1])
        self.attempted += len(report)
        for output, problems in zip(outputs, report):
            if problems:
                self.failed += 1
                self.problems += [f"{label} {output.name}: {p}" for p in problems]
        return outputs

    def config_arg(self) -> str:
        return str(self.config_dir.relative_to(ROOT))

    def run_cmd(self) -> list[str]:
        """``sepdyn run`` over the workload's config directory."""
        return [sys.executable, "-m", "sepdyn.cli", "run", "--config", self.config_arg(),
                "--jobs", "1"]


def _time_left(started: float, seconds: float, *durations: list[float]) -> bool:
    """Whether one more round of processes, as long as the median one so
    far, still ends within ``seconds`` of ``started`` (and within the cap)."""
    needed = sum(statistics.median(d) for d in durations if d)
    elapsed = time.perf_counter() - started
    return elapsed + needed <= min(seconds, RUN_CAP_S)


def end_to_end(load: Workload, seconds: float, started: float):
    """Medians of the end-to-end metrics, and the samples behind them.

    Times are scaled to the reference speed with the calibration loop run
    between processes (``calibrate.py``); the raw wall times are kept too.
    """
    setup_cmd = [sys.executable, "sepbench/setup_probe.py", load.config_arg()]
    load.spawn(setup_cmd, "setup.log")  # warm the bytecode and file caches
    samples = {name: [] for name in ("wall_s", "steps_per_s", "setup_s", "peak_rss_mb",
                                     "raw_wall_s", "raw_setup_s", "calibration_s")}
    loop_before = calibrate.loop_seconds()
    while len(samples["wall_s"]) < MIN_PROCESSES or _time_left(
            started, seconds, samples["raw_setup_s"], samples["raw_wall_s"],
            [2 * c for c in samples["calibration_s"]]):
        code, setup, _ = load.spawn(setup_cmd, "setup.log")
        if code != 0:
            load.problems.append(f"set-up probe exited with {code}")
        loop_between = calibrate.loop_seconds()
        load.clear_outputs()
        code, wall, peak = load.spawn(load.run_cmd(), "run.log")
        loop_after = calibrate.loop_seconds()
        outputs = load.record(f"process {len(samples['wall_s']) + 1}", code)
        scaled = calibrate.scale(wall, loop_between, loop_after)
        samples["setup_s"].append(calibrate.scale(setup, loop_before, loop_between))
        samples["wall_s"].append(scaled)
        samples["steps_per_s"].append(sum(o.steps for o in outputs) / scaled)
        samples["peak_rss_mb"].append(peak)
        samples["raw_wall_s"].append(wall)
        samples["raw_setup_s"].append(setup)
        samples["calibration_s"].append(loop_after)
        loop_before = loop_after
    return {name: statistics.median(values) for name, values in samples.items()}, samples


def per_layer(load: Workload, names: list[str], seconds: float, started: float):
    """Per-layer metrics of the traced passes, the names reported missing,
    and the untraced and traced wall-time samples."""
    walls = []
    while len(walls) < MIN_TRACED or _time_left(started, seconds / 2, walls):
        load.clear_outputs()
        code, wall, _ = load.spawn(load.run_cmd(), "run.log")
        load.record(f"untraced {len(walls) + 1}", code)
        walls.append(wall)
    passes, traced_walls = [], []
    while len(passes) < MIN_TRACED or _time_left(started, seconds, traced_walls):
        load.clear_outputs()
        spans_path = load.work / "spans.csv"
        metrics_path = load.work / "traced.json"
        metrics_path.unlink(missing_ok=True)
        cmd = [sys.executable, "sepbench/traced.py", load.config_arg(), str(spans_path),
               str(metrics_path), *names]
        code, wall, _ = load.spawn(cmd, "traced.log")
        if code != 0 or not metrics_path.exists():
            load.attempted += 1
            load.failed += 1
            load.problems.append(f"traced pass {len(passes) + 1} exited with {code}")
            break
        result = json.loads(metrics_path.read_text())
        load.record(f"traced {len(passes) + 1}", result["exit_code"])
        passes.append(result)
        traced_walls.append(wall)
    samples = {"untraced_wall_s": walls, "trace.wall_s": traced_walls}
    if not passes:
        return {}, [], samples
    metrics = {}
    for name in passes[0]["metrics"]:
        values = [p["metrics"][name] for p in passes]
        if name.endswith(COUNT_SUFFIXES):
            metrics[name] = values[0]
            if len(set(values)) > 1:
                load.problems.append(f"count {name} differs between traced passes: {values}")
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.wall_s"] = statistics.median(traced_walls)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls)
    return metrics, passes[0]["missing"], samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "sepdyn" / "cli.py").is_file() or not spec_path.is_file():
        print(f"benchmark needs {SRC / 'sepdyn'} and {spec_path}; run it from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # for the exact_se_swap oracle in check.py
    spec = json.loads(spec_path.read_text())
    started = time.perf_counter()
    with Spawner() as spawner:
        load = Workload(args.workload, args.seed, spawner)
        if args.trace:
            metric_spec = spec["per_layer"]
            values, missing, samples = per_layer(load, [m["name"] for m in metric_spec],
                                                 args.seconds, started)
        else:
            metric_spec = spec["end_to_end"]
            values, samples = end_to_end(load, args.seconds, started)
            missing = []
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_spec if m["name"] in values}
    missing = sorted(set(missing) | {m["name"] for m in metric_spec} - set(metrics))

    env = environment()
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} configs={len(load.configs)}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    recorded = "recorded outcomes" if load.expected is not None else (
        "no recorded outcome for this seed, invariant and repeat checks only")
    print(f"checks: {recorded}")
    for m in metric_spec:
        if m["name"] in metrics:
            print(f"  {m['name']:<52} {metrics[m['name']]['value']:>14.6g} {m['unit']:<8}"
                  f" ({m['better']} is better)")
    if missing:
        print("missing metrics (a wrapped function no longer exists): " + ", ".join(missing))
    if "raw_wall_s" in values:
        print(f"  unscaled medians: wall {values['raw_wall_s']:.6g} s, set-up "
              f"{values['raw_setup_s']:.6g} s; calibration loop {values['calibration_s']:.6g} s"
              f" (reference {calibrate.REFERENCE_S} s)")
    print("  medians over " + ", ".join(f"{len(v)} {k}" for k, v in samples.items()))
    fail_frac = load.failed / load.attempted if load.attempted else 1.0
    print(f"  fail_frac {fail_frac:g} ({load.failed} of {load.attempted} config runs)")
    for problem in load.problems:
        print(f"  problem: {problem}")

    correct = load.attempted > 0 and load.failed == 0 and not load.problems
    result = {"correct": correct, "attempted": load.attempted, "failed": load.failed,
              "metrics": metrics}
    (load.work / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, env=env, samples=samples, missing=missing,
                        problems=load.problems, fail_frac=fail_frac), indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
