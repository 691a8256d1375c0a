"""Seeded generator of the benchmark's workload configs.

Each workload is a directory of ``sepdyn run`` JSON configs. The seed draws
the product initial state of every system and the ``random5`` Hamiltonian
seed; everything else (integrators, step sizes, horizons, outputs) is fixed
here, so one seed gives one set of inputs on every machine.

Run as a script to write a workload's configs without running them:

    python3 sepbench/workloads.py --workload splitting --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

DIMS = {"swap": (2, 2), "random5": (2,) * 5, "ladder": (3, 3, 3)}
ALL_OUTPUTS = ["norm", "abs_overlap", "rate_nucl", "bloch", "purity"]
LADDER_R_PARTY = 2
VARIATIONAL_ALPHA = 0.5

# (experiment, integrator, dt, t_final, state) per config; ``state`` indexes
# the initial states drawn for that experiment. The splitting workload runs a
# dt ladder on one system and one initial state per (system, scheme). The
# variational workload spreads its steps over several swap initial states,
# since how many steps a run completes before a blow-up depends on the state.
# It leaves random5 out: there the Newton work per step varies so much from
# state to state that the workload's run time spread by 13-21 % over seeds.
SPLITTING_DTS = (0.04, 0.02, 0.01)
SPLITTING_T_FINAL = 2.0
VARIATIONAL_SWAP_STATES = 6
PLANS = {
    "splitting": [
        (exp, integ, dt, SPLITTING_T_FINAL, 0)
        for exp in ("random5", "ladder")
        for integ in ("lie_trotter", "strang")
        for dt in SPLITTING_DTS
    ],
    "variational": [
        ("swap", integ, 0.01, 1.0, state)
        for state in range(VARIATIONAL_SWAP_STATES)
        for integ in ("var_restrict_first", "var_discretize_first")
    ],
    "dense_output": [
        ("random5", "se_exact", 0.001, 5.0, 0),
        ("ladder", "se_exact", 0.001, 5.0, 0),
        ("swap", "se_exact", 0.001, 5.0, 0),
        ("swap", "bea_truncation", 0.01, 5.0, 0),
    ],
}
WORKLOADS = tuple(PLANS)


def _product_state(rng: np.random.Generator, dims) -> list:
    """Random normalized component vectors as [re, im] pairs."""
    state = []
    for d in dims:
        vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        vec /= np.linalg.norm(vec)
        state.append([[float(z.real), float(z.imag)] for z in vec])
    return state


def generate(workload: str, seed: int, out_dir: str) -> list[dict]:
    """Configs of one workload; ``out_dir`` prefixes every ``out_path``.

    Configs with the same experiment and state index share the initial
    state, so a dt ladder or a pair of integrators starts from one point.
    """
    if workload not in PLANS:
        raise ValueError(f"unknown workload '{workload}'; choose from {WORKLOADS}")
    rng = np.random.Generator(np.random.PCG64([seed, WORKLOADS.index(workload)]))
    hamiltonian_seed = int(rng.integers(0, 2**31 - 1))
    plan = PLANS[workload]
    states = {
        exp: [_product_state(rng, dims)
              for _ in range(1 + max(s for e, *_, s in plan if e == exp))]
        for exp, dims in DIMS.items() if any(e == exp for e, *_ in plan)
    }
    configs = []
    for index, (exp, integ, dt, t_final, state) in enumerate(plan):
        config = {
            "experiment": exp,
            "integrator": integ,
            "dt": dt,
            "t_final": t_final,
            "initial_state": states[exp][state],
            # Stems carry no dots: the CLI replaces everything after the
            # first dot of the stem with ".csv"/".json".
            "out_path": f"{out_dir}/{index:02d}_{exp}_{integ}_s{state}",
            "outputs": ALL_OUTPUTS if workload == "dense_output" else ["norm"],
        }
        if exp == "random5":
            config["seed"] = hamiltonian_seed
        if exp == "ladder":
            config["r_party"] = LADDER_R_PARTY
        if integ.startswith("var_"):
            config["alpha"] = VARIATIONAL_ALPHA
        if integ == "bea_truncation":
            config["bea_scheme"] = "lie_trotter"
            config["bea_order"] = 2
        configs.append(config)
    return configs


def write_configs(configs: list[dict], config_dir: Path) -> list[Path]:
    """Write one JSON file per config, named so the CLI runs them in order."""
    config_dir.mkdir(parents=True, exist_ok=True)
    for stale in config_dir.glob("*.json"):
        stale.unlink()
    paths = []
    for config in configs:
        path = config_dir / (Path(config["out_path"]).name + ".json")
        path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n")
        paths.append(path)
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the configs")
    args = parser.parse_args(argv)
    out = Path(args.out)
    for path in write_configs(generate(args.workload, args.seed, str(out / "runs")), out):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
