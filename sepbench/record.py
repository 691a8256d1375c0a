"""Record expected outcomes for a bank of seeds from the current code.

    python3 sepbench/record.py --workload variational --seeds 0-31

Runs each seed's workload once through ``sepdyn run``, requires the
seed-independent checks to pass, and stores exit code, rows written, the
blow-up message and the sampled amplitude rows of every config in
``expected/<workload>.json``. Seeds already in the file are replaced; others
are kept. Re-record only when a change to the program is meant to change
its trajectories, or when the workload generator changes.
"""

from __future__ import annotations

import argparse
import json
import sys

import check
import run
import workloads
from spawner import Spawner


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", required=True, help="one seed or a range FIRST-LAST")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))

    path = run.BENCH / "expected" / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    bank = json.loads(path.read_text())["seeds"] if path.exists() else {}
    with Spawner() as spawner:
        for seed in parse_seeds(args.seeds):
            load = run.Workload(args.workload, seed, spawner)
            load.clear_outputs()
            code, _, _ = load.spawn(load.run_cmd(), "run.log")
            outputs = check.read_outputs(load.configs, run.ROOT)
            report = check.check_process(load.configs, outputs, code, None)
            bad = [f"{o.name}: {p}" for o, problems in zip(outputs, report) for p in problems]
            if bad:
                print(f"seed {seed}: not recorded, invariant checks failed:", *bad,
                      sep="\n  ")
                return 1
            bank[str(seed)] = [check.outcome(o) for o in outputs]
            codes = [o.exit_code for o in outputs]
            print(f"seed {seed}: exit {code}, per-config exit codes {codes}", flush=True)
    # One seed per line keeps the file diffable.
    seeds = sorted(bank, key=int)
    lines = [f"{json.dumps(seed)}:{json.dumps(bank[seed], separators=(',', ':'))}"
             for seed in seeds]
    path.write_text(
        f'{{"workload":{json.dumps(args.workload)},\n'
        f'"amplitude_tol":{check.AMPLITUDE_TOL},\n'
        '"sampled_rows":"middle and last row, state amplitude columns",\n'
        '"seeds":{\n' + ",\n".join(lines) + "\n}}\n"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
