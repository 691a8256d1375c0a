"""Set-up half of a workload: import the CLI, load every config, build each H.

Stops before the first integrator call. The benchmark times this script as
a whole process, interpreter start-up included, which is what every
``sepdyn run`` pays before it integrates anything.

    python3 sepbench/setup_probe.py CONFIG_DIR
"""

import sys
from pathlib import Path

from sepdyn import cli

for path in sorted(Path(sys.argv[1]).glob("*.json")):
    cli.build_hamiltonian(cli.load_config(path, []))
