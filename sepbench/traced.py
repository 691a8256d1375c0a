"""One traced pass of a workload, in-process, through ``sepdyn.cli.main``.

Wraps the layers (see ``layers.py``), runs ``sepdyn run --config DIR --jobs 1``
exactly as the command line would, then writes the spans as CSV and the
per-layer metrics as JSON:

    python3 sepbench/traced.py CONFIG_DIR SPANS_CSV METRICS_JSON NAME...
"""

import contextlib
import json
import sys
from pathlib import Path

import sepdyn.cli

import layers
from spans import SpanRecorder


def main(argv: list[str]) -> int:
    config_dir, spans_path, metrics_path, *wanted = argv
    recorder = SpanRecorder()
    missing = layers.install(recorder)
    with contextlib.redirect_stdout(sys.stderr):
        code = sepdyn.cli.main(["run", "--config", config_dir, "--jobs", "1"])
    recorder.write_csv(Path(spans_path))
    result = {
        "exit_code": code,
        "spans": len(recorder),
        "missing": missing,
        "metrics": layers.layer_metrics(recorder, missing, wanted),
    }
    Path(metrics_path).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
