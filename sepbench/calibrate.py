"""Speed of the machine right now, from a fixed loop that runs no sepdyn code.

On a shared host the same process can take up to twice as long for tens
of seconds at a time, and wall time and CPU time drift together. The
benchmark times this loop just before and just after each process it
measures, and scales the process's wall time by ``REFERENCE_S / loop time``. A change to
``sepdyn`` cannot change the loop, so the scaled time moves only with the
program, while most of the host's drift cancels.

The loop mixes the kinds of work ``sepdyn`` does: a many-operand
``einsum`` on a small tensor, a 2x2 ``eigh``, ``kron`` and a small
``lstsq``, float formatting as in CSV output, and plain Python work.
"""

from __future__ import annotations

import time

import numpy as np

ROUNDS = 300
# Loop time on the reference machine (2 vCPUs, numpy 2.4.6, scipy-openblas
# 0.3.31, one BLAS thread) while its host is quiet; scaled times are
# seconds of that machine in that state.
REFERENCE_S = 0.0425

_rng = np.random.Generator(np.random.PCG64(0))
_TENSOR = _rng.standard_normal((2,) * 10) + 0j
_VECTOR = _rng.standard_normal(2) + 0j
_QUBIT = _rng.standard_normal((2, 2))
_QUBIT = _QUBIT + _QUBIT.T
_FACTOR = _rng.standard_normal(4) + 0j
_SYSTEM = _rng.standard_normal((20, 20))
_RHS = _rng.standard_normal(20)
_FLOATS = _rng.standard_normal(40).tolist()


def loop_seconds() -> float:
    """Wall time of one pass of the calibration loop."""
    a = _VECTOR
    start = time.perf_counter()
    for _ in range(ROUNDS):
        np.einsum(_TENSOR, list(range(10)), a.conj(), [0], a, [5], [1, 2, 3, 4, 6, 7, 8, 9])
        np.linalg.eigh(_QUBIT)
        np.kron(np.kron(_FACTOR, _FACTOR), _FACTOR)
        np.linalg.lstsq(_SYSTEM, _RHS, rcond=None)
        ",".join(format(x, ".17g") for x in _FLOATS)
        sum(j * j for j in range(200))
    return time.perf_counter() - start


def scale(seconds: float, loop_before: float, loop_after: float) -> float:
    """``seconds`` at the reference speed, given the loop times around it."""
    return seconds * REFERENCE_S / (0.5 * (loop_before + loop_after))
