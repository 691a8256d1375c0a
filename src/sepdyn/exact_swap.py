"""Closed-form solutions for the exchange-interaction system.

These serve as oracles for the integrators and are deliberately independent
of them: nothing here touches the splitting or variational code paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .states import ComponentState, FullState, Ket, inner

NORMALIZATION_TOL = 1e-12
ORTHOGONAL_Q_TOL = 1e-14


@dataclass(frozen=True)
class SwapInitialData:
    """Normalized initial pair (a0, b0) and its transition amplitude q = <a0|b0>."""

    a0: Ket
    b0: Ket
    q: complex = field(init=False)

    def __post_init__(self):
        a0 = self.a0 if isinstance(self.a0, Ket) else Ket(np.asarray(self.a0))
        b0 = self.b0 if isinstance(self.b0, Ket) else Ket(np.asarray(self.b0))
        if a0.dim != b0.dim:
            raise ValueError("a0 and b0 must have equal dimension")
        for name, ket in (("a0", a0), ("b0", b0)):
            if abs(ket.norm() - 1.0) > NORMALIZATION_TOL:
                raise ValueError(f"{name} must be normalized to 1e-12")
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "b0", b0)
        object.__setattr__(self, "q", inner(a0, b0))


def exact_se_swap(data: SwapInitialData, t: float) -> FullState:
    """Unrestricted solution: cos(t) a0 x b0 - i sin(t) b0 x a0."""
    a, b = data.a0.amplitudes, data.b0.amplitudes
    amplitudes = np.cos(t) * np.kron(a, b) - 1j * np.sin(t) * np.kron(b, a)
    return FullState(amplitudes, (data.a0.dim, data.b0.dim))


def exact_sse_swap(data: SwapInitialData, t: float) -> ComponentState:
    """Restricted solution, rotating each component at rate |q|.

    For orthogonal initial components (|q| below 1e-14) the restricted
    right-hand sides vanish, so the states are returned unchanged.
    """
    a, b, q = data.a0.amplitudes, data.b0.amplitudes, data.q
    mod_q = abs(q)
    if mod_q < ORTHOGONAL_Q_TOL:
        return ComponentState((data.a0, data.b0))
    theta = mod_q * t
    phase = q / mod_q
    a_t = np.cos(theta) * a - 1j * np.conj(phase) * np.sin(theta) * b
    b_t = np.cos(theta) * b - 1j * phase * np.sin(theta) * a
    return ComponentState((Ket(a_t), Ket(b_t)))


def lie_trotter_swap_closed_form(a: Ket, b: Ket, dt: float) -> ComponentState:
    """Closed form of one sequential-splitting step for the exchange system."""
    av, bv = a.amplitudes, b.amplitudes
    q = inner(a, b)
    a_new = av + np.conj(q) * (np.exp(-1j * dt) - 1.0) * bv
    b_new = q * (1.0 - np.exp(1j * dt)) * av \
        + (1.0 + 2.0 * abs(q) ** 2 * (np.cos(dt) - 1.0)) * bv
    return ComponentState((Ket(a_new), Ket(b_new)))
