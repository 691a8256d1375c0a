"""Numerics for separability-restricted quantum dynamics.

The package integrates multipartite pure-state dynamics both without
constraints and restricted to product states, using operator splitting and
variational integrators, and provides the diagnostics used to compare the
two evolutions.
"""

__version__ = "0.1.0"

from .states import (
    ComponentState,
    FullState,
    Ket,
    inner,
    tensor_product,
)
from .hamiltonians import (
    HermitianOperator,
    correlator_hamiltonian,
    ladder_operators,
    random_hermitian,
    swap_hamiltonian,
)
from .reduced import DegenerateStateError, partially_reduced
from .propagators import (
    SplittingScheme,
    Trajectory,
    evolve,
    hermitian_expm_apply,
    lie_trotter_step,
    se_evolve,
    sse_component_flow,
    strang_step,
)
from .exact_swap import (
    SwapInitialData,
    exact_se_swap,
    exact_sse_swap,
    lie_trotter_swap_closed_form,
)

__all__ = [
    "ComponentState",
    "DegenerateStateError",
    "FullState",
    "HermitianOperator",
    "Ket",
    "SplittingScheme",
    "SwapInitialData",
    "Trajectory",
    "correlator_hamiltonian",
    "evolve",
    "exact_se_swap",
    "exact_sse_swap",
    "hermitian_expm_apply",
    "inner",
    "ladder_operators",
    "lie_trotter_step",
    "lie_trotter_swap_closed_form",
    "partially_reduced",
    "random_hermitian",
    "se_evolve",
    "sse_component_flow",
    "strang_step",
    "swap_hamiltonian",
    "tensor_product",
]
