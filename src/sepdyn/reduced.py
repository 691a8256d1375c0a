"""Partial reduction of a full Hamiltonian against component context states.

Reduction sandwiches the full operator between product states that hold
e_i in slot k and the context states everywhere else. The kernel works on
H's slot-k block (``HermitianOperator.slot_blocks``): H's tensor with slot k
leading on the ket and the bra side, reshaped to (d_k m d_k, m) with
m = D / d_k. With c the Kronecker product of the contexts, ``block @ c``
contracts the bra context and ``c^H`` the ket context, one matrix-vector
product and one small batched product. Dividing by the context norm²
|c|² makes unnormalized contexts give the same result as normalized ones.

Context norms are checked once, at the boundary: ``partially_reduced``
checks its state, and ``propagators.evolve`` the initial one; splitting
sub-steps are unitary per component, so no norm falls later. The kernel
itself only rejects a numerically zero |c|², which it computes anyway, at
a bound that contexts passing the boundary check stay above.
``contract_reduced`` is the one kernel, on plain arrays; the splitting
step maps call it directly and ``partially_reduced`` wraps it for validated
operators and states.
"""

from __future__ import annotations

import numpy as np

from .hamiltonians import HermitianOperator, check_dims
from .states import ComponentState, kron

DEGENERATE_NORM_TOL = 1e-14


class DegenerateStateError(ValueError):
    """A context state has numerically zero norm, so reduction is undefined."""


def check_contexts(vectors, keep: int | None = None):
    """Raise DegenerateStateError for a context of norm below 1e-14.

    Every entry of ``vectors`` but ``keep`` is a context; with ``keep`` None
    all of them are, as each is a context to some splitting sub-step.
    """
    for j, vec in enumerate(vectors):
        if j != keep and np.vdot(vec, vec).real < DEGENERATE_NORM_TOL**2:
            raise DegenerateStateError(f"context state {j} has norm below 1e-14")


def contract_reduced(block: np.ndarray, vectors: list[np.ndarray], keep: int) -> np.ndarray:
    """Hermitian operator that H induces on subsystem ``keep``.

    ``block`` is ``H.slot_blocks[keep]``; ``vectors`` holds one amplitude
    vector per subsystem, and of entry ``keep`` only the length is read.
    Returns <e_i ⊗ c| H |e_j ⊗ c> / |c|², symmetrized against rounding skew,
    where c is the Kronecker product of the other vectors in order. Raises
    DegenerateStateError when |c|² is below 1e-28 per context, the bound
    that contexts which pass ``check_contexts`` never reach.
    """
    c = kron(vectors[:keep] + vectors[keep + 1 :])
    denom = np.vdot(c, c).real
    if denom < DEGENERATE_NORM_TOL ** (2 * len(vectors) - 2):
        raise DegenerateStateError(f"the contexts of subsystem {keep} have zero norm")
    d = vectors[keep].size
    reduced = c.conj() @ (block @ c).reshape(d, c.size, d)
    return (reduced + reduced.conj().T) * (0.5 / denom)


def partially_reduced(H: HermitianOperator, state: ComponentState, k: int) -> HermitianOperator:
    """Effective subsystem-k operator given the other subsystems' states."""
    dims = state.dims
    check_dims(H, dims)
    n = len(dims)
    if not 0 <= k < n:
        raise ValueError(f"subsystem index {k} out of range for {n} subsystems")
    vectors = state.vectors()
    check_contexts(vectors, k)
    return HermitianOperator(contract_reduced(H.slot_blocks[k], vectors, k), (dims[k],))
