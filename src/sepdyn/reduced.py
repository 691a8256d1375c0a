"""Partial reduction of a full Hamiltonian against component context states.

Reduction sandwiches the full operator between embeddings of subsystem k:
E is the (D, d_k) matrix whose i-th column is the product state with e_i in
slot k and the context states everywhere else, and the reduced operator is
E^H (H E), two small GEMMs. Dividing by the squared norms of the contexts
makes unnormalized contexts give the same result as normalized ones.
``contract_reduced`` is the one kernel, on plain arrays; the splitting step
maps call it directly and ``partially_reduced`` wraps it for validated
operators and states.
"""

from __future__ import annotations

import numpy as np

from .hamiltonians import HermitianOperator
from .states import ComponentState, kron

DEGENERATE_NORM_TOL = 1e-14


class DegenerateStateError(ValueError):
    """A context state has numerically zero norm, so reduction is undefined."""


def contract_reduced(matrix: np.ndarray, vectors: list[np.ndarray], keep: int,
                     dims: tuple[int, ...]) -> np.ndarray:
    """Hermitian dims[keep]-square operator that ``matrix`` induces on subsystem ``keep``.

    ``vectors`` holds one amplitude vector per subsystem; entry ``keep`` is
    not read. Returns E^H (matrix E) divided by the product of the context
    norms², symmetrized against rounding skew, where E is the (D, d_keep)
    embedding with columns kron(v_0, ..., e_i, ..., v_{N-1}). Raises
    DegenerateStateError for a context of norm below 1e-14.
    """
    denom = 1.0
    factors = []
    for j, vec in enumerate(vectors):
        if j == keep:
            factors.append(np.eye(dims[keep]))
            continue
        nrm2 = np.vdot(vec, vec).real
        if nrm2 < DEGENERATE_NORM_TOL**2:
            raise DegenerateStateError(f"context state {j} has norm below 1e-14")
        denom *= nrm2
        factors.append(vec)
    # Row i of kron(..., eye, ...) is column i of E.
    embed_rows = kron(factors)
    reduced = embed_rows.conj() @ (matrix @ embed_rows.T)
    return (reduced + reduced.conj().T) * (0.5 / denom)


def partially_reduced(H: HermitianOperator, state: ComponentState, k: int) -> HermitianOperator:
    """Effective subsystem-k operator given the other subsystems' states."""
    dims = state.dims
    if H.dims != dims:
        raise ValueError(f"operator dims {H.dims} do not match state dims {dims}")
    n = len(dims)
    if not 0 <= k < n:
        raise ValueError(f"subsystem index {k} out of range for {n} subsystems")
    return HermitianOperator(contract_reduced(H.entries, state.vectors(), k, dims), (dims[k],))
