from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

from sepdyn import propagators
from sepdyn.exact_swap import SwapInitialData, exact_sse_swap, lie_trotter_swap_closed_form
from sepdyn.hamiltonians import (
    HermitianOperator,
    correlator_hamiltonian,
    random_hermitian,
    swap_hamiltonian,
)
from sepdyn.propagators import (
    NonFiniteStateError,
    SplittingScheme,
    Trajectory,
    evolve,
    evolve_rows,
    hermitian_expm_apply,
    lie_trotter_step,
    se_evolve,
    spectral_apply,
    sse_component_flow,
    strang_step,
)
from sepdyn.reduced import DegenerateStateError, contract_reduced, partially_reduced
from sepdyn.states import (
    ComponentState,
    FullState,
    Ket,
    inner,
    split_components,
    tensor_product,
)

from conftest import local_sum_hamiltonian, random_ket
from test_reduced import random_hermitian_matrix, random_local

SIGMA_Z = HermitianOperator(np.diag([1.0, -1.0]), (2,))


def stacked(state: ComponentState) -> np.ndarray:
    return np.concatenate([p.amplitudes for p in state.parts])


def random_hermitian_on(rng, dims) -> HermitianOperator:
    return HermitianOperator(random_hermitian_matrix(rng, dims), dims)


class TestHermitianExpmApply:
    def test_zero_time_is_identity(self, rng):
        H = random_hermitian(2, seed=0)
        v = random_ket(rng, 4).amplitudes
        out = hermitian_expm_apply(H, 0.0, v)
        assert np.allclose(out, v)

    def test_rank_one_projector_formula(self, rng):
        b = random_ket(rng)
        H = HermitianOperator(np.outer(b.amplitudes, b.amplitudes.conj()), (2,))
        a = random_ket(rng)
        t = 0.37
        out = hermitian_expm_apply(H, t, a.amplitudes)
        overlap = inner(b, a)
        expected = a.amplitudes + overlap * (np.exp(-1j * t) - 1.0) * b.amplitudes
        assert np.max(np.abs(out - expected)) < 1e-14

    def test_diagonal_phase(self):
        out = hermitian_expm_apply(SIGMA_Z, np.pi, np.array([1.0, 0.0]))
        assert np.allclose(out, [-1.0, 0.0], atol=1e-14)

    def test_norm_preserved(self, rng):
        H = random_hermitian(3, seed=2)
        v = random_ket(rng, 8, normalize=False)
        out = hermitian_expm_apply(H, 1.7, v.amplitudes)
        assert abs(np.linalg.norm(out) - v.norm()) < 1e-12

    def test_non_hermitian_rejected(self, rng):
        # Checked once, where the operator is built, not on every application.
        with pytest.raises(ValueError):
            hermitian_expm_apply(HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), (2,)),
                                 1.0, random_ket(rng).amplitudes)

    def test_operator_decomposed_once(self, rng, monkeypatch):
        H = random_hermitian(2, seed=4)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
        v = random_ket(rng, 4).amplitudes
        first = hermitian_expm_apply(H, 0.3, v)
        again = hermitian_expm_apply(H, 0.3, v)
        grid = se_evolve(H, FullState(v, (2, 2)), 0.1, 3)
        assert len(calls) == 1
        assert np.array_equal(first, again)
        assert np.max(np.abs(grid.full[3] - first)) < 1e-12


class TestEighGufunc:
    """Splitting sub-steps call numpy's private eigh gufunc on the reduced operators.

    Pinned to ``np.linalg.eigh``, which wraps it, bit for bit, so that a numpy
    release that moves or changes the gufunc fails here instead of changing
    trajectories.
    """

    NUMPY = f"numpy {np.__version__}"

    def assert_decomposes_as_eigh(self, h):
        evals, evecs = _umath_linalg.eigh_lo(h, signature="D->dD")
        expected = np.linalg.eigh(h)
        assert evals.dtype == np.float64 and evecs.dtype == np.complex128, self.NUMPY
        assert evals.tobytes() == expected.eigenvalues.tobytes(), \
            f"{self.NUMPY}: eigenvalues differ from np.linalg.eigh"
        assert evecs.tobytes() == expected.eigenvectors.tobytes(), \
            f"{self.NUMPY}: eigenvectors differ from np.linalg.eigh"
        return evals

    def test_the_gufunc_is_where_eigh_finds_it(self):
        gufunc = getattr(_umath_linalg, "eigh_lo", None)
        assert gufunc is not None, f"{self.NUMPY} has no linalg._umath_linalg.eigh_lo"
        assert gufunc.signature == "(m,m)->(m),(m,m)", \
            f"{self.NUMPY}: eigh_lo gufunc signature {gufunc.signature}"
        assert "D->dD" in gufunc.types, f"{self.NUMPY}: eigh_lo loops {gufunc.types}"

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3, 2)])
    def test_reduced_operators_decompose_as_np_linalg_eigh(self, rng, dims):
        H = random_hermitian_on(rng, dims)
        for _ in range(4):
            vectors = [random_ket(rng, d, normalize=False).amplitudes for d in dims]
            for k in range(len(dims)):
                self.assert_decomposes_as_eigh(contract_reduced(H.slot_blocks[k], vectors, k)[0])

    def test_a_degenerate_spectrum_decomposes_as_np_linalg_eigh(self, rng):
        # Swap on qutrits at a product context b reduces to |b><b| / |b|²,
        # whose eigenvalue 0 is double.
        b = random_ket(rng, 3, normalize=False).amplitudes
        for context in (b, np.array([1.0, 0.0, 0.0], dtype=complex)):
            sandwich, norm2 = contract_reduced(swap_hamiltonian(3).slot_blocks[0],
                                               [b, context], 0)
            evals = self.assert_decomposes_as_eigh(sandwich)
            assert np.max(np.abs(evals / norm2 - [0.0, 0.0, 1.0])) < 1e-15


class TestSeFlow:
    """The unrestricted flow: exp(-i t H) applied to the full state."""

    def test_swap_closed_form(self, fig1_state):
        H = swap_hamiltonian(2)
        psi0 = tensor_product(fig1_state).amplitudes
        data = SwapInitialData(fig1_state.parts[0], fig1_state.parts[1])
        for t in (0.3, 1.0, 4.2):
            flowed = hermitian_expm_apply(H, t, psi0)
            a, b = data.a0.amplitudes, data.b0.amplitudes
            expected = np.cos(t) * np.kron(a, b) - 1j * np.sin(t) * np.kron(b, a)
            assert np.max(np.abs(flowed - expected)) < 1e-12

    def test_zero_hamiltonian_is_constant(self, rng):
        H = HermitianOperator(np.zeros((4, 4)), (2, 2))
        psi0 = random_ket(rng, 4).amplitudes
        assert np.allclose(hermitian_expm_apply(H, 2.3, psi0), psi0)

    def test_group_property(self, rng):
        H = random_hermitian(2, seed=6)
        psi0 = random_ket(rng, 4).amplitudes
        once = hermitian_expm_apply(H, 0.9, hermitian_expm_apply(H, 0.4, psi0))
        direct = hermitian_expm_apply(H, 1.3, psi0)
        assert np.max(np.abs(once - direct)) < 1e-10

    def test_unitary(self, rng):
        H = random_hermitian(2, seed=6)
        psi0 = random_ket(rng, 4).amplitudes
        assert abs(np.linalg.norm(hermitian_expm_apply(H, 5.0, psi0)) - 1.0) < 1e-12


class TestSseComponentFlow:
    def test_swap_matches_single_update_formula(self, rng):
        H = swap_hamiltonian(2)
        a, b = random_ket(rng), random_ket(rng)
        x = stacked(ComponentState((a, b)))
        t = 0.21
        out = sse_component_flow(H, x, 0, t)
        q_conj = inner(b, a)
        expected = a.amplitudes + q_conj * (np.exp(-1j * t) - 1.0) * b.amplitudes
        assert np.max(np.abs(out[:2] - expected)) < 1e-13
        assert np.array_equal(out[2:], b.amplitudes)

    def test_zero_time(self, rng):
        H = random_hermitian(2, seed=1)
        x = stacked(ComponentState((random_ket(rng), random_ket(rng))))
        out = sse_component_flow(H, x, 1, 0.0)
        assert np.allclose(out[2:], x[2:])

    def test_local_sum_gives_shifted_local_flow(self, rng):
        h1, h2 = random_local(rng), random_local(rng)
        H = local_sum_hamiltonian([h1, h2])
        a, b = random_ket(rng), random_ket(rng)
        x = stacked(ComponentState((a, b)))
        t = 0.8
        out = sse_component_flow(H, x, 0, t)
        shift = np.real(np.vdot(b.amplitudes, h2.entries @ b.amplitudes))
        shifted = HermitianOperator(h1.entries + shift * np.eye(2), (2,))
        expected = hermitian_expm_apply(shifted, t, a.amplitudes)
        assert np.max(np.abs(out[:2] - expected)) < 1e-12


class TestLieTrotterStep:
    def test_matches_closed_form(self, rng):
        H = swap_hamiltonian(2)
        for _ in range(50):
            a, b = random_ket(rng), random_ket(rng)
            stepped = lie_trotter_step(H, stacked(ComponentState((a, b))), 0.05)
            closed = lie_trotter_swap_closed_form(a, b, 0.05)
            assert np.max(np.abs(stepped - stacked(closed))) < 1e-12

    def test_small_step_is_near_identity(self, rng):
        H = random_hermitian(2, seed=12)
        x = stacked(ComponentState((random_ket(rng), random_ket(rng))))
        for dt in (1e-3, 1e-4):
            stepped = lie_trotter_step(H, x, dt)
            assert np.max(np.abs(stepped - x)) < 10 * dt

    def test_exact_for_decoupled_hamiltonian(self, rng):
        h1, h2 = random_local(rng), random_local(rng)
        H = local_sum_hamiltonian([h1, h2])
        state = ComponentState((random_ket(rng), random_ket(rng)))
        dt, steps = 0.25, 40
        traj = evolve(SplittingScheme.LIE_TROTTER, H, state, dt, steps)
        # Phases differ by the partner expectation shift; projectors match.
        for j, local in enumerate((h1, h2)):
            flow = HermitianOperator(local.entries, (2,))
            for i in (10, 25, 40):
                exact = hermitian_expm_apply(flow, dt * i, state.parts[j].amplitudes)
                num = traj.components[i, 2 * j : 2 * j + 2]
                p_num = np.outer(num, num.conj())
                p_exa = np.outer(exact, exact.conj())
                assert np.max(np.abs(p_num - p_exa)) < 1e-10


class TestStrangStep:
    def test_single_step_third_order_local_error(self, fig1_state):
        H = swap_hamiltonian(2)
        data = SwapInitialData(fig1_state.parts[0], fig1_state.parts[1])
        errors = []
        dts = [0.2, 0.1, 0.05]
        for dt in dts:
            stepped = strang_step(H, stacked(fig1_state), dt)
            exact = exact_sse_swap(data, dt)
            errors.append(np.max(np.abs(stepped - stacked(exact))))
        slopes = np.diff(np.log(errors)) / np.diff(np.log(dts))
        assert np.all(np.abs(slopes - 3.0) < 0.2)

    def test_zero_step_is_identity(self, rng):
        H = random_hermitian(2, seed=3)
        x = stacked(ComponentState((random_ket(rng), random_ket(rng))))
        stepped = strang_step(H, x, 0.0)
        assert np.allclose(stepped, x)

    @pytest.mark.parametrize("n_parts", [2, 3])
    @given(h_seed=st.integers(0, 2**32 - 1), ket_seed=st.integers(0, 2**32 - 1),
           dim_choices=st.lists(st.sampled_from([2, 3]), min_size=3, max_size=3),
           dt=st.floats(-2.0, 2.0))
    @example(h_seed=9, ket_seed=1234, dim_choices=[2, 2, 2], dt=0.3)
    @settings(max_examples=40, deadline=None)
    def test_adjoint_symmetry(self, n_parts, h_seed, ket_seed, dim_choices, dt):
        """The palindromic step is reversible: stepping by dt, then by -dt, is the identity.

        The explicit example is the fixed qubit case, random_hermitian(n_parts,
        seed=9) acting on normalized kets from default_rng(1234).
        """
        dims = tuple(dim_choices[:n_parts])
        if set(dims) == {2}:
            H = random_hermitian(n_parts, seed=h_seed)
        else:
            H = random_hermitian_on(np.random.default_rng(h_seed), dims)
        rng = np.random.default_rng(ket_seed)
        x = stacked(ComponentState(tuple(random_ket(rng, d) for d in dims)))
        forward = strang_step(H, x, dt)
        back = strang_step(H, forward, -dt)
        assert np.max(np.abs(back - x)) < 1e-10


class TestEvolve:
    def test_tracks_closed_form_at_fine_step(self, fig1_state):
        H = swap_hamiltonian(2)
        data = SwapInitialData(fig1_state.parts[0], fig1_state.parts[1])
        dt, steps = 0.001, 2000
        traj = evolve(SplittingScheme.LIE_TROTTER, H, fig1_state, dt, steps)
        worst = 0.0
        for i in (0, 500, 1000, 2000):
            exact = exact_sse_swap(data, traj.times[i])
            worst = max(worst, np.max(np.abs(
                traj.components[i] - stacked(exact))))
        assert worst < 5e-3

    def test_rejects_zero_steps(self, fig1_state):
        with pytest.raises(ValueError):
            evolve(SplittingScheme.LIE_TROTTER, swap_hamiltonian(2), fig1_state,
                   0.1, 0)

    def test_zero_hamiltonian_constant(self, rng):
        H = HermitianOperator(np.zeros((4, 4)), (2, 2))
        state = ComponentState((random_ket(rng), random_ket(rng)))
        traj = evolve(SplittingScheme.STRANG, H, state, 0.5, 8)
        for recorded in traj.components:
            assert np.allclose(recorded, stacked(state))

    def test_norm_and_transition_amplitude_conserved(self, rng):
        H = swap_hamiltonian(2)
        a, b = random_ket(rng), random_ket(rng)
        state = ComponentState((a, b))
        traj = evolve(SplittingScheme.LIE_TROTTER, H, state, 0.01, 400)
        q0 = inner(a, b)
        for recorded in traj.components[::50]:
            assert abs(np.linalg.norm(recorded[:2]) - 1) < 1e-12
            assert abs(np.linalg.norm(recorded[2:]) - 1) < 1e-12
            assert abs(inner(recorded[:2], recorded[2:]) - q0) < 1e-12
        assert np.max(np.abs(traj.norm - 1.0)) < 1e-12

    @pytest.mark.parametrize(
        "scheme,order",
        [(SplittingScheme.LIE_TROTTER, 1.0), (SplittingScheme.STRANG, 2.0)],
    )
    def test_convergence_order(self, fig1_state, scheme, order):
        H = swap_hamiltonian(2)
        data = SwapInitialData(fig1_state.parts[0], fig1_state.parts[1])
        exact = stacked(exact_sse_swap(data, 1.0))
        dts = [0.1, 0.02, 0.005]
        errors = []
        for dt in dts:
            traj = evolve(scheme, H, fig1_state, dt, int(round(1.0 / dt)))
            errors.append(np.linalg.norm(traj.components[-1] - exact))
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert abs(slope - order) < 0.1

    def test_strang_exact_for_decoupled_hamiltonian(self, rng):
        h1, h2 = random_local(rng), random_local(rng)
        H = local_sum_hamiltonian([h1, h2])
        state = ComponentState((random_ket(rng), random_ket(rng)))
        traj = evolve(SplittingScheme.STRANG, H, state, 0.3, 20)
        for j, local in enumerate((h1, h2)):
            exact = hermitian_expm_apply(local, 0.3 * 20, state.parts[j].amplitudes)
            num = traj.components[-1, 2 * j : 2 * j + 2]
            p_num = np.outer(num, num.conj())
            p_exa = np.outer(exact, exact.conj())
            assert np.max(np.abs(p_num - p_exa)) < 1e-10


def scheme_sequence(scheme, n, dt) -> list[tuple[int, float]]:
    """The (component, time) sub-steps of one step, in the order each scheme documents."""
    if scheme is SplittingScheme.LIE_TROTTER:
        return [(l, dt) for l in range(n)]
    if n == 2:
        return [(1, 0.5 * dt), (0, dt), (1, 0.5 * dt)]
    ascending = [(l, 0.5 * dt) for l in range(n - 1)]
    return ascending + [(n - 1, dt)] + ascending[::-1]


def stacked_sub_step(H, x, k, tau) -> np.ndarray:
    """One sub-step on stacked components, written out with public calls.

    ``np.linalg.eigh`` of the slot-block sandwich S, recomputed at every
    sub-step, and exp(-i (tau / |c|²) S) of the block written into a copy of
    ``x``: the oracle of the splitting kernel.
    """
    parts = split_components(x, H.dims)
    sandwich, norm2 = contract_reduced(H.slot_blocks[k], parts, k)
    evals, evecs = np.linalg.eigh(sandwich)
    out = x.copy()
    offset = sum(H.dims[:k])
    out[offset : offset + H.dims[k]] = spectral_apply(evals, evecs, tau / norm2, parts[k])
    return out


def run_reductions(scheme, n, steps) -> int:
    """Reductions in an ``evolve`` run of ``steps`` steps on n components.

    Lie-Trotter reduces n times a step. Strang's last half-step of a step
    and the first one of the next share a decomposition inside a
    finiteness block: 2n - 1 reductions on a block's first step, 2n - 2 after.
    """
    block = propagators.FINITE_CHECK_STEPS
    if scheme is SplittingScheme.LIE_TROTTER:
        return n * steps
    blocks = -(-steps // block)
    return (2 * n - 2) * steps + blocks


def record_reductions(monkeypatch, nan_from=np.inf) -> list:
    """Record the component of every reduction ``propagators`` makes.

    Counted where ``propagators`` looks the kernel up, as a tracer would.
    From reduction ``nan_from`` on (counting from 1), the sandwich is NaN.
    """
    calls = []

    def poisoned(block, vectors, keep, _kernel=propagators.contract_reduced):
        calls.append(keep)
        sandwich, norm2 = _kernel(block, vectors, keep)
        return (sandwich if len(calls) < nan_from else np.full_like(sandwich, np.nan)), norm2

    monkeypatch.setattr(propagators, "contract_reduced", poisoned)
    return calls


def count_steps(monkeypatch) -> list:
    """Record the number of steps of every call of the run loop."""
    steps = []

    def counted(H, parts, sequence, rows, _run=propagators._run):
        steps.append(len(rows))
        return _run(H, parts, sequence, rows)

    monkeypatch.setattr(propagators, "_run", counted)
    return steps


def object_path_rows(scheme, H, state0, dt, steps) -> np.ndarray:
    """Reference trajectory of stacked components built from validated objects.

    Every sub-step rebuilds a ComponentState, reduces H with
    ``partially_reduced`` and applies ``hermitian_expm_apply`` to a Ket, in
    the splitting order each scheme documents.
    """
    parts = list(state0.parts)
    rows = [stacked(state0)]
    for _ in range(steps):
        for l, tau in scheme_sequence(scheme, len(parts), dt):
            reduced = partially_reduced(H, ComponentState(tuple(parts)), l)
            parts[l] = Ket(hermitian_expm_apply(reduced, tau, parts[l].amplitudes))
        rows.append(stacked(ComponentState(tuple(parts))))
    return np.stack(rows)


def at_offset(arr: np.ndarray, offset: int) -> np.ndarray:
    """A copy of ``arr`` that starts ``offset`` bytes past a 64-byte boundary."""
    buf = np.empty(arr.nbytes + 128, dtype=np.uint8)
    start = -buf.ctypes.data % 64 + offset
    out = buf[start : start + arr.nbytes].view(arr.dtype).reshape(arr.shape)
    out[...] = arr
    assert out.ctypes.data % 64 == offset
    return out


SYSTEMS = {
    "swap": lambda: swap_hamiltonian(2),
    "random5": lambda: random_hermitian(5, seed=21),
    "ladder": lambda: correlator_hamiltonian(2),
}


class TestArrayCore:
    """``evolve`` runs the step maps on plain arrays, checking its inputs once."""

    @pytest.mark.parametrize("scheme", list(SplittingScheme))
    @pytest.mark.parametrize("system", list(SYSTEMS))
    def test_matches_object_path_at_every_step(self, rng, system, scheme):
        H = SYSTEMS[system]()
        state = ComponentState(tuple(random_ket(rng, d) for d in H.dims))
        dt, steps = 0.05, 40
        traj = evolve(scheme, H, state, dt, steps)
        reference = object_path_rows(scheme, H, state, dt, steps)
        assert np.max(np.abs(traj.components - reference)) < 1e-12

    @pytest.mark.parametrize("scheme", list(SplittingScheme))
    @pytest.mark.parametrize("system", ["random5", "ladder"])
    def test_rows_equal_the_fold_of_stacked_sub_steps(self, rng, system, scheme):
        """Every row is, bit for bit, the previous row flowed by one sub-step
        at a time through ``np.linalg.eigh`` into a copy of the stack."""
        H = SYSTEMS[system]()
        state = ComponentState(tuple(random_ket(rng, d) for d in H.dims))
        dt, steps = 0.05, 30
        rows = evolve(scheme, H, state, dt, steps).components
        x = stacked(state)
        assert rows[0].tobytes() == x.tobytes()
        for i in range(1, steps + 1):
            for k, tau in scheme_sequence(scheme, len(H.dims), dt):
                x = stacked_sub_step(H, x, k, tau)
            assert rows[i].tobytes() == x.tobytes(), f"row {i}"

    @pytest.mark.parametrize("step", [
        lie_trotter_step, strang_step, lambda H, x, dt: sse_component_flow(H, x, 1, dt)],
        ids=["lie_trotter", "strang", "sse_component_flow"])
    def test_step_maps_leave_a_read_only_x_unchanged(self, rng, step):
        H = random_hermitian_on(rng, (2, 3, 2))
        x = np.concatenate([random_ket(rng, d).amplitudes for d in H.dims])
        before = x.copy()
        x.setflags(write=False)
        out = step(H, x, 0.1)
        assert x.tobytes() == before.tobytes()
        assert not np.shares_memory(out, x)
        assert out.shape == x.shape and not np.array_equal(out, x)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scheme", list(SplittingScheme))
    @pytest.mark.parametrize("j", [1, 2, 300])
    def test_a_nan_decomposition_ends_as_a_non_finite_state(self, monkeypatch, fig1_state,
                                                            scheme, j):
        """The eigh gufunc decomposes a NaN matrix to NaN and raises nothing,
        so the run ends at its next finiteness test, naming step j."""
        calls = record_reductions(monkeypatch, run_reductions(scheme, 2, j - 1) + 1)
        with pytest.raises(NonFiniteStateError, match=f"splitting step {j} "):
            evolve(scheme, swap_hamiltonian(2), fig1_state, 0.01, 600)
        block = propagators.FINITE_CHECK_STEPS
        assert len(calls) == run_reductions(scheme, 2, -(-j // block) * block)

    @pytest.mark.parametrize("scheme", list(SplittingScheme))
    def test_dims_mismatch_rejected_before_any_step(self, rng, monkeypatch, scheme):
        calls = count_steps(monkeypatch)
        H = random_hermitian_on(rng, (2, 3))
        state = ComponentState((random_ket(rng, 3), random_ket(rng, 2)))
        with pytest.raises(ValueError, match="do not match"):
            evolve(scheme, H, state, 0.1, 5)
        assert calls == []

    @pytest.mark.parametrize("scheme", list(SplittingScheme))
    def test_zero_norm_component_rejected(self, rng, monkeypatch, scheme):
        calls = count_steps(monkeypatch)
        H = random_hermitian(2, seed=4)
        state = ComponentState((random_ket(rng), Ket(np.zeros(2, dtype=complex))))
        with pytest.raises(DegenerateStateError, match="context state 1"):
            evolve(scheme, H, state, 0.1, 5)
        assert calls == []

    @pytest.mark.filterwarnings("error")  # the overflow raises no numpy warning
    @pytest.mark.parametrize("scheme", list(SplittingScheme))
    @pytest.mark.parametrize("system, big", [
        ("ladder", [[1e154, 0.0, 0.0], [0.6, 0.8, 0.0], [1.0, 0.0, 0.0]]),
        ("random5", [[1e154, 0.0], [0.6, 0.8], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
    ])
    def test_overflow_is_reported_once_after_the_run(self, monkeypatch, scheme, system, big):
        """norm² below the double range, yet c^H H c, of order ‖H‖ norm², overflows.

        A run shorter than ``FINITE_CHECK_STEPS`` runs every step and is
        tested for non-finite values once, at its end.
        """
        H = correlator_hamiltonian(1) if system == "ladder" else random_hermitian(5, seed=3)
        state = ComponentState(tuple(Ket(np.array(v, dtype=complex)) for v in big))
        steps = count_steps(monkeypatch)
        with pytest.raises(NonFiniteStateError, match="splitting step 1 "):
            evolve(scheme, H, state, 0.1, 3)
        assert steps == [3]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scheme", list(SplittingScheme))
    def test_overflow_stops_a_long_run_at_the_next_check(self, monkeypatch, scheme):
        """random5 overflows in step 1; the run stops at the first block's test
        instead of taking all 2000 steps on NaN, and still names step 1."""
        big = [[1e154, 0.0], [0.6, 0.8], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
        state = ComponentState(tuple(Ket(np.array(v, dtype=complex)) for v in big))
        steps = count_steps(monkeypatch)
        with pytest.raises(NonFiniteStateError, match="splitting step 1 "):
            evolve(scheme, random_hermitian(5, seed=3), state, 0.001, 2000)
        assert steps == [propagators.FINITE_CHECK_STEPS] == [256]

    @pytest.mark.parametrize("steps", [255, 256, 257, 600])
    def test_overflow_after_the_first_block_names_its_step(self, monkeypatch, fig1_state,
                                                           steps):
        """A state that turns non-finite in a later block is caught in that block."""
        scheme = SplittingScheme.LIE_TROTTER
        record_reductions(monkeypatch, run_reductions(scheme, 2, steps - 2) + 1)
        counted = count_steps(monkeypatch)
        with pytest.raises(NonFiniteStateError, match=f"splitting step {steps - 1} "):
            evolve(scheme, swap_hamiltonian(2), fig1_state, 0.01, steps)
        block = propagators.FINITE_CHECK_STEPS
        assert sum(counted) == min(steps, -(-(steps - 1) // block) * block)

    @pytest.mark.parametrize("step", [lie_trotter_step, strang_step])
    @pytest.mark.parametrize("zero", [0, 1, 2])
    def test_step_maps_raise_on_a_zero_context(self, rng, step, zero):
        """The kernel rejects |c|² = 0 itself, so a step map never returns NaN."""
        dims = (2, 3, 2)
        H = random_hermitian_on(rng, dims)
        parts = [random_ket(rng, d).amplitudes for d in dims]
        parts[zero] = np.zeros(dims[zero], dtype=complex)
        with pytest.raises(DegenerateStateError):
            step(H, np.concatenate(parts), 0.1)

    @pytest.mark.parametrize("scheme", list(SplittingScheme))
    def test_small_contexts_are_not_degenerate(self, rng, scheme):
        """Contexts of norm 1e-10 pass the check, though |c|² is 1e-40 for three parts.

        The reduction does not depend on the contexts' scale, so the run is
        the unit-norm run scaled by 1e-10.
        """
        H = correlator_hamiltonian(2)
        unit = ComponentState(tuple(random_ket(rng, 3) for _ in range(3)))
        small = ComponentState(tuple(Ket(1e-10 * p.amplitudes) for p in unit.parts))
        reference = evolve(scheme, H, unit, 0.1, 10).components
        scaled = evolve(scheme, H, small, 0.1, 10).components
        assert np.max(np.abs(1e10 * scaled - reference)) < 1e-12

    @pytest.mark.parametrize("step, per_step", [(lie_trotter_step, lambda n: n),
                                                (strang_step, lambda n: 2 * n - 1)],
                             ids=["lie_trotter", "strang"])
    @pytest.mark.parametrize("system", list(SYSTEMS))
    def test_one_reduction_per_sub_step(self, rng, monkeypatch, step, per_step, system):
        """One step reduces H n times (Lie-Trotter) or 2n - 1 times (Strang)."""
        calls = record_reductions(monkeypatch)
        H = SYSTEMS[system]()
        x = np.concatenate([random_ket(rng, d).amplitudes for d in H.dims])
        step(H, x, 0.05)
        assert len(calls) == per_step(len(H.dims))

    @pytest.mark.parametrize("scheme", list(SplittingScheme))
    @pytest.mark.parametrize("system", list(SYSTEMS))
    @pytest.mark.parametrize("steps", [1, 2, 256, 600])
    def test_reductions_in_one_run(self, rng, monkeypatch, scheme, system, steps):
        """Lie-Trotter reduces n times a step; Strang 2n - 1 times on the
        first step of each finiteness block and 2n - 2 times after, since a
        step's last half-step and the next one's first share a decomposition."""
        calls = record_reductions(monkeypatch)
        H = SYSTEMS[system]()
        state = ComponentState(tuple(random_ket(rng, d) for d in H.dims))
        evolve(scheme, H, state, 0.05, steps)
        n = len(H.dims)
        block = propagators.FINITE_CHECK_STEPS
        per_step = n if scheme is SplittingScheme.LIE_TROTTER else 2 * n - 2
        first = n if scheme is SplittingScheme.LIE_TROTTER else 2 * n - 1
        blocks = -(-steps // block)
        assert len(calls) == blocks * first + (steps - blocks) * per_step

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3, 2), (3, 3, 3), (2,) * 5])
    def test_sub_step_bits_do_not_depend_on_alignment(self, rng, dims):
        """A sub-step gives the same bits for operands at every 8-byte offset.

        The slot blocks and the stacked components are copied into buffers
        at byte offsets 0, 8, ..., 56; a kernel whose rounding followed the
        alignment of its operands would fail here.
        """
        H = random_hermitian_on(rng, dims)
        x = np.concatenate([random_ket(rng, d, normalize=False).amplitudes for d in dims])
        reference = [sse_component_flow(H, x, k, 0.3) for k in range(len(dims))]
        blocks = H.slot_blocks
        for offset in range(0, 64, 8):
            shifted = HermitianOperator(H.entries, dims)
            shifted.__dict__["slot_blocks"] = tuple(at_offset(b, offset) for b in blocks)
            moved = at_offset(x, offset)
            for k in range(len(dims)):
                out = sse_component_flow(shifted, moved, k, 0.3)
                assert out.tobytes() == reference[k].tobytes()

    def test_builds_no_objects_per_step(self, rng, monkeypatch):
        H = random_hermitian(5, seed=21)
        state = ComponentState(tuple(random_ket(rng) for _ in H.dims))
        counts = Counter()
        for cls in (Ket, ComponentState, HermitianOperator):
            def counting(self, _validate=cls.__post_init__, _name=cls.__name__):
                counts[_name] += 1
                _validate(self)
            monkeypatch.setattr(cls, "__post_init__", counting)
        built = {}
        for steps in (10, 50):
            counts.clear()
            evolve(SplittingScheme.STRANG, H, state, 0.01, steps)
            built[steps] = dict(counts)
        assert built[10] == built[50]


LT, STRANG = SplittingScheme.LIE_TROTTER, SplittingScheme.STRANG
ROW_SYSTEMS = {**SYSTEMS, "232": lambda: random_hermitian_on(np.random.default_rng(7), (2, 3, 2))}
# (scheme, dt, steps) of each row: both schemes, four step sizes and five
# lengths. The 300-step row crosses a finiteness block and finishes alone.
MIXED_ROWS = [(LT, 0.04, 7), (STRANG, 0.02, 30), (LT, 0.01, 30), (STRANG, 0.1, 3),
              (STRANG, 0.04, 300), (LT, 0.02, 12)]


def random_states(rng, dims, count) -> list[ComponentState]:
    return [ComponentState(tuple(random_ket(rng, d, normalize=False) for d in dims))
            for _ in range(count)]


def run_batch(H, rows, states) -> list:
    schemes, dts, steps = zip(*rows)
    return evolve_rows(H, schemes, states, dts, steps)


def assert_rows_equal_evolve(H, rows, states, outcomes):
    for (scheme, dt, steps), state, traj in zip(rows, states, outcomes):
        alone = evolve(scheme, H, state, dt, steps)
        assert traj.dt == dt and traj.dims == alone.dims
        assert traj.components.tobytes() == alone.components.tobytes()
        assert traj.full.tobytes() == alone.full.tobytes()


def record_loops(monkeypatch) -> list:
    """Record ("batch", rows, steps) of every batch loop call and ("alone", 1,
    steps) of every ``_run`` call."""
    calls = []

    def batch(H, parts, plan, rows, _run_rows=propagators._run_rows):
        calls.append(("batch", len(parts[0]), len(rows)))
        return _run_rows(H, parts, plan, rows)

    def alone(H, parts, sequence, rows, _run=propagators._run):
        calls.append(("alone", 1, len(rows)))
        return _run(H, parts, sequence, rows)

    monkeypatch.setattr(propagators, "_run_rows", batch)
    monkeypatch.setattr(propagators, "_run", alone)
    return calls


def record_decompositions(monkeypatch, poison=None) -> list:
    """Record the shape of every stack the eigh gufunc decomposes.

    ``poison`` maps a call number (from 1) to the row of that call's stack
    whose matrix is replaced by NaN.
    """
    shapes = []
    poison = poison or {}

    def eigh_lo(matrices, signature, _eigh=_umath_linalg.eigh_lo):
        shapes.append(matrices.shape)
        if len(shapes) in poison:
            matrices = matrices.copy()
            matrices[poison[len(shapes)]] = np.nan
        return _eigh(matrices, signature=signature)

    monkeypatch.setattr(propagators, "_umath_linalg", SimpleNamespace(eigh_lo=eigh_lo))
    return shapes


class TestEvolveRows:
    """``evolve_rows`` runs rows of both schemes on one H as one batch, each
    row bit for bit its ``evolve`` run alone."""

    @pytest.mark.parametrize("system", list(ROW_SYSTEMS))
    def test_rows_equal_evolve_alone(self, rng, system):
        H = ROW_SYSTEMS[system]()
        states = random_states(rng, H.dims, len(MIXED_ROWS))
        assert_rows_equal_evolve(H, MIXED_ROWS, states, run_batch(H, MIXED_ROWS, states))

    @pytest.mark.parametrize("system", list(ROW_SYSTEMS))
    def test_rows_leave_as_they_end_and_the_last_one_finishes_alone(self, rng, monkeypatch,
                                                                    system):
        """The batch shrinks as rows end, and runs at most a finiteness block
        at a time; the last row left runs on in ``_run``, in blocks from there."""
        calls = record_loops(monkeypatch)
        H = ROW_SYSTEMS[system]()
        rows = [(LT, 0.05, 3), (STRANG, 0.05, 5), (LT, 0.02, 300), (STRANG, 0.02, 600)]
        states = random_states(rng, H.dims, len(rows))
        outcomes = run_batch(H, rows, states)
        assert calls == [("batch", 4, 3), ("batch", 3, 2), ("batch", 2, 256),
                         ("batch", 2, 39), ("alone", 1, 256), ("alone", 1, 44)]
        monkeypatch.undo()
        assert_rows_equal_evolve(H, rows, states, outcomes)

    @pytest.mark.parametrize("system", list(ROW_SYSTEMS))
    def test_a_zero_time_flow_would_move_the_rows_that_hold(self, rng, monkeypatch, system):
        """The counter-case of holding by selection: rows that flow for time 0
        where they hold come out with other bits, which the equality tests
        would catch. Lie-Trotter rows hold on Strang's way back; Strang rows
        never hold."""

        def flowing(order, taus, _plan=propagators._plan):
            return [(k, tau, None) for k, tau, _ in _plan(order, taus)]

        monkeypatch.setattr(propagators, "_plan", flowing)
        H = ROW_SYSTEMS[system]()
        states = random_states(rng, H.dims, len(MIXED_ROWS))
        outcomes = run_batch(H, MIXED_ROWS, states)
        monkeypatch.undo()
        moved = [traj.components.tobytes() != evolve(scheme, H, state, dt, steps)
                 .components.tobytes()
                 for (scheme, dt, steps), state, traj in zip(MIXED_ROWS, states, outcomes)]
        assert moved == [scheme is LT for scheme, _, _ in MIXED_ROWS]

    @pytest.mark.parametrize("system", list(ROW_SYSTEMS))
    @pytest.mark.parametrize("schemes", [(LT, LT), (LT, STRANG), (STRANG, STRANG)],
                             ids=["lie_trotter", "mixed", "strang"])
    def test_one_stacked_decomposition_per_sub_step_of_the_shared_order(
            self, rng, monkeypatch, system, schemes):
        """Lie-Trotter rows alone take Lie-Trotter's order, n sub-steps a step.
        With a Strang row the batch takes Strang's 2n - 1, and a step's last
        sub-step and the next one's first share a decomposition."""
        shapes = record_decompositions(monkeypatch)
        H = ROW_SYSTEMS[system]()
        n, steps = len(H.dims), 10
        run_batch(H, [(scheme, 0.05, steps) for scheme in schemes],
                  random_states(rng, H.dims, 2))
        first, per_step = (n, n) if STRANG not in schemes else (2 * n - 1, 2 * n - 2)
        assert len(shapes) == first + (steps - 1) * per_step
        assert {shape[0] for shape in shapes} == {2}

    @pytest.mark.filterwarnings("error")  # the overflow raises no numpy warning
    @pytest.mark.parametrize("system, big", [
        ("ladder", [[1e154, 0.0, 0.0], [0.6, 0.8, 0.0], [1.0, 0.0, 0.0]]),
        ("random5", [[1e154, 0.0], [0.6, 0.8], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
    ])
    def test_an_overflowing_row_ends_alone(self, rng, system, big):
        """The states of ``test_overflow_is_reported_once_after_the_run`` end
        with their own error, naming step 1; the other rows do not move."""
        H = correlator_hamiltonian(1) if system == "ladder" else random_hermitian(5, seed=3)
        overflowing = ComponentState(tuple(Ket(np.array(v, dtype=complex)) for v in big))
        rows = [(LT, 0.1, 3), (STRANG, 0.05, 40), (STRANG, 0.1, 3), (LT, 0.02, 20)]
        fine = random_states(rng, H.dims, 2)
        states = [overflowing, fine[0], overflowing, fine[1]]
        outcomes = run_batch(H, rows, states)
        for j in (0, 2):
            assert isinstance(outcomes[j], NonFiniteStateError)
            assert str(outcomes[j]) == "splitting step 1 produced a non-finite state"
        assert_rows_equal_evolve(H, rows[1::2], states[1::2], outcomes[1::2])

    def test_a_row_that_turns_non_finite_later_names_its_step(self, rng, monkeypatch):
        """A NaN decomposition of row 0 in step 300, in the second finiteness
        block, ends row 0 there; row 1 goes on and finishes alone, unmoved.

        On swap the shared order is Strang's (1, 0, 1): 3 decompositions in
        the first step of each block, then 2 a step, so decomposition
        513 + 3 + 2 * 42 + 1 = 601 is step 300's first flow of the
        Lie-Trotter row.
        """
        shapes = record_decompositions(monkeypatch, poison={601: 0})
        calls = record_loops(monkeypatch)
        H = swap_hamiltonian(2)
        rows = [(LT, 0.01, 600), (STRANG, 0.005, 700)]
        states = random_states(rng, H.dims, 2)
        outcomes = run_batch(H, rows, states)
        assert shapes[600] == (2, 2, 2)
        assert isinstance(outcomes[0], NonFiniteStateError)
        assert str(outcomes[0]) == "splitting step 300 produced a non-finite state"
        assert calls[:2] == [("batch", 2, 256), ("batch", 2, 256)]
        assert calls[2:] == [("alone", 1, 188)]
        monkeypatch.undo()
        assert_rows_equal_evolve(H, rows[1:], states[1:], outcomes[1:])

    def test_inputs_are_checked_before_any_step(self, rng, monkeypatch):
        calls = record_loops(monkeypatch)
        H = random_hermitian(2, seed=4)
        states = random_states(rng, H.dims, 2)
        states[1] = ComponentState((random_ket(rng), Ket(np.zeros(2, dtype=complex))))
        with pytest.raises(DegenerateStateError, match="context state 1"):
            run_batch(H, [(LT, 0.1, 5), (STRANG, 0.1, 5)], states)
        with pytest.raises(ValueError, match="steps must be at least 1"):
            run_batch(H, [(LT, 0.1, 5), (STRANG, 0.1, 0)], states[:1] * 2)
        with pytest.raises(ValueError):
            evolve_rows(H, [LT, STRANG], states[:1], [0.1, 0.1], [5, 5])
        assert calls == []
        assert evolve_rows(H, [], [], [], []) == []


class TestSeEvolve:
    def test_grid_matches_pointwise_flow(self, rng):
        H = random_hermitian(2, seed=13)
        psi0 = FullState(random_ket(rng, 4).amplitudes, (2, 2))
        traj = se_evolve(H, psi0, 0.2, 10)
        for i in (0, 3, 10):
            direct = hermitian_expm_apply(H, traj.times[i], psi0.amplitudes)
            assert np.max(np.abs(traj.full[i] - direct)) < 1e-12

    def test_operator_and_state_layouts_must_agree(self, rng):
        # Equal total dimension, different tensor layout: a trajectory labelled
        # (4, 2) would split the reduced densities at the wrong place.
        H = random_hermitian_on(rng, (2, 4))
        psi0 = FullState(random_ket(rng, 8).amplitudes, (4, 2))
        with pytest.raises(ValueError,
                           match=r"operator dims \(2, 4\) do not match state dims \(4, 2\)"):
            se_evolve(H, psi0, 0.1, 3)


class TestTrajectoryValidation:
    @pytest.mark.parametrize("dt", [0.0, -0.1, np.nan, np.inf])
    def test_rejects_a_step_that_is_not_finite_and_positive(self, dt):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            Trajectory(dt, (2, 2), full=np.ones((2, 4)))

    def test_needs_full_or_components(self):
        with pytest.raises(ValueError, match="needs full or components"):
            Trajectory(0.1, (2, 2))

    def test_rejects_row_counts_that_disagree(self):
        with pytest.raises(ValueError, match="components has shape"):
            Trajectory(0.1, (2, 2), full=np.ones((3, 4)), components=np.ones((2, 4)))

    def test_rejects_mismatched_states(self):
        with pytest.raises(ValueError):
            Trajectory(0.1, (2, 2), full=np.ones((2, 3)))
        with pytest.raises(ValueError):
            Trajectory(0.1, (2, 2), components=np.ones((2, 3)))
        with pytest.raises(ValueError):
            Trajectory(0.1, (2, 2), full=np.ones(4))

    @pytest.mark.parametrize("dt, rows", [(0.1, 1), (0.01, 101), (0.37, 6)])
    def test_times_are_derived_and_read_only(self, dt, rows):
        traj = Trajectory(dt, (2, 2), components=np.ones((rows, 4)))
        assert np.array_equal(traj.times, dt * np.arange(rows))
        assert not traj.times.flags.writeable
        with pytest.raises(ValueError):
            traj.times[0] = 1.0

    def test_runs_keep_the_grid_they_were_given(self, fig1_state):
        H = swap_hamiltonian(2)
        for traj in (evolve(SplittingScheme.STRANG, H, fig1_state, 0.1, 7),
                     se_evolve(H, tensor_product(fig1_state), 0.1, 7)):
            assert traj.dt == 0.1
            assert np.array_equal(traj.times, 0.1 * np.arange(8))

    def test_components_imply_full_state(self, rng):
        rows = np.stack([stacked(ComponentState((random_ket(rng), random_ket(rng))))
                         for _ in range(3)])
        traj = Trajectory.from_components(1.0, rows, (2, 2))
        for row, full in zip(rows, traj.full):
            expected = tensor_product(ComponentState((Ket(row[:2]), Ket(row[2:]))))
            assert np.array_equal(full, expected.amplitudes)
        assert np.allclose(traj.norm, np.linalg.norm(traj.full, axis=1))
        assert not traj.full.flags.writeable


class TestSplittingInvariants:
    """Every sub-step is a unitary flow of one component, so a splitting step
    keeps each component's norm, whatever H couples them."""

    @given(seed=st.integers(0, 2**32 - 1),
           dims=st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 2, 2)]),
           dt=st.floats(1e-3, 2.0),
           step=st.sampled_from([lie_trotter_step, strang_step]))
    @settings(max_examples=60, deadline=None)
    def test_each_component_keeps_its_norm(self, seed, dims, dt, step):
        rng = np.random.default_rng(seed)
        H = random_hermitian_on(rng, dims)
        state = ComponentState(tuple(random_ket(rng, d, normalize=False) for d in dims))
        after = step(H, stacked(state), dt)
        for before_part, after_part in zip(state.parts, split_components(after, dims)):
            assert np.linalg.norm(after_part) == pytest.approx(before_part.norm(), rel=1e-12)
