"""The states the package builds itself skip ``DensityMatrix``'s checks.

Each such producer is pinned here: its output passes the full public check
and is, bit for bit, the state that check builds from the same matrix and
cut.  The public constructors and loaders keep refusing every bad input.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compent
from compent import circuits
from compent.circuits import (
    Gate,
    apply,
    circuit_from_dict,
    circuit_to_dict,
    conjugate_by_local_unitary,
    dephase_bob_circuit,
    identity_circuit,
    keyed_pauli_rotate,
    keyed_pauli_state,
    keyed_pauli_unrotate,
    replace_bob_circuit,
    stock_channel_zoo,
    teleport_dilution,
)
from compent.harness import run_suites
from compent.linalg import SizeLimitError, haar_unitary, matrix_to_dict
from compent.packing import _paulis
from compent.states import (
    DensityMatrix,
    bipartite_from_matrix,
    bipartite_pure,
    conjugate_local,
    epr_pairs,
    epr_vector,
    mixture,
    random_density_matrix,
    random_pure_state,
    rotated_epr,
    shared,
    state_from_dict,
    state_to_dict,
    tensor_states,
)

from oracles import H, apply_reference

RNG = np.random.default_rng(13)


def _small_zoo():
    """Fresh stock channels, minus the 9-qubit purification round, whose
    static oracle takes seconds."""
    return [(name, c) for name, c in stock_channel_zoo() if c.total_qubits <= 6]


def _mixed(cut):
    return bipartite_from_matrix(random_density_matrix(2 ** sum(cut), RNG), cut)


def _products():
    """(name, state) for each trusted producer on seeded inputs."""
    rho, sigma = _mixed((1, 1)), _mixed((1, 1))
    u2 = haar_unitary(4, RNG)
    yield from ((f"epr_pairs({n})", epr_pairs(n)) for n in (1, 2, 3, 4))
    yield from ((f"rotated_epr(m={m})", rotated_epr(haar_unitary(2 ** m, RNG), m)) for m in (1, 2))
    yield "tensor_states", tensor_states(rho, _mixed((2, 1)))
    yield "conjugate_local", conjugate_local(rho, haar_unitary(2, RNG), haar_unitary(2, RNG))
    yield "mixture", mixture([rho, sigma, rotated_epr(haar_unitary(2, RNG), 1)], [0.2, 0.3, 0.5])
    yield "reduce", _mixed((1, 2)).reduce((1,))
    yield "reduce-pure", rotated_epr(u2, 2).reduce((1, 0))
    for name, circuit in stock_channel_zoo():
        yield f"apply({name})", apply(circuit, _mixed((circuit.n_a, circuit.n_b)))
    yield "apply(teleport)", apply(teleport_dilution([], 1), epr_pairs(1))


@pytest.mark.parametrize("state", [pytest.param(s, id=name) for name, s in _products()])
def test_trusted_output_passes_the_public_check_bit_for_bit(state):
    checked = DensityMatrix(state.matrix.copy(), state.cut)
    assert type(state) is DensityMatrix
    assert checked.cut == state.cut and all(type(c) is int for c in state.cut)
    assert checked.matrix.dtype == state.matrix.dtype == np.complex128
    assert checked.matrix.tobytes() == state.matrix.tobytes()


def test_pure_producers_equal_bipartite_pure_bit_for_bit():
    for n in (1, 2, 3):
        assert epr_pairs(n).matrix.tobytes() == bipartite_pure(epr_vector(n), (n, n)).matrix.tobytes()
    for m in (1, 2):
        u = haar_unitary(2 ** m, RNG)
        v = u.T.reshape(-1) / math.sqrt(2 ** m)
        assert rotated_epr(u, m).matrix.tobytes() == bipartite_pure(v, (m, m)).matrix.tobytes()


def test_apply_output_matches_the_static_oracle():
    for name, circuit in _small_zoo():
        state = _mixed((circuit.n_a, circuit.n_b))
        assert np.allclose(apply(circuit, state).matrix,
                           apply_reference(circuit, state).matrix, atol=1e-12), name


SHARED_BUILDS = {
    "epr_pairs(1)": lambda: epr_pairs(1),
    "epr_pairs(2)": lambda: epr_pairs(2),
    "epr_pairs(3)": lambda: epr_pairs(3),
    "_paulis(1)": lambda: _paulis(1),
    "_paulis(2)": lambda: _paulis(2),
    "identity_circuit(1, 1)": lambda: identity_circuit(1, 1),
    "identity_circuit(2, 1)": lambda: identity_circuit(2, 1),
    "dephase_bob_circuit(2)": lambda: dephase_bob_circuit(2),
    "replace_bob_circuit(1)": lambda: replace_bob_circuit(1),
    "keyed_pauli_state": lambda: keyed_pauli_state((0, 1), 1),
    "keyed_pauli_state(m=3)": lambda: keyed_pauli_state((1, 0, 1), 3),
    "keyed_pauli_rotate": lambda: keyed_pauli_rotate((1, 1, 0), 2),
    "keyed_pauli_unrotate": lambda: keyed_pauli_unrotate((1, 0), 1),
}


def _arrays(built):
    if isinstance(built, np.ndarray):
        return [built]
    if isinstance(built, DensityMatrix):
        return [built.matrix]
    return [g.matrix for rnd in built.rounds for g in (*rnd.alice, *rnd.bob) if g.matrix is not None]


@pytest.mark.parametrize("name", sorted(SHARED_BUILDS))
def test_stock_builders_return_one_read_only_object(name):
    built = SHARED_BUILDS[name]()
    assert SHARED_BUILDS[name]() is built
    assert all(build() is not built for other, build in SHARED_BUILDS.items() if other != name)
    arrays = _arrays(built)
    assert arrays or name.startswith("identity")
    for a in arrays:
        with pytest.raises(ValueError):
            a[0, 0] = 0.0


def test_shared_keeps_a_result_of_up_to_4096_entries_per_array():
    zeros = shared(lambda n: np.zeros(n))
    kept, big = zeros(4096), zeros(4097)
    assert zeros(4096) is kept
    assert zeros(4097) is not big
    for a in (kept, big):
        with pytest.raises(ValueError):
            a[0] = 1.0
    # three EPR pairs are a 64 x 64 matrix; above them each call builds its
    # own state, read-only as well
    assert epr_pairs(3).matrix.size == 4096
    big = epr_pairs(4)
    assert big is not epr_pairs(4)
    with pytest.raises(ValueError):
        big.matrix[0, 0] = 0.0


def _gates():
    """Public gates, and the remapped gates of every stock circuit."""
    yield Gate.unitary(haar_unitary(4, RNG), (0, 1))
    yield Gate.controlled(H, (1,), (0,))
    yield Gate.unitary(H, (0,)).remap({0: 3})
    stock = [c for _, c in stock_channel_zoo()] + [teleport_dilution([Gate.unitary(H, (0,))], 1)]
    yield from (g for c in stock for rnd in c.rounds for g in (*rnd.alice, *rnd.bob) if g.matrix is not None)


def test_states_gates_and_shared_results_hold_only_read_only_arrays():
    m = random_density_matrix(4, RNG)
    public = [DensityMatrix(m.copy(), (1, 1)), bipartite_from_matrix(m.copy(), (1, 1)),
              bipartite_pure(random_pure_state(2, RNG), (1, 1)),
              state_from_dict({"dims": [4, 4], "cut": [1, 1], **matrix_to_dict(m)})]
    arrays = [s.matrix for s in (*public, *(state for _, state in _products()))]
    arrays += [g.matrix for g in _gates()]
    arrays += [a for build in SHARED_BUILDS.values() for a in _arrays(build())]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0.0


def test_a_write_to_the_callers_array_cannot_change_a_state_or_a_gate():
    m = np.outer(epr_vector(1), epr_vector(1))
    rho = DensityMatrix(m, (1, 1))
    assert rho.matrix is m  # an array that owns its data is frozen in place, not copied
    first = apply(identity_circuit(1, 1), rho)
    with pytest.raises(ValueError):
        m[:] = np.eye(4) / 4
    assert apply(identity_circuit(1, 1), rho).matrix.tobytes() == first.matrix.tobytes()
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    gate = Gate.unitary(u, (0,))
    with pytest.raises(ValueError):
        u[:] = [[2, 0], [0, 0]]
    assert abs(apply(circuits.local_unitary_circuit([gate], [], 1, 1), rho).matrix.trace() - 1.0) < 1e-12
    # a view is copied, in its memory order: its base stays writable
    base = np.asfortranarray(np.kron(np.eye(2), random_density_matrix(2, RNG)) / 2)
    view = base[:, :]
    rho = DensityMatrix(view, (1, 1))
    assert rho.matrix.flags.f_contiguous and rho.matrix.tobytes("A") == view.tobytes("A")
    base[0, 0] = 7.0
    assert rho.matrix[0, 0] != 7.0 and not rho.matrix.flags.writeable
    payload = haar_unitary(2, RNG, 2)
    gate = Gate.unitary(payload[1], (0,))
    payload[1] = np.eye(2)
    assert not np.allclose(gate.matrix, np.eye(2)) and not gate.matrix.flags.writeable
    # a loaded matrix owns its data, so the loaded state keeps it without a second copy
    loaded = state_from_dict(state_to_dict(rho))
    assert loaded.matrix.base is None and np.array_equal(loaded.matrix, rho.matrix)


def test_keyed_builders_share_one_object_per_padded_key():
    for build in (keyed_pauli_state, keyed_pauli_rotate, keyed_pauli_unrotate):
        assert build([1, 0], 1) is build((1, 0), 1) is build((1,), 1)
        assert build((0, 1), 1) is not build((1, 0), 1)
    # above three pairs, as with epr_pairs, each call builds its own state,
    # read-only as well
    big = keyed_pauli_state((1,), 4)
    assert big is not keyed_pauli_state((1,), 4)
    assert big.matrix.tobytes() == keyed_pauli_state((1,), 4).matrix.tobytes()
    assert not big.matrix.flags.writeable


def test_shared_builders_refuse_bad_arguments_as_before():
    # each valid twin is built and shared first: a bad argument equal to it
    # (1.0 == 1) or not hashable must still be refused
    for build in (keyed_pauli_state, keyed_pauli_rotate, keyed_pauli_unrotate):
        build((1,), 1)
        for bad in ((1.0,), [1.0], (2,), (0, 1, 1)):
            with pytest.raises(ValueError):
                build(bad, 1)
        with pytest.raises(TypeError):
            build(1, 1)
    identity_circuit(1, 1)
    for bad in ((1.0, 1), ([1], 1), (1, -1)):
        with pytest.raises(ValueError):
            identity_circuit(*bad)
    dephase_bob_circuit(1)
    for build in (dephase_bob_circuit, replace_bob_circuit):
        for bad in (1.0, [1], 0):
            with pytest.raises(ValueError):
                build(bad)
    epr_pairs(2)
    for bad in (2.0, [2], 0):
        with pytest.raises(ValueError):
            epr_pairs(bad)


def test_epr_pairs_refuses_a_float_count_in_a_fresh_process_too():
    # 2.0 == 2: refused before the shared 2-pair state exists and after it
    code = ("from compent.states import epr_pairs\n"
            "for n in (2.0, 2, 2.0):\n"
            "    try:\n"
            "        print(epr_pairs(n).cut)\n"
            "    except ValueError as e:\n"
            "        print(type(e).__name__)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(compent.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stdout) == (0, "ValueError\n(2, 2)\nValueError\n"), done.stderr


def test_pair_counts_are_refused_before_anything_is_built(monkeypatch):
    # not unitary: a check that came after the unitarity check would report that
    with pytest.raises(SizeLimitError):
        rotated_epr(np.zeros((256, 256)), 8)
    for m in (0, -1):
        with pytest.raises(SizeLimitError):
            rotated_epr(np.eye(1), m)

    def built(a, b):
        raise AssertionError(f"a Pauli shift on {len(a)} qubits was built")

    monkeypatch.setattr(circuits, "pauli_shift", built)
    for build in (keyed_pauli_state, keyed_pauli_rotate, keyed_pauli_unrotate):
        for key, m in (((), 0), ((), -1), ((1,), 8)):
            with pytest.raises(SizeLimitError):
                build(key, m)


def test_applies_of_one_circuit_reuse_its_plan_bit_for_bit():
    zoo = [(name, c) for name, c in stock_channel_zoo() if c.total_qubits <= 6]
    for name, circuit in [*zoo, ("dephase_bob_circuit(2)", dephase_bob_circuit(2))]:
        cut = (circuit.n_a, circuit.n_b)
        for rho in (_mixed(cut), bipartite_pure(random_pure_state(sum(cut), RNG), cut)):
            first, second = apply(circuit, rho), apply(circuit, rho)
            fresh = apply(circuit_from_dict(circuit_to_dict(circuit)), rho)
            assert first.matrix.tobytes() == second.matrix.tobytes() == fresh.matrix.tobytes(), name
            assert np.allclose(first.matrix, apply_reference(circuit, rho).matrix, atol=1e-12), name
    # a circuit derived from a planned one runs its own plan
    base = identity_circuit(1, 1)
    rho = _mixed((1, 1))
    apply(base, rho)
    turned = conjugate_by_local_unitary(base, [], [Gate.unitary(H, (0,))])
    assert np.allclose(apply(turned, rho).matrix, apply_reference(turned, rho).matrix, atol=1e-12)
    assert apply(base, rho).matrix.tobytes() == rho.matrix.tobytes()


def test_run_suites_repeats_in_one_process():
    # the shared objects live as long as the process; a run at another seed
    # between two seed-7 runs must leave the second unchanged
    first = run_suites(["all"], [1, 2, 3], 7)
    other = run_suites(["all"], [1, 2, 3], 0)
    second = run_suites(["all"], [1, 2, 3], 7)
    assert first == second != other
    assert [r.to_dict() for r in first] == [r.to_dict() for r in second]


def test_a_reused_input_gives_the_same_output_as_a_fresh_one():
    # apply probes a state for purity once and keeps the answer on it
    circuit = teleport_dilution([], 2)
    shared = epr_pairs(2)
    fresh = bipartite_pure(epr_vector(2), (2, 2))
    first, second = apply(circuit, shared), apply(circuit, shared)
    assert first.matrix.tobytes() == second.matrix.tobytes() == apply(circuit, fresh).matrix.tobytes()
    for name, circuit in _small_zoo():
        cut = (circuit.n_a, circuit.n_b)
        pure = bipartite_pure(random_pure_state(sum(cut), RNG), cut)
        for rho in (pure, _mixed(cut), pure):
            out = apply(circuit, rho)
            assert np.allclose(out.matrix, apply_reference(circuit, rho).matrix, atol=1e-12), name
            assert apply(circuit, rho).matrix.tobytes() == out.matrix.tobytes(), name
            again = DensityMatrix(rho.matrix, rho.cut)
            assert apply(circuit, again).matrix.tobytes() == out.matrix.tobytes(), name


_ZERO = np.diag([1.0, 0.0]).astype(complex)
BAD_MATRICES = {
    "non-hermitian": np.kron(np.array([[0.5, 0.5], [-0.5, 0.5]]), _ZERO),
    "trace-2": np.eye(4, dtype=complex) / 2,
    "negative-eigenvalue": np.kron(np.diag([1.0 + 1e-6, -1e-6]), _ZERO),
    "nan": np.kron(np.array([[np.nan, 0.0], [0.0, 1.0]]), _ZERO),
}
PUBLIC_LOADERS = {
    "DensityMatrix": lambda m: DensityMatrix(m, (1, 1)),
    "bipartite_from_matrix": lambda m: bipartite_from_matrix(m, (1, 1)),
    "state_from_dict": lambda m: state_from_dict({"dims": [4, 4], "cut": [1, 1], **matrix_to_dict(m)}),
}


@pytest.mark.parametrize("loader", sorted(PUBLIC_LOADERS))
@pytest.mark.parametrize("bad", sorted(BAD_MATRICES))
def test_public_loaders_refuse_bad_matrices(loader, bad):
    with pytest.raises(ValueError):
        PUBLIC_LOADERS[loader](BAD_MATRICES[bad])


@pytest.mark.parametrize("amplitudes", [[1.0, 0.0, 0.0, 1.0], [np.nan, 0.0, 0.0, 1.0], [0.5, 0.5, 0.5, 0.0]])
def test_bipartite_pure_refuses_bad_amplitudes(amplitudes):
    with pytest.raises(ValueError):
        bipartite_pure(amplitudes, (1, 1))


@pytest.mark.parametrize("u", [np.ones((2, 2)), np.eye(2) / 2, np.diag([1.0, np.nan]), np.eye(2) * (1 + 1e-8)])
def test_rotated_epr_refuses_a_non_unitary(u):
    with pytest.raises(ValueError):
        rotated_epr(u, 1)


def test_mixture_and_conjugate_local_refuse_a_tripartite_state():
    tri = DensityMatrix(random_density_matrix(8, RNG), (1, 1, 1))
    with pytest.raises(ValueError):
        mixture([tri, tri], [0.5, 0.5])
    with pytest.raises(ValueError):
        conjugate_local(tri, np.eye(2), np.eye(2))
