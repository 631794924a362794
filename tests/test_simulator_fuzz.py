"""Randomized differential checks: optimized simulator vs full-register oracle.

Random circuits exercise every combination the stock protocols do not:
mixed gate kinds, unused wires, ancilla outputs, multi-round classical
feedback, and circuits glued by tensor/compose.
"""

import numpy as np

from compent.circuits import (
    CONTROLLED,
    PINCH,
    UNITARY,
    Gate,
    LoccCircuit,
    Round,
    _as_vector,
    apply,
    circuit_from_dict,
    circuit_to_dict,
    compose,
    gate_count,
    tensor,
)
from compent.linalg import haar_unitary
from compent.states import (
    bipartite_from_matrix,
    bipartite_pure,
    random_density_matrix,
    random_pure_state,
    tensor_states,
)

from oracles import CNOT, apply_reference


def random_gate(rng, party_wires, c_wires):
    kind = rng.choice([UNITARY, UNITARY, CONTROLLED, PINCH])
    if kind == PINCH and c_wires:
        count = int(rng.integers(1, min(2, len(c_wires)) + 1))
        wires = rng.choice(c_wires, size=count, replace=False)
        return Gate.pinch(tuple(int(w) for w in wires))
    if kind == CONTROLLED and len(party_wires) >= 2:
        picks = rng.choice(party_wires, size=2, replace=False)
        return Gate.controlled(haar_unitary(2, rng), (int(picks[1]),), (int(picks[0]),))
    count = int(rng.integers(1, min(2, len(party_wires)) + 1))
    wires = rng.choice(party_wires, size=count, replace=False)
    return Gate.unitary(haar_unitary(2 ** count, rng), tuple(int(w) for w in wires))


def random_circuit(rng, max_total=8):
    while True:
        n_a, n_b = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        t_a, t_b = int(rng.integers(0, 3)), int(rng.integers(0, 2))
        q = int(rng.integers(0, 3))
        if n_a + t_a + q + n_b + t_b <= max_total:
            break
    probe = LoccCircuit(n_a, t_a, q, n_b, t_b, (Round(),), 1, 1)
    alice_wires = list(probe.alice_wires)
    bob_wires = list(probe.bob_wires)
    c_wires = list(probe.c_wires)
    rounds = []
    for _ in range(int(rng.integers(1, 4))):
        alice = tuple(
            random_gate(rng, alice_wires, c_wires) for _ in range(int(rng.integers(0, 4)))
        )
        bob = tuple(
            random_gate(rng, bob_wires, c_wires) for _ in range(int(rng.integers(0, 4)))
        )
        rounds.append(Round(alice, bob))
    m_a = int(rng.integers(1, n_a + t_a + 1))
    m_b = int(rng.integers(1, n_b + t_b + 1))
    out_a = tuple(int(w) for w in rng.choice(n_a + t_a, size=m_a, replace=False))
    out_b = tuple(int(w) for w in rng.choice(n_b + t_b, size=m_b, replace=False))
    return LoccCircuit(n_a, t_a, q, n_b, t_b, tuple(rounds), m_a, m_b,
                       out_a=out_a, out_b=out_b)


def random_inputs(circuit, rng):
    cut = (circuit.n_a, circuit.n_b)
    dim = 2 ** (cut[0] + cut[1])
    yield bipartite_from_matrix(random_density_matrix(dim, rng), cut)
    yield bipartite_pure(random_pure_state(cut[0] + cut[1], rng), cut)


def test_random_circuits_match_reference():
    rng = np.random.default_rng(90210)
    for trial in range(60):
        circuit = random_circuit(rng)
        for state in random_inputs(circuit, rng):
            fast = apply(circuit, state)
            slow = apply_reference(circuit, state)
            residual = np.max(np.abs(fast.matrix - slow.matrix))
            assert residual < 1e-10, (trial, residual)


def test_random_circuits_survive_serialization():
    rng = np.random.default_rng(777)
    for _ in range(10):
        circuit = random_circuit(rng)
        back = circuit_from_dict(circuit_to_dict(circuit))
        assert gate_count(back) == gate_count(circuit)
        state = next(random_inputs(circuit, rng))
        assert np.array_equal(apply(back, state).matrix, apply(circuit, state).matrix)


def test_random_tensor_matches_blockwise_application():
    rng = np.random.default_rng(4321)
    for trial in range(10):
        g1 = random_circuit(rng, max_total=6)
        g2 = random_circuit(rng, max_total=6)
        if g1.total_qubits + g2.total_qubits > 12:
            continue
        joint = tensor(g1, g2)
        rho1 = next(random_inputs(g1, rng))
        rho2 = next(random_inputs(g2, rng))
        lhs = apply(joint, tensor_states(rho1, rho2))
        rhs = tensor_states(apply(g1, rho1), apply(g2, rho2))
        assert np.max(np.abs(lhs.matrix - rhs.matrix)) < 1e-9, trial
        assert gate_count(joint) == gate_count(g1) + gate_count(g2)


def test_random_compose_matches_sequential():
    rng = np.random.default_rng(8888)
    trials = 0
    while trials < 10:
        first = random_circuit(rng, max_total=7)
        second = random_circuit(rng, max_total=7)
        if (second.n_a, second.n_b) != (first.m_a, first.m_b):
            continue
        if first.total_qubits + second.total_qubits - second.n_a - second.n_b > 12:
            continue
        trials += 1
        both = compose(second, first)
        state = next(random_inputs(first, rng))
        lhs = apply(both, state)
        rhs = apply(second, apply(first, state))
        assert np.max(np.abs(lhs.matrix - rhs.matrix)) < 1e-9
        assert gate_count(both) == gate_count(first) + gate_count(second)


def test_pure_inputs_at_the_purity_threshold_match_reference():
    # 256 amplitudes ride the state-vector path, 512 start as a density
    # tensor.  The pinch is the dephasing of C that ends Alice's half-round;
    # Bob's gate on C does not commute with it.  Wire 2 dies before it, and
    # the A wires from 3 on and the last three B wires are never touched
    for n_a, vector_path in ((4, True), (5, False)):
        rng = np.random.default_rng(n_a)
        c, b0 = n_a, n_a + 1
        circuit = LoccCircuit(n_a, 0, 1, 4, 0, (
            Round(alice=(Gate.unitary(haar_unitary(4, rng), (1, 2)),
                         Gate.unitary(CNOT, (0, c))),
                  bob=(Gate.unitary(haar_unitary(4, rng), (c, b0)),)),
        ), 2, 1, out_a=(0, 1), out_b=(0,))
        state = bipartite_pure(random_pure_state(n_a + 4, rng), (n_a, 4))
        assert (_as_vector(state.matrix) is not None) == vector_path
        residual = np.max(np.abs(apply(circuit, state).matrix
                                 - apply_reference(circuit, state).matrix))
        assert residual < 1e-10, (n_a, residual)
