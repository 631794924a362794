"""Teleportation as a dilution witness: consume EPR pairs, emit a target state.

The circuit lives in the five-register LOCC model: Alice prepares the
target's purification in her ancilla block, Bell-measures each teleported
qubit against her EPR half, writes both outcome bits into the shared
classical register, and Bob applies the classically controlled corrections.

Run:  python3 demos/teleport_walkthrough.py
"""

import numpy as np

from compent import Gate, apply, epr_pairs, fidelity, gate_count, teleport_dilution
from compent.measures import p_err_dilute
from compent.states import bipartite_pure, column_unitary, random_pure_state, tensor_states

rng = np.random.default_rng(7)

target_vec = random_pure_state(2, rng)
target = bipartite_pure(target_vec, (1, 1))
circuit = teleport_dilution([Gate.unitary(column_unitary(target_vec), (0, 1))], n=1)

print("registers: A=%d A'=%d C=%d B=%d B'=%d" % (
    circuit.n_a, circuit.t_a, circuit.q, circuit.n_b, circuit.t_b))
print("rounds:", len(circuit.rounds))
print("gate count (gates + pinched wires + ancilla creation):", gate_count(circuit))

out = apply(circuit, epr_pairs(1))
print(f"\noutput fidelity with the target: {fidelity(out, target):.12f}")
print(f"p_err as a dilution witness:     {p_err_dilute(circuit, target, 1):.3e}")

print("\nthe same machinery scales to two pairs (a product of two blocks):")
vecs = [random_pure_state(2, rng) for _ in range(2)]
prep = [
    Gate.unitary(column_unitary(vecs[0]), (0, 2)),
    Gate.unitary(column_unitary(vecs[1]), (1, 3)),
]
two = teleport_dilution(prep, n=2)
joint_target = tensor_states(bipartite_pure(vecs[0], (1, 1)), bipartite_pure(vecs[1], (1, 1)))
print(f"p_err over two teleported qubits: {p_err_dilute(two, joint_target, 2):.3e}")
print(f"gate count: {gate_count(two)}")
