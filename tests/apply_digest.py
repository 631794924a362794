"""Print SHA-256 digests of ``circuits.apply`` outputs on seeded inputs.

    PYTHONPATH=src python tests/apply_digest.py

Every random input is drawn here with plain numpy from fixed seeds, so two
source trees that simulate bit for bit alike print the same lines.  The cases are
the stock channel zoo on random mixed states, ``bbpssw_round`` on isotropic
pairs, the n=2 teleport on a noisy isotropic resource, a 3+3 Haar local
circuit on a mixed state, and a 5+5 one on a 1024-dimensional mixed state,
whose 10-qubit density tensor takes grouped gate moves, as the teleport's
lone gates on 8 and 9 wires take groups of one.  Then the pure
inputs, which the simulator runs as amplitude tensors until a pinch or
trace: the zoo on Haar pure states, the n=2 teleport on ``epr_pairs(2)``,
``bbpssw_round`` and the 3+3 circuit on Haar pure states, and a circuit
whose C wire no one reads on a Haar pure state.  Last come the
``grouped_cases``, whose runs of gates on an 8- or 9-wire density tensor
``_plan`` joins into grouped moves: a 4+4 circuit that traces non-output
wires out after its runs, and one whose run ends in a dephasing of C.  Each
line is ``<case> <sha256 of the output's bytes>``.  New cases go last, so
the lines of the earlier ones do not change.
"""

import hashlib

import numpy as np

from compent.circuits import (
    Gate, LoccCircuit, Round, apply, bbpssw_round, local_unitary_circuit, stock_channel_zoo,
    teleport_dilution,
)
from compent.states import DensityMatrix, epr_pairs

PHI = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def ginibre(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def haar(dim, rng):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def pure(dim, cut, rng):
    """The projector onto the first column of a Haar unitary."""
    v = haar(dim, rng)[:, 0]
    return DensityMatrix(np.outer(v, v.conj()), cut)


def isotropic(f):
    phi = np.outer(PHI, PHI.conj())
    return f * phi + (1 - f) * (np.eye(4) - phi) / 3.0


def pairs(*rhos):
    """Pairs (A_i, B_i) as one state on A_1..A_n B_1..B_n."""
    n = len(rhos)
    m = rhos[0]
    for r in rhos[1:]:
        m = np.kron(m, r)  # order A1 B1 A2 B2 ...
    order = [2 * i for i in range(n)] + [2 * i + 1 for i in range(n)]
    t = m.reshape((2,) * (4 * n)).transpose(order + [2 * n + q for q in order])
    return DensityMatrix(t.reshape(4 ** n, 4 ** n), (n, n))


def cases():
    """(name, circuit, input state) for every digested apply."""
    rng = np.random.default_rng(2026)
    for name, c in stock_channel_zoo():
        for i in range(3):
            rho = ginibre(2 ** (c.n_a + c.n_b), rng)
            yield f"zoo-{name}-{i}", c, DensityMatrix(rho, (c.n_a, c.n_b))
    for f in (0.6, 0.8, 0.95):
        yield f"bbpssw-F{f}", bbpssw_round(), pairs(isotropic(f), isotropic(f))
    prep = [Gate.unitary(haar(4, rng), w) for w in ((0, 2), (1, 3), (0, 1), (2, 3))]
    yield "teleport-n2-F0.9", teleport_dilution(prep, 2), pairs(isotropic(0.9), isotropic(0.9))
    alice, bob = ([Gate.unitary(haar(4, rng), (a + i, a + j)) for i, j in ((0, 1), (1, 2), (0, 2))]
                  + [Gate.unitary(haar(2, rng), (a + 2,))] for a in (0, 3))
    local_3 = local_unitary_circuit(alice, bob, 3, 3)
    yield "local-3+3", local_3, DensityMatrix(ginibre(64, rng), (3, 3))
    # a Haar gate on each wire, then one on each neighbouring pair
    alice, bob = ([Gate.unitary(haar(2, rng), (a + i,)) for i in range(5)]
                  + [Gate.unitary(haar(4, rng), (a + i, a + i + 1)) for i in range(4)] for a in (0, 5))
    local = local_unitary_circuit(alice, bob, 5, 5)
    yield "local-5+5", local, DensityMatrix(ginibre(1024, rng), (5, 5))
    # pure inputs: the simulator keeps an amplitude tensor until a pinch or trace
    for name, c in stock_channel_zoo():
        for i in range(3):
            yield f"pure-zoo-{name}-{i}", c, pure(2 ** (c.n_a + c.n_b), (c.n_a, c.n_b), rng)
    yield "pure-teleport-n2-epr", teleport_dilution(prep, 2), epr_pairs(2)
    yield "pure-bbpssw", bbpssw_round(), pure(16, (2, 2), rng)
    yield "pure-local-3+3", local_3, pure(64, (3, 3), rng)
    # Alice writes C and nobody reads it: her empty dephasing still traces the dead C wire out
    unread = LoccCircuit(1, 0, 1, 1, 0, (Round(alice=(Gate.unitary(haar(4, rng), (0, 1)),),
                                               bob=(Gate.unitary(haar(2, rng), (2,)),)),), 1, 1)
    yield "pure-unread-c", unread, pure(4, (1, 1), rng)


def grouped_cases():
    """(name, circuit, input state) for the applies that run grouped moves."""
    rng = np.random.default_rng(2033)

    def run(wires):
        """A Haar gate on each wire, a Haar gate on each neighbouring pair, and
        the first wire controlling a Haar payload on the last."""
        return ([Gate.unitary(haar(2, rng), (w,)) for w in wires]
                + [Gate.unitary(haar(4, rng), pair) for pair in zip(wires, wires[1:])]
                + [Gate.controlled(haar(2, rng), (wires[-1],), (wires[0],))])

    # wires 1, 2 of each side's four are no output: each is traced out after its last gate
    traced = LoccCircuit(4, 0, 0, 4, 0, (Round(tuple(run((0, 1, 2, 3))), tuple(run((4, 5, 6, 7)))),),
                         2, 2, out_a=(0, 3), out_b=(0, 3))
    yield "grouped-traced-4+4", traced, DensityMatrix(ginibre(256, rng), (4, 4))
    # Alice writes C (wire 4) first, so her later gates run on 9 wires, then C is dephased
    alice = (Gate.unitary(_CNOT, (0, 4)), *run((0, 1, 2, 3)), Gate.unitary(_CNOT, (3, 4)))
    bob = (Gate.controlled(haar(2, rng), (5,), (4,)), *run((5, 6, 7, 8)))
    pinched = LoccCircuit(4, 0, 1, 4, 0, (Round(alice, bob),), 4, 4)
    yield "grouped-pinched-4+4", pinched, DensityMatrix(ginibre(256, rng), (4, 4))


def digests(source=cases):
    return [(name, hashlib.sha256(apply(c, s).matrix.tobytes()).hexdigest())
            for name, c, s in source()]


if __name__ == "__main__":
    for name, digest in digests() + digests(grouped_cases):
        print(name, digest)
