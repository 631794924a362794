"""Bitwise pins of the simulator's gate step and of ``linalg.kron``.

Both must give the same bits as the ``np.kron`` / ``np.tensordot`` /
``np.moveaxis`` formulation they replace, signed zeros included, so every
comparison is on ``tobytes``, not ``==``.
"""

from itertools import combinations, permutations

import numpy as np
import pytest

from compent.circuits import Gate, _TensorState
from compent.linalg import haar_unitary, kron
from compent.states import random_density_matrix

from oracles import unitary_step_reference


def gate_on(wires, rng, f_ordered):
    """A Haar gate on ``wires``: a plain unitary on one or two wires, a
    controlled two-qubit payload on three or four (one or two controls)."""
    if len(wires) <= 2:
        u = haar_unitary(2 ** len(wires), rng)
        return Gate.unitary(u.conj().T if f_ordered else u, wires)
    u = haar_unitary(4, rng)
    return Gate.controlled(u.conj().T if f_ordered else u, wires[-2:], wires[:-2])


def sparse_product_vector(k):
    """An EPR pair on wires 0 and 1 (|+> when k = 1) times |0..0>, with -0.0
    in the zeros at odd indices."""
    v = np.zeros(2 ** k, dtype=complex)
    v[1::2] = complex(-0.0, -0.0)
    v[0] = v[3 * 2 ** (k - 2) if k > 1 else 1] = 1 / np.sqrt(2)
    return v


@pytest.mark.parametrize("k", range(1, 8))
def test_gate_step_is_bitwise_the_tensordot_step(k):
    rng = np.random.default_rng([909, k])
    sparse = sparse_product_vector(k)
    # (pure?, state): a Haar vector, the sparse vector, a Ginibre mixed state
    # and the sparse vector's projector
    states = [(True, haar_unitary(2 ** k, rng)[:, 0]), (True, sparse),
              (False, random_density_matrix(2 ** k, rng)), (False, np.outer(sparse, sparse.conj()))]
    for n in range(1, min(k, 4) + 1):
        # every order of every wire set up to k = 4, one random order of each above
        sets = (permutations(range(k), n) if k <= 4 else
                (tuple(rng.permutation(c)) for c in combinations(range(k), n)))
        for wires in sets:
            f_ordered = bool(rng.integers(2))
            g = gate_on(wires, rng, f_ordered)
            u, touched = g.operator(), g.touched()
            if f_ordered and n <= 2:
                assert not u.flags.c_contiguous
            for pure, state in states:
                if pure:
                    sim = _TensorState(None, range(k), vector=state)
                else:
                    sim = _TensorState(state, range(k))
                ref = unitary_step_reference(sim.t, u, touched, None if pure else k)
                sim.unitary(u, touched)
                assert sim.t.tobytes() == ref.tobytes(), (k, wires, pure)
                assert sim.t.strides == ref.strides


def test_sparse_input_holds_negative_zeros():
    v = sparse_product_vector(4)
    assert np.signbit(v.real).any() and np.signbit(np.outer(v, v.conj()).real).any()


@pytest.mark.parametrize("shapes", [((2, 2), (2, 2)), ((4, 4), (4, 4)), ((2, 4), (3, 1)),
                                    ((1, 1), (8, 8)), ((16, 16), (2, 2))])
def test_kron_is_bitwise_np_kron(shapes):
    (sa, sb), rng = shapes, np.random.default_rng(5)
    a = rng.standard_normal(sa) + 1j * rng.standard_normal(sa)
    b = rng.standard_normal(sb) + 1j * rng.standard_normal(sb)
    a.real[0, :] = -0.0
    b.imag[:, 0] = -0.0
    for x in (a, np.asfortranarray(a), a.conj()):
        for y in (b, np.asfortranarray(b), b.real, np.asfortranarray(b.real), np.eye(*sb)):
            for got, want in ((kron(x, y), np.kron(x, y)), (kron(y, x), np.kron(y, x))):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_apply_digest_script_names_each_case_once():
    import apply_digest

    lines = apply_digest.digests()
    assert len(lines) == 26 and len({name for name, _ in lines}) == 26
    assert all(len(digest) == 64 for _, digest in lines)
