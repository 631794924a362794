"""Bitwise pins of the simulator's moves and of ``linalg.kron``.

The gate step (a single dot, or a one-step ``_group`` on a tensor of more
than 2**_STEP_AXES entries), the ancilla, pinch and pure partial-trace moves
and ``linalg.kron`` must give the same bits and strides
as the ``np.kron`` / ``np.tensordot`` / ``np.moveaxis`` formulation they
replace, signed zeros included, so every comparison is on ``tobytes``, not
``==``.  A run's plan hands a density-tensor step ``kron(U, conj U)`` and the
bra and ket axes of its wires, as the mixed tests here do.
"""

import tracemalloc
from itertools import combinations, permutations

import numpy as np
import pytest

from compent import circuits
from compent.circuits import _STEP_AXES, Gate, _densify, _ensure, _group, _pinch, _step, _trace_pure
from compent.linalg import haar_unitary, kron
from compent.states import random_density_matrix

from oracles import (
    ensure_reference, pinch_reference, pure_trace_out_reference, unitary_step_reference,
)


def gate_on(wires, rng, f_ordered):
    """A Haar gate on ``wires``: a plain unitary on one or two wires, a
    controlled two-qubit payload on three or four (one or two controls)."""
    if len(wires) <= 2:
        u = haar_unitary(2 ** len(wires), rng)
        return Gate.unitary(u.conj().T if f_ordered else u, wires)
    u = haar_unitary(4, rng)
    return Gate.controlled(u.conj().T if f_ordered else u, wires[-2:], wires[:-2])


def as_tensor(state, pure, k):
    """A copy of an amplitude vector or density matrix on k wires as the
    simulator's (2,)*k or (2,)*2k tensor."""
    return np.array(state, dtype=complex).reshape((2,) * (k if pure else 2 * k))


def step(t, u, wires, pure, k):
    """Gate ``u`` on the wires ``wires`` of k (wire i on axis i) as a plan runs it:
    on a density tensor, ``kron(u, conj u)`` on the bra and ket axes, and on a
    tensor of more than 2**_STEP_AXES entries as a one-step ``_group``."""
    u, axes = (u, list(wires)) if pure else (kron(u, u.conj()), [*wires, *(k + a for a in wires)])
    return _step(t, u, axes) if t.size <= 2 ** _STEP_AXES else _group(t, [(u, axes)])


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
                t = as_tensor(state, pure, k)
                ref = unitary_step_reference(t, u, touched, None if pure else k)
                got = step(t, u, touched, pure, k)
                assert got.tobytes() == ref.tobytes(), (k, wires, pure)
                assert got.strides == ref.strides


def assert_same(got, want, *info):
    assert got.tobytes() == want.tobytes(), info
    assert got.strides == want.strides, info


def payload_gate(kind, where, k, rng, f_ordered):
    """A Haar gate on the first, middle or last wires of k: a 1-qubit or a
    2-qubit unitary, or a 1-qubit payload under two controls."""
    n_wires = {"1q": 1, "2q": 2, "2-control": 3}[kind]
    start = {"first": 0, "middle": (k - n_wires) // 2, "last": k - n_wires}[where]
    wires = tuple(range(start + n_wires - 1, start - 1, -1))  # descending, so the order matters
    u = haar_unitary(2 if kind == "2-control" else 2 ** n_wires, rng)
    u = u.conj().T if f_ordered else u
    if kind == "2-control":
        return Gate.controlled(u, wires[:1], wires[1:])
    return Gate.unitary(u, wires)


@pytest.mark.parametrize("k", (8, 9, 10))
def test_blocked_gate_step_is_bitwise_the_tensordot_step(k):
    assert 2 * k > _STEP_AXES  # every case here runs as a one-step group
    rng = np.random.default_rng([910, k])
    rho = random_density_matrix(2 ** k, rng)
    for kind in ("1q", "2q", "2-control"):
        for where in ("first", "middle", "last"):
            for f_ordered in (False, True):
                g = payload_gate(kind, where, k, rng, f_ordered)
                u, touched = g.operator(), g.touched()
                t = as_tensor(rho, False, k)
                ref = unitary_step_reference(t, u, touched, k)
                assert_same(step(t, u, touched, False, k), ref, kind, where, f_ordered)


def test_blocked_gate_step_allocates_one_tensor(monkeypatch):
    # on one thread: the tensor, a block buffer and the copy its dot reads (the
    # helper thread's two more blocks are pinned in test_step_groups.py)
    monkeypatch.setattr(circuits, "_BLAS_ONE", False)
    k = 10
    rng = np.random.default_rng(911)
    t = as_tensor(random_density_matrix(2 ** k, rng), False, k)
    u = haar_unitary(4, rng)
    superop = kron(u, u.conj())  # built once on the plan, outside the run
    tracemalloc.start()
    try:
        t = _group(t, [(superop, [3, 7, k + 3, k + 7])])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * t.nbytes


def stepped_states(k, rng):
    """(pure?, tensor) pairs on k wires: a Haar vector, the sparse vector, a
    Ginibre mixed state and the sparse projector, each as given and after a
    2-qubit gate step (a non-contiguous tensor)."""
    sparse = sparse_product_vector(k)
    for pure, state in ((True, haar_unitary(2 ** k, rng)[:, 0]), (True, sparse),
                        (False, random_density_matrix(2 ** k, rng)),
                        (False, np.outer(sparse, sparse.conj()))):
        for stepped in (False, True):
            t = as_tensor(state, pure, k)
            if stepped and k > 1:
                t = step(t, haar_unitary(4, rng), (k - 1, 0), pure, k)
            yield pure, t


@pytest.mark.parametrize("k", range(1, 6))
def test_ancilla_move_is_bitwise_the_moveaxis_form(k):
    for pure, t in stepped_states(k, np.random.default_rng([912, k])):
        if pure:
            continue
        for f in (1, 2, 3):
            assert_same(_ensure(t, f, k), ensure_reference(t, k, f), k, f)


@pytest.mark.parametrize("k", range(1, 6))
def test_pinch_is_bitwise_the_moveaxis_form(k):
    rng = np.random.default_rng([913, k])
    for pure, t in stepped_states(k, rng):
        wires = [int(w) for w in rng.permutation(k)[:rng.integers(1, k + 1)]]
        t = _densify(t) if pure else t
        ref = pinch_reference(t, k, wires)
        assert_same(_pinch(t, k, wires), ref, k, pure, wires)


@pytest.mark.parametrize("k", range(1, 6))
def test_pure_trace_out_is_bitwise_the_tensordot_form(k):
    rng = np.random.default_rng([914, k])
    for pure, t in stepped_states(k, rng):
        if not pure:
            continue
        for n in range(1, k + 1):
            wires = [int(w) for w in rng.permutation(k)[:n]]
            assert_same(_trace_pure(t, wires), pure_trace_out_reference(t, wires), k, wires)


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
    assert len(lines) == 52 and len({name for name, _ in lines}) == 52
    assert all(len(digest) == 64 for _, digest in lines)
