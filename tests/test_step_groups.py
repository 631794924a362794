"""Bitwise pins of the grouped gate move, and of the plan's byte record.

On a density tensor of more than 2**_STEP_AXES entries, ``_plan`` joins each
run of consecutive gate steps whose axes fit in _STEP_AXES into one
``_group`` move, which runs the run block by block in one pass; a gate that
fits in no run with its neighbours is a one-step group.  A move must give the
bits and strides of the same steps chained through ``_step``, signed zeros
included, so every move that can follow it (an ancilla, a trace, a pinch, the
marginal) gives the chained bits too.  Every comparison is on ``tobytes``.
``apply`` refuses a plan whose largest move would hold more than
``MOVE_BYTES_CAP`` bytes before it allocates anything.  Last, the blocks are
shared with the helper thread: its cases in this process run here on a
multi-step group, and in ``test_step_threads.py`` on a one-step group, where
child processes that run without it are compared too.
"""

import hashlib
import os
import select
import signal
import sys
import threading
import tracemalloc
import warnings
import weakref
from functools import reduce

import numpy as np
import pytest

import apply_digest
from compent import circuits
from compent.circuits import (
    _GROUP_BLOCKS, _STEP_AXES, MOVE_BYTES_CAP, Gate, LoccCircuit, Round, _as_vector, _ensure, _group,
    _helper, _pinch, _plan, _step, _trace, apply, local_unitary_circuit,
)
from compent.linalg import SizeLimitError, haar_unitary, kron, marginal
from compent.states import DensityMatrix, random_density_matrix

TIMEOUT_S = 60
BLOCK_BYTES = 2 ** _STEP_AXES * np.dtype(complex).itemsize
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
two_cpus = pytest.mark.skipif(CPUS < 2, reason="the helper runs only where the process has two CPUs")


@pytest.fixture(autouse=True)
def blas_on_one_thread(monkeypatch):
    monkeypatch.setattr(circuits, "_BLAS_ONE", True)


def random_run(k, length, rng):
    """``length`` Haar gates as a plan steps them on a density tensor on k
    wires, as (superoperator, axes): 1- and 2-qubit unitaries and 1-qubit
    payloads under one or two controls, C- or F-ordered, on at most 7 of the
    wires, so the run's axes fit in one block."""
    pool = rng.permutation(k)[:int(rng.integers(3, 8))]
    run = []
    for _ in range(length):
        kind = ("1q", "2q", "1-control", "2-control")[int(rng.integers(4))]
        wires = tuple(int(w) for w in rng.permutation(pool)[:{"1q": 1, "2-control": 3}.get(kind, 2)])
        u = haar_unitary(4 if kind == "2q" else 2, rng)
        u = u.conj().T if rng.integers(2) else u
        g = Gate.unitary(u, wires) if kind.endswith("q") else Gate.controlled(u, wires[-1:], wires[:-1])
        op, touched = g.operator(), list(g.touched())
        run.append((kron(op, op.conj()), touched + [k + w for w in touched]))
    return run


def inputs(k, rng):
    """A Ginibre density tensor, and the projector of an EPR pair times
    |0..0> on k wires, which holds -0.0 where the vector's odd entries do."""
    v = np.zeros(2 ** k, dtype=complex)
    v[1::2] = complex(-0.0, -0.0)
    v[0] = v[3 * 2 ** (k - 2)] = 1 / np.sqrt(2)
    for rho in (random_density_matrix(2 ** k, rng), np.outer(v, v.conj())):
        yield rho.reshape((2,) * (2 * k))


def chained(t, steps):
    """The (operator, axes) steps through ``_step``, one after another."""
    return reduce(lambda x, step: _step(x, *step), steps, t)


def assert_same(got, want, *info):
    assert got.tobytes() == want.tobytes(), info
    assert got.strides == want.strides, info


def test_the_sparse_input_holds_negative_zeros():
    t = list(inputs(8, np.random.default_rng(0)))[1]
    assert np.signbit(t.real).any()


@pytest.mark.parametrize("k", (8, 9, 10))
def test_a_grouped_run_and_each_move_after_it_are_bitwise_the_chained_steps(k):
    assert 2 * k > _STEP_AXES  # every tensor here is above one block
    rng = np.random.default_rng([3301, k])
    for length in (2, 3, 5, 9):
        run = random_run(k, length, rng)
        assert len({a for _, axes in run for a in axes}) <= _STEP_AXES
        for t in inputs(k, rng):
            got, want = _group(t, run), chained(t, run)
            assert_same(got, want, k, length)
            assert_same(_ensure(got, 1, k), _ensure(want, 1, k), "ensure", k, length)
            gone = sorted(int(w) for w in rng.permutation(k)[:3])
            positions = [p - j for j, p in enumerate(gone)]
            assert_same(_trace(got, positions), _trace(want, positions), "trace", k, length)
            keep = [int(w) for w in rng.permutation(k)[:2]]  # d = 2**(k - 2): a long sum
            assert_same(marginal(got, k, keep), marginal(want, k, keep), "marginal", keep)
            everything = [int(w) for w in rng.permutation(k)]
            assert_same(marginal(got, k, everything), marginal(want, k, everything), "permute")
            pinched = [int(w) for w in rng.permutation(k)[:2]]
            assert_same(_pinch(got, k, pinched), _pinch(want, k, pinched), "pinch", pinched)


def test_a_run_of_one_wire_set_repeated_is_bitwise_the_chained_steps():
    # a step whose axes are where the last one left them reads its buffer in place
    k, rng = 9, np.random.default_rng(3302)
    g = haar_unitary(4, rng)
    run = [(kron(g, g.conj()), [2, 5, k + 2, k + 5])] * 3
    for t in inputs(k, rng):
        assert_same(_group(t, run), chained(t, run))


def moves_of(circuit, pure):
    """The plan's moves by kind: ``group<n>`` for a grouped move of n steps."""
    kinds = []
    for move in _plan(circuit, pure)[0]:
        func = getattr(move, "func", move)
        if func is _group:
            kinds.append(f"group{len(move.keywords['steps'])}")
        else:
            kinds.append(getattr(func, "__name__", "marginal").strip("_").replace("<lambda>", "marginal"))
    return kinds


def local_circuit(width, rng):
    """A Haar gate on each wire, then on each neighbouring pair, on each side of width + width."""
    alice, bob = ([Gate.unitary(haar_unitary(2, rng), (a + i,)) for i in range(width)]
                  + [Gate.unitary(haar_unitary(4, rng), (a + i, a + i + 1)) for i in range(width - 1)]
                  for a in (0, width))
    return local_unitary_circuit(alice, bob, width, width)


def test_the_plan_groups_runs_greedily_and_only_above_one_block():
    rng = np.random.default_rng(3303)
    # Alice's 9 gates take 10 axes; Bob's first two join them (14), his third would make 16
    assert moves_of(local_circuit(5, rng), False) == ["group11", "group7", "marginal"]
    assert moves_of(local_circuit(5, rng), True) == ["step"] * 18 + ["densify", "marginal"]
    assert moves_of(local_circuit(3, rng), False) == ["step"] * 10 + ["marginal"]  # 2**12 entries
    # a gate alone is a one-step group: each of these two takes 8 axes, together 16
    wide = [Gate.controlled(haar_unitary(4, rng), (2, 3), (0, 1)),
            Gate.controlled(haar_unitary(4, rng), (6, 7), (4, 5))]
    assert moves_of(local_unitary_circuit(wide, [], 8, 1), False) == ["group1", "group1", "marginal"]


def test_each_digest_plan_steps_only_on_one_block_and_groups_every_larger_gate_move():
    # the plan walked on its input, as ``apply`` runs it; a plan compiled here, not a kept one
    lone = []  # the case of each one-step group
    for name, c, state in [*apply_digest.cases(), *apply_digest.grouped_cases()]:
        vector = _as_vector(state.matrix)
        t = np.array(state.matrix if vector is None else vector, dtype=complex)
        t = t.reshape((2,) * (t.ndim * (c.n_a + c.n_b)))
        for move in _plan(c, vector is not None)[0]:
            func = getattr(move, "func", None)
            if func in (_step, _group):
                assert (func is _group) == (t.size > 2 ** _STEP_AXES), (name, t.shape)
                lone += [name] if func is _group and len(move.keywords["steps"]) == 1 else []
            t = move(t)
        assert t.tobytes() == apply(c, state).matrix.tobytes(), name
    assert lone.count("teleport-n2-F0.9") == 5  # its lone gates on 16 and 18 axes


def grouped_applies():
    """(name, circuit, input state) of applies whose plans hold grouped moves,
    each circuit new, so that it compiles its plan afresh."""
    rng = np.random.default_rng(3304)
    yield "local-5+5", local_circuit(5, rng), DensityMatrix(random_density_matrix(1024, rng), (5, 5))
    yield from apply_digest.grouped_cases()


def test_apply_with_grouped_moves_is_bitwise_apply_with_chained_steps(monkeypatch):
    got = {}
    for name, c, state in grouped_applies():
        assert any(m.startswith("group") for m in moves_of(c, False)), name
        got[name] = apply(c, state).matrix.tobytes()
    monkeypatch.setattr(circuits, "_group", chained)  # the plans made from here on chain _step
    for name, c, state in grouped_applies():
        assert apply(c, state).matrix.tobytes() == got[name], name


def test_the_digest_script_prints_each_case_once_with_the_grouped_cases_last():
    names = [name for name, _ in apply_digest.digests()] + [name for name, _, _ in apply_digest.grouped_cases()]
    assert len(names) == 54 and len(set(names)) == 54
    assert names[-2:] == ["grouped-traced-4+4", "grouped-pinched-4+4"]


def big_run(rng, k=10):
    """A Ginibre density tensor on k wires and a 9-gate run on its wires 1..5."""
    t = random_density_matrix(2 ** k, rng).reshape((2,) * (2 * k))
    gates = [haar_unitary(2, rng) for _ in range(5)] + [haar_unitary(4, rng) for _ in range(4)]
    wires = [[w] for w in range(1, 6)] + [[w, w + 1] for w in range(1, 5)]
    return t, [(kron(g, g.conj()), w + [k + x for x in w]) for g, w in zip(gates, wires)]


@pytest.mark.parametrize("helper", [True, False])
def test_a_grouped_move_allocates_one_tensor_and_its_stated_blocks(monkeypatch, helper):
    monkeypatch.setattr(circuits, "_BLAS_ONE", helper)
    t, run = big_run(np.random.default_rng(3306))
    tracemalloc.start()
    try:
        out = _group(t, run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # each thread holds one block buffer and the copy its dot reads
    blocks = _GROUP_BLOCKS if helper and CPUS > 1 else _GROUP_BLOCKS // 2
    assert peak <= out.nbytes + blocks * BLOCK_BYTES + 2 ** 16


def test_the_plan_records_the_bytes_of_its_largest_move():
    rng = np.random.default_rng(3307)
    tensor = 4 ** 10 * np.dtype(complex).itemsize  # a density tensor on 10 wires
    assert _plan(local_circuit(5, rng), False)[1] == 2 * tensor + _GROUP_BLOCKS * BLOCK_BYTES
    # pure, the largest move is the marginal of the densified 10-wire state
    assert _plan(local_circuit(5, rng), True)[1] == 2 * tensor
    assert _plan(local_circuit(3, rng), False)[1] == 2 * 4 ** 6 * np.dtype(complex).itemsize


def fourteen_qubit_circuit():
    """n_a = n_b = 1, t_a = t_b = 6: two rounds of H on every wire, so a
    mixed input's run holds a density tensor on all 14 wires (4 GiB)."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    layer = Round(tuple(Gate.unitary(h, (w,)) for w in range(7)),
                  tuple(Gate.unitary(h, (w,)) for w in range(7, 14)))
    return LoccCircuit(1, 6, 0, 1, 6, (layer, layer), 1, 1)


def test_apply_refuses_a_plan_above_the_byte_cap_before_it_allocates(monkeypatch):
    c = fourteen_qubit_circuit()
    assert _plan(c, False)[1] >= 2 * 4 ** 14 * np.dtype(complex).itemsize > MOVE_BYTES_CAP

    def no_ancilla(*args, **kwargs):  # if the cap let the run start, it ends here, not at 4 GiB
        raise AssertionError("the refused run joined an ancilla")

    monkeypatch.setattr(circuits, "_ensure", no_ancilla)  # plans made from here on carry it
    state = DensityMatrix(np.eye(4) / 4, (1, 1))
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match="cap is"):
            apply(c, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_the_same_circuit_on_a_pure_input_stays_under_the_cap():
    # an amplitude tensor on 14 wires takes 256 KiB; only the two outputs are densified
    c = fourteen_qubit_circuit()
    assert _plan(c, True)[1] < 2 ** 20
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    out = apply(c, DensityMatrix(np.outer(v, v), (1, 1))).matrix
    np.testing.assert_allclose(out, np.outer(v, v), atol=1e-12)  # H twice is the identity


# -- the helper thread --------------------------------------------------------


def digest(t):
    return hashlib.sha256(t.tobytes()).hexdigest()


@two_cpus
def test_a_grouped_move_whose_helper_is_busy_runs_alone_and_its_queued_task_holds_no_tensor():
    t, run = big_run(np.random.default_rng(3308), k=9)
    want = chained(t, run).tobytes()
    release = threading.Event()
    held = _helper(os.getpid()).submit(release.wait, TIMEOUT_S)
    try:
        out = _group(t, run)
        assert out.tobytes() == want
        given, made = weakref.ref(t), weakref.ref(out.base)
        del t, out
        assert given() is None and made() is None
    finally:
        release.set()
    assert held.result(TIMEOUT_S)


@two_cpus
def test_an_error_in_the_helpers_block_of_a_grouped_move_is_raised_once_the_helper_is_done(monkeypatch):
    caller, claimed, ended = threading.current_thread(), threading.Event(), threading.Event()
    dot = np.dot

    def failing(*args, **kwargs):
        if threading.current_thread() is caller:  # wait until the helper holds a block
            if not claimed.wait(TIMEOUT_S):
                raise AssertionError(f"the helper claimed no block within {TIMEOUT_S} s")
            return dot(*args, **kwargs)
        claimed.set()
        try:
            raise MemoryError("the helper's block")
        finally:
            ended.set()

    t, run = big_run(np.random.default_rng(3309), k=9)
    monkeypatch.setattr(np, "dot", failing)
    with pytest.raises(MemoryError, match="the helper's block"):
        _group(t, run)
    assert claimed.is_set() and ended.is_set()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_after_a_grouped_move_makes_its_own_helper():
    t, run = big_run(np.random.default_rng(3310), k=9)
    want = digest(_group(t, run))  # the parent's helper thread exists from here on
    helpers = _helper.cache_info().currsize + (CPUS > 1)  # the child's own makes one more
    read, write = os.pipe()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads running
        pid = os.fork()
    if pid == 0:  # the child: one more grouped move, its digest to the parent, and out
        code = 1
        try:
            os.write(write, f"{digest(_group(t, run))} {_helper.cache_info().currsize}".encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    try:
        ready = select.select([read], [], [], TIMEOUT_S)[0]
        got = os.read(read, 128).decode().split() if ready else None
    finally:
        os.close(read)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        status = os.waitpid(pid, 0)[1]
    assert ready, f"the child's grouped move did not end within {TIMEOUT_S} s"
    assert os.waitstatus_to_exitcode(status) == 0
    assert got == [want, str(helpers)]


def test_callers_sharing_the_helper_each_get_every_block_of_their_grouped_moves():
    # more callers than CPUs, switching threads every microsecond; each caller
    # alternates two cases, so a block left unwritten holds another move's bits
    cases = [big_run(np.random.default_rng([3311, i]), k=8) for i in range(4)]
    want = [digest(chained(t, run)) for t, run in cases]
    wrong, done = [], []

    def caller(first):
        for r in range(4):
            j = (first + r % 2) % len(cases)
            if digest(_group(*cases[j])) != want[j]:
                wrong.append(j)
        done.append(first)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(cases))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert sorted(done) == list(range(len(cases))) and wrong == []
