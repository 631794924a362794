"""The blocked gate step on two threads gives the bits of the step on one.

Where the process may run on two CPUs and OpenBLAS on one thread,
``circuits._step`` hands the blocks of a large step to the calling thread and
to one helper thread.  These tests pin that path to the serial one: in a
process pinned to one CPU or with more BLAS threads (no helper), in a child
forked after the helper was made (it must make its own), while the helper is
held by other work, with several callers sharing the one helper at once, and
when the helper's block fails.  Every comparison is on ``tobytes``, against
the step formed as ``np.tensordot`` forms it (``oracles``) or against its
digest.  The in-process tests set ``_BLAS_ONE``, since the suite may run with
BLAS on more threads; the child processes read it from their environment.
"""

import hashlib
import os
import select
import signal
import subprocess
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest

import compent
from compent import circuits
from compent.circuits import _STEP_AXES, _helper, _step
from compent.linalg import haar_unitary, kron
from compent.states import random_density_matrix

from oracles import unitary_step_reference

K = 9  # a density tensor on 9 wires: 2**18 entries, so a step runs 8 blocks
TIMEOUT_S = 60
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
two_cpus = pytest.mark.skipif(CPUS < 2, reason="the helper runs only where the process has two CPUs")


@pytest.fixture(autouse=True)
def blas_on_one_thread(monkeypatch):
    monkeypatch.setattr(circuits, "_BLAS_ONE", True)


def blocked_case(seed=2501):
    """A density tensor on K wires, a two-qubit gate and its wires 1 and K - 2."""
    rng = np.random.default_rng(seed)
    t = random_density_matrix(2 ** K, rng).reshape((2,) * (2 * K))
    return t, haar_unitary(4, rng), [1, K - 2]


def step(t, g, wires):
    """The gate on those wires as a run's plan steps it: ``kron(g, conj g)``
    on their bra and ket axes."""
    return _step(t, kron(g, g.conj()), wires + [K + w for w in wires])


def digest(t):
    return hashlib.sha256(t.tobytes()).hexdigest()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_after_a_blocked_step_makes_its_own_helper():
    case = blocked_case()
    want = digest(step(*case))  # the parent's helper thread exists from here on
    helpers = _helper.cache_info().currsize + (CPUS > 1)  # the child's own makes one more
    read, write = os.pipe()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads running
        pid = os.fork()
    if pid == 0:  # the child: one more blocked step, its digest to the parent, and out
        code = 1
        try:
            os.write(write, f"{digest(step(*case))} {_helper.cache_info().currsize}".encode())
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
    assert ready, f"the child's blocked step did not end within {TIMEOUT_S} s"
    assert os.waitstatus_to_exitcode(status) == 0
    assert got == [want, str(helpers)]  # the same bytes, from a helper of its own


CHILD = """
import os, sys
if sys.argv[1] == "pin":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path[:0] = sys.argv[2:]
from compent.circuits import _helper
from test_step_threads import blocked_case, digest, step
case = blocked_case()
print(digest(step(*case)), _helper.cache_info().currsize)
"""
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_step(pin, blas_threads):
    """The digest of one blocked step in a fresh process, and how many helpers it made."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(dict.fromkeys(BLAS_VARS, blas_threads) if blas_threads else {})
    src = os.path.dirname(os.path.dirname(compent.__file__))
    out = subprocess.run([sys.executable, "-c", CHILD, "pin" if pin else "all", src, os.path.dirname(__file__)],
                         capture_output=True, text=True, timeout=TIMEOUT_S, check=True, env=env)
    return out.stdout.split()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_a_process_pinned_to_one_cpu_runs_without_the_helper_and_gives_the_same_bytes():
    want = digest(step(*blocked_case()))
    if CPUS > 1:
        assert _helper.cache_info().currsize >= 1  # this process stepped on two threads
    assert child_step(True, "1") == [want, "0"]  # the same bytes, and no helper was made
    assert child_step(False, "1") == [want, str(int(CPUS > 1))]


@pytest.mark.parametrize("blas_threads", ["2", None])
def test_with_blas_on_more_threads_a_step_makes_no_helper_and_gives_the_same_bytes(blas_threads):
    # unset, OpenBLAS takes a thread per CPU, which already share out each block's product
    assert child_step(False, blas_threads) == [digest(step(*blocked_case())), "0"]


@two_cpus
def test_a_step_whose_helper_is_busy_runs_alone_and_its_queued_task_holds_no_tensor():
    # the helper is held, as when the OS gives it no CPU: the caller takes every
    # block, and the cancelled task, still queued, must not keep the tensors alive
    t, g, wires = blocked_case()
    want = unitary_step_reference(t, g, wires, K).tobytes()
    release = threading.Event()
    held = _helper(os.getpid()).submit(release.wait, TIMEOUT_S)
    try:
        out = step(t, g, wires)
        assert out.tobytes() == want
        given, made = weakref.ref(t), weakref.ref(out.base)
        del t, out
        assert given() is None and made() is None
    finally:
        release.set()
    assert held.result(TIMEOUT_S)


@two_cpus
def test_an_error_in_the_helpers_block_is_raised_by_the_caller_once_the_helper_is_done(monkeypatch):
    caller, claimed, ended = threading.current_thread(), threading.Event(), threading.Event()
    matmul = np.matmul

    def failing(*args, **kwargs):
        if threading.current_thread() is caller:  # wait until the helper holds a block
            claimed.wait(TIMEOUT_S)
            return matmul(*args, **kwargs)
        claimed.set()
        try:
            raise MemoryError("the helper's block")
        finally:
            ended.set()

    monkeypatch.setattr(np, "matmul", failing)
    with pytest.raises(MemoryError, match="the helper's block"):
        step(*blocked_case())
    assert claimed.is_set() and ended.is_set()


def test_callers_sharing_the_helper_each_get_every_block():
    # more callers than CPUs, switching threads every microsecond; each caller
    # alternates two cases, so a block left unwritten holds another step's bits
    cases = [blocked_case(seed) for seed in range(4)]
    assert all(t.ndim > _STEP_AXES for t, _, _ in cases)  # each step runs blocks
    want = [digest(unitary_step_reference(t, g, wires, K)) for t, g, wires in cases]
    wrong, done = [], []

    def caller(first):
        for r in range(6):
            j = (first + r % 2) % len(cases)
            if digest(step(*cases[j])) != want[j]:
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
