"""verify's checks in forked workers give the serial report, byte for byte.

Where the process may run on two or more CPUs, ``harness._run_tasks`` forks
CPUs - 1 workers that share the checks with the calling process.  These
tests pin that path to the serial one: the CLI's reports in a child pinned
to one CPU and in an unpinned child, the records in process (``run_suites``
and ``run_keyed_suite``), a failing check's exit code and ``error:`` line, a
refused fork, an interrupt, results a worker cannot send back, more tasks
than a pipe page holds indices for, a worker whose caller is killed, and no
worker or zombie left after any of them.  Workers are forked only where
OpenBLAS runs one thread (``circuits._BLAS_ONE``); the in-process tests set
it, since the suite may run with BLAS at its default.  The CPU count's quota
reader is tested here too.
"""

import os
import resource
import subprocess
import sys
import time
from functools import partial

import pytest

import compent
from compent import circuits, cli, harness
from compent.circuits import _cgroup_cpus, _quota_cpus, cpu_count
from compent.harness import run_keyed_suite, run_suites

TIMEOUT_S = 120
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
forks = pytest.mark.skipif(CPUS < 2 or not hasattr(os, "fork"),
                           reason="workers are forked only where the affinity lists two or more CPUs")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD = """
import os, sys
if sys.argv[1] == "pin":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from compent.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.fixture(autouse=True)
def blas_one(monkeypatch):
    monkeypatch.setattr(circuits, "_BLAS_ONE", True)


@pytest.mark.parametrize("line, cpus", [("max 100000\n", None), ("50000 100000\n", 1),
                                        ("250000 100000\n", 2)])
def test_quota_parser_rounds_down_to_at_least_one_cpu(line, cpus):
    assert _quota_cpus(line) == cpus


@pytest.mark.parametrize("own, unlimited_b, limited_b", [
    ("0::/\n", None, None), ("0::/a\n", 3, 3), ("0::/a/b\n", 3, 2), ("1:cpu:/a/b\n", None, None)],
    ids=["root", "a", "a-b", "v1-only"])
def test_the_quota_is_the_least_on_the_own_group_and_those_above_it(tmp_path, own, unlimited_b,
                                                                    limited_b):
    (tmp_path / "a" / "b").mkdir(parents=True)
    (tmp_path / "a" / "cpu.max").write_text("300000 100000\n")
    (tmp_path / "cgroup").write_text(own)
    read = partial(_cgroup_cpus.__wrapped__, str(tmp_path), str(tmp_path / "cgroup"))  # uncached
    (tmp_path / "a" / "b" / "cpu.max").write_text("max 100000\n")
    assert read() == unlimited_b
    (tmp_path / "a" / "b" / "cpu.max").write_text("200000 100000\n")
    assert read() == limited_b


def test_cpu_count_is_at_most_the_affinity():
    assert 1 <= cpu_count() <= (CPUS if hasattr(os, "sched_getaffinity") else os.cpu_count())


def no_workers_left():
    with pytest.raises(ChildProcessError):  # no child at all, running or a zombie
        os.waitpid(-1, os.WNOHANG)


def report(tmp_path, pin, args):
    """The bytes of a CLI verify report written by a fresh child, pinned to one CPU or not;
    BLAS runs on one thread on both sides, as its thread count moves bits."""
    out = tmp_path / f"{'pin' if pin else 'all'}.json"
    env = dict(os.environ, **dict.fromkeys(BLAS_VARS, "1"),
               PYTHONPATH=os.path.dirname(os.path.dirname(compent.__file__)))
    subprocess.run([sys.executable, "-c", CHILD, "pin" if pin else "all", "verify", "--suite", "all",
                    *args, "--out", str(out)], env=env, check=True, timeout=TIMEOUT_S,
                   capture_output=True)
    return out.read_bytes()


@forks
@pytest.mark.parametrize("args", [["--lambda", "1..2", "--kappa", "3", "--seed", "3"],
                                  ["--lambda", "1..3", "--seed", "7"]], ids=["kappa3", "seed7"])
def test_a_forked_report_equals_the_report_on_one_cpu(tmp_path, args):
    assert report(tmp_path, True, args) == report(tmp_path, False, args)


@forks
def test_workers_run_in_process_and_give_the_serial_records(monkeypatch):
    def records():
        return run_suites(["all"], [1, 2, 3], 7), run_keyed_suite("subadditivity", 3, [1, 2], 3)

    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime
    forked = records()
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime > before  # the workers ran
    no_workers_left()
    monkeypatch.setattr(harness, "cpu_count", lambda: 1)
    assert forked == records()


@forks
def test_no_worker_is_forked_where_blas_runs_more_threads(monkeypatch):
    monkeypatch.setattr(circuits, "_BLAS_ONE", False)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert run_suites(["convexity", "keyed-subadditivity"], [1, 2], 7)
    assert resource.getrusage(resource.RUSAGE_CHILDREN) == before  # no child ran and was reaped


@forks
def test_a_failing_check_exits_2_with_the_error_line_of_a_one_cpu_run(monkeypatch, capsys, tmp_path):
    real = harness.run_one_shot_check

    def failing(selector, lam, instance, *args):
        if lam == 2:  # sixteen tasks fail; the first in task order is convexity's instance 0
            raise ValueError(f"{selector} instance {instance} failed at lambda 2")
        return real(selector, lam, instance, *args)

    monkeypatch.setattr(harness, "run_one_shot_check", failing)
    argv = ["verify", "--suite", "all", "--lambda", "1..3", "--seed", "7", "--out", str(tmp_path / "r.json")]
    forked = cli.main(argv), capsys.readouterr()
    no_workers_left()
    monkeypatch.setattr(harness, "cpu_count", lambda: 1)
    serial = cli.main(argv), capsys.readouterr()
    assert forked == serial
    assert serial[0] == 2 and serial[1].err == "error: convexity instance 0 failed at lambda 2\n"


@forks
def test_a_fork_the_system_refuses_leaves_the_tasks_to_this_process(monkeypatch):
    want = run_suites(["convexity", "keyed-subadditivity"], [1, 2], 7)

    def refused():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refused)
    assert run_suites(["convexity", "keyed-subadditivity"], [1, 2], 7) == want
    no_workers_left()


@forks
def test_an_interrupt_in_this_process_reaches_the_caller(monkeypatch):
    parent, real = os.getpid(), harness.run_one_shot_check

    def interrupted(*args):
        if os.getpid() == parent:  # every task is one-shot: this process's first one raises
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(harness, "run_one_shot_check", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_suites(["convexity", "concavity"], [1, 2, 3], 7)
    no_workers_left()


class NeedsTwoArguments(Exception):
    def __init__(self, a, b):  # pickles, but unpickling calls it with one argument
        super().__init__(f"{a} {b}")


def unpicklable():
    class Unpicklable(Exception):  # a local class: pickle cannot find it by name
        pass

    return Unpicklable()


@forks
@pytest.mark.parametrize("error", [unpicklable, lambda: NeedsTwoArguments(1, 2)],
                         ids=["does-not-pickle", "does-not-unpickle"])
def test_results_a_worker_cannot_send_are_computed_by_the_caller(monkeypatch, error):
    parent, real = os.getpid(), harness.run_one_shot_check

    def check(*args):
        if os.getpid() != parent:
            raise error()
        return real(*args)

    monkeypatch.setattr(harness, "run_one_shot_check", check)
    forked = run_suites(["convexity", "concavity"], [1, 2, 3], 7)
    no_workers_left()
    monkeypatch.setattr(harness, "cpu_count", lambda: 1)
    assert forked == run_suites(["convexity", "concavity"], [1, 2, 3], 7)


@forks
def test_more_tasks_than_a_pipe_page_of_indices_all_run_once_in_order():
    # past 1,024 tasks a token stands for several: here 1,000 tokens of 3 (verify at 100 lambdas lists 1,600)

    def task(i):
        time.sleep(1e-4)  # long enough that the workers join in
        return [i, os.getpid()]

    ran = harness._run_tasks([partial(task, i) for i in range(3000)])
    assert [r[0] for r in ran] == list(range(3000))
    assert len({r[1] for r in ran}) > 1  # the workers took some
    no_workers_left()


ORPHAN = """
import os, sys, time
from functools import partial
from compent import harness
caller = os.getpid()

def task(i):
    if os.getpid() == caller:
        time.sleep(TIMEOUT_S)  # the caller stays in its share until it is killed
    with open(sys.argv[1], "w") as fh:
        fh.write(str(os.getpid()))
    time.sleep(0.02)
    return [bytes(1 << 17)]  # more than a pipe buffer holds

harness._run_tasks([partial(task, i) for i in range(10)])
""".replace("TIMEOUT_S", str(TIMEOUT_S))


def gone(pid):
    """Whether ``pid`` has exited: no such process, or a zombie its new parent has not reaped."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@forks
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads a process's state under /proc")
def test_a_worker_whose_caller_is_killed_exits_though_its_results_fill_the_pipe(tmp_path):
    mark = tmp_path / "worker"
    env = dict(os.environ, **dict.fromkeys(BLAS_VARS, "1"),
               PYTHONPATH=os.path.dirname(os.path.dirname(compent.__file__)))
    caller = subprocess.Popen([sys.executable, "-c", ORPHAN, str(mark)], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    worker = None
    try:
        deadline = time.monotonic() + TIMEOUT_S
        text = ""
        while not text:  # until the worker has run a task
            assert time.monotonic() < deadline and caller.poll() is None
            time.sleep(0.01)
            text = mark.read_text() if mark.exists() else ""
        worker = int(text)
        caller.kill()
        caller.wait()
        deadline = time.monotonic() + 30  # a worker that is not stuck leaves within milliseconds
        while not gone(worker) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert gone(worker)
    finally:
        caller.kill()
        caller.wait()
        if worker is not None and not gone(worker):
            os.kill(worker, 9)
