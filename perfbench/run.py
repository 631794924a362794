"""compent benchmark: one workload per process.

Run from the repository root::

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 25 --trace 0

The program is imported from ``./src``.  The run draws the workload's inputs
from the seed, sets the workload up from a fresh import several times, runs
timed passes until ``--seconds`` have passed, checks every output, and
prints one JSON result as the last line of standard output.  Timings are
scaled to a reference speed of the machine (see ``Reference``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends the first half of the time untraced, the rest under
the span tracer, and reports the per-layer metrics.  Machine facts, the
per-item samples and (traced) the spans go to ``.perfbench_out/`` in the
working directory.  ``--quick`` shrinks every workload to a tiny size for
smoke tests.  perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads, so every run uses the same
# number whatever the caller's environment says.  One thread keeps figures
# steady on a small shared machine and leaves cpu_s equal to the work done.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from tracer import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, same  # noqa: E402

# Set-up (a fresh import plus the workload's compent calls) is timed
# SETUP_REPEATS times before the timed phase; setup_s is their median at
# reference speed.  The items of the last set-up are the ones run.
SETUP_REPEATS = 16
# An item call running past ITEM_LIMIT_S is stopped and its ops count as
# failed; once RUN_LIMIT_S have passed since start, remaining calls are
# skipped and count as failed, so a run ends well inside three minutes.
ITEM_LIMIT_S = 60
RUN_LIMIT_S = 140
STARTED = time.perf_counter()
# The reference kernel (5-8 ms) is timed around every set-up and, in the
# timed phase, after an item call once REF_EVERY_S have passed since the
# last sample.  REF_NOMINAL_S is near its fastest time on a 2-vCPU 2.0 GHz
# Xeon VM, so scaled times read close to the raw ones there in quiet spells.
REF_SMALL = 100
REF_EVERY_S = 0.1
REF_NOMINAL_S = 0.005
TRACE_UNTRACED_SHARE = 1 / 2
OUT_DIR = ".perfbench_out"
SEED_ENV = "COMPENT_SEED"

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "throughput_ops_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class ItemTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ItemTimeout("item call ran past its time limit")


def fresh_import(src: str) -> None:
    """Drop every compent module and import the package and its CLI (which
    loads every layer) again from src."""
    for name in [n for n in sys.modules if n == "compent" or n.startswith("compent.")]:
        del sys.modules[name]
    compent = importlib.import_module("compent")
    importlib.import_module("compent.cli")
    if os.path.dirname(os.path.abspath(compent.__file__)) != os.path.join(src, "compent"):
        raise RuntimeError(f"compent imported from {compent.__file__}, not from {src}")


def git_facts(root: str) -> dict:
    if not os.path.isdir(os.path.join(root, ".git")) or shutil.which("git") is None:
        return {"git_commit": None, "git_dirty": None}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=root, capture_output=True, text=True, timeout=30,
                                check=True).stdout
    except (subprocess.SubprocessError, OSError):
        return {"git_commit": None, "git_dirty": None}
    return {"git_commit": commit, "git_dirty": bool(status.strip())}


def machine_facts(root: str, seed_env: str | None) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
        f"{SEED_ENV}_cleared": seed_env,
        **git_facts(root),
    }


class Reference:
    """The machine's speed through a run, from a fixed kernel timed often.

    Neighbours on a shared machine slow every call, the program's and this
    kernel's alike, by up to 2x for spells of a fraction of a second to a
    whole run.  A time scaled by ``scale(t0, t1)`` reads as if the kernel,
    timed just before t0 and just after t1, had taken REF_NOMINAL_S.  The
    kernel does what the workloads do: interpreted Python between small
    LAPACK calls, one small BLAS product, and a sweep over arrays larger
    than the L2 cache.  It uses nothing from compent or the seed.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((REF_SMALL, 8, 8)) + 1j * rng.standard_normal((REF_SMALL, 8, 8))
        self.small = list(g @ g.conj().transpose(0, 2, 1))
        self.medium = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self.sweep = [np.ones(2 ** 18, dtype=complex), np.empty(2 ** 18, dtype=complex)]
        self.samples = []
        self.times = []  # perf_counter() at the end of each sample

    def sample(self, every: float = REF_EVERY_S) -> None:
        """Time the kernel if ``every`` seconds have passed since the last time."""
        if self.times and time.perf_counter() - self.times[-1] < every:
            return
        t0 = time.perf_counter()
        acc = 0.0
        for m in self.small:
            acc += np.linalg.eigvalsh(m)[0]
            acc += sum(i * 0.5 for i in range(200))
        acc += (self.medium @ self.medium)[0, 0].real
        a, b = self.sweep
        for _ in range(2):
            np.multiply(a, 1.0, out=b)
            np.multiply(b, 1.0, out=a)
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.times.append(t1)

    def scale(self, t0: float, t1: float) -> float:
        """REF_NOMINAL_S over the mean of the last sample that ended by t0
        and the first that ended after t1."""
        before = bisect.bisect_right(self.times, t0) - 1
        after = bisect.bisect_left(self.times, t1)
        near = [self.samples[k] for k in (before, after) if 0 <= k < len(self.samples)]
        return REF_NOMINAL_S * len(near) / sum(near)

    def scaled(self, times: list[float], starts: list[float]) -> list[float]:
        return [t * self.scale(t0, t0 + t) for t, t0 in zip(times, starts)]


def run_passes(items, until: float, state: dict, reference: Reference, tracer=None) -> dict:
    """Whole passes over the items while ``perf_counter()`` is before
    ``until`` (at least one); every item call is timed on its own.

    Each output is compared with that item's first output outside the timed
    region; ``state`` carries the first outputs across phases.
    """
    walls = [[] for _ in items]
    cpus = [[] for _ in items]
    starts = [[] for _ in items]
    ops_total = failed = passes = 0
    while passes == 0 or time.perf_counter() < min(until, STARTED + RUN_LIMIT_S):
        if tracer is not None:
            tracer.pass_id = state["passes"]
        state["passes"] += 1
        passes += 1
        for i, item in enumerate(items):
            err = io.StringIO()
            left = STARTED + RUN_LIMIT_S - time.perf_counter()
            try:
                if left <= 0:
                    raise ItemTimeout(f"skipped: the run is past {RUN_LIMIT_S} s")
                signal.setitimer(signal.ITIMER_REAL, min(ITEM_LIMIT_S, left))
                with contextlib.redirect_stdout(err), contextlib.redirect_stderr(err):
                    w0, c0 = time.perf_counter(), time.process_time()
                    output = item.run()
                    w1, c1 = time.perf_counter(), time.process_time()
            except Exception:
                # ItemTimeout or a crash inside the program: the item's ops fail
                sys.stderr.write(f"item {i}:\n" + err.getvalue() + traceback.format_exc())
                lost = state["first_ops"][i] or 1
                ops_total += lost
                failed += lost
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                reference.sample()
            walls[i].append(w1 - w0)
            cpus[i].append(c1 - c0)
            starts[i].append(w0)
            n = item.ops(output)
            ops_total += n
            if state["first"][i] is None:
                state["first"][i], state["first_ops"][i] = output, n
                state["same"][i] += 1
            elif same(state["first"][i], output):
                state["same"][i] += 1
            else:
                sys.stderr.write(f"item {i}: output differs from its first run\n" + err.getvalue())
                failed += n
    return {"walls": walls, "cpus": cpus, "starts": starts, "ops": ops_total, "failed": failed,
            "passes": passes}


def pass_time(phase: dict, key: str, reference: Reference) -> float:
    """One pass's time at reference speed: the sum over items of the mean of
    each item's calls (``key`` is "walls" or "cpus"), every call scaled by
    the reference samples around it.

    Measured on a 2-vCPU VM, the run-to-run spread (interquartile range
    over median) of the summed fastest raw calls was 9-29 % over five
    seeds, by workload; scaled by the run's fastest reference sample,
    8-23 %.  With every call scaled, over sets of ten seeds, it was 2-13 %
    for the median of calls, 3-13 % for their 10th percentile and 2-11 %
    for their mean.  A call of 0.2 s or more rarely finds a whole
    quiet spell, so the fastest call alone still depends on the run.
    """
    return sum(statistics.fmean(reference.scaled(ts, ss))
               for ts, ss in zip(phase[key], phase["starts"]) if ts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for smoke tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "compent", "__init__.py")):
        sys.stderr.write("error: no ./src/compent here; run from the repository root\n")
        return 2
    # The CLI's resolve_seed lets this variable override --seed, which would
    # change the workload under the benchmark.
    seed_env = os.environ.pop(SEED_ENV, None)
    if seed_env is not None:
        sys.stderr.write(f"note: ignoring {SEED_ENV}={seed_env!r}; the seed is --seed\n")
    sys.path.insert(0, src)

    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(root, OUT_DIR)
    workdir = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    try:
        inputs = workload.inputs(args.seed, args.quick)
        reference = Reference()
        setups = []
        setup_starts = []
        for _ in range(SETUP_REPEATS):
            gc.collect()  # free the module cycles a replaced import leaves behind
            reference.sample(every=0)
            t0 = time.perf_counter()
            setup_starts.append(t0)
            fresh_import(src)
            items = workload.build(inputs, workdir)
            setups.append(time.perf_counter() - t0)
        reference.sample(every=0)

        state = {"passes": 0, "first": [None] * len(items), "first_ops": [0] * len(items),
                 "same": [0] * len(items)}
        began = time.perf_counter()
        if args.trace:
            plain = run_passes(items, began + args.seconds * TRACE_UNTRACED_SHARE, state,
                               reference)
            tracer = Tracer()
            with tracer:
                traced = run_passes(items, began + args.seconds, state, reference, tracer)
            phases = [plain, traced]
            base = pass_time(plain, "walls", reference)
            overhead = pass_time(traced, "walls", reference) / base if base else 0.0
            values = layer_metrics(tracer, traced["passes"], overhead)
            units = LAYER_METRICS
        else:
            plain = run_passes(items, began + args.seconds, state, reference)
            phases = [plain]
            wall = pass_time(plain, "walls", reference)
            values = {
                "wall_s": wall,
                "cpu_s": pass_time(plain, "cpus", reference),
                "throughput_ops_s": sum(state["first_ops"]) / wall if wall else 0.0,
                "setup_s": statistics.median(reference.scaled(setups, setup_starts)),
            }
            units = END_TO_END_UNITS
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not args.trace:
            values["peak_rss_mb"] = peak_rss_mb

        attempted = sum(p["ops"] for p in phases)
        failed = sum(p["failed"] for p in phases)
        for i, item in enumerate(items):
            if state["first"][i] is None:
                continue
            try:
                wrong = item.check(state["first"][i])
            except Exception:
                sys.stderr.write(traceback.format_exc())
                wrong = state["first_ops"][i]
            if wrong:
                sys.stderr.write(f"item {i}: {wrong} of {state['first_ops'][i]} ops are wrong\n")
            failed += min(wrong, state["first_ops"][i]) * state["same"][i]

        facts = machine_facts(root, seed_env)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
        if args.trace:
            tracer.write(os.path.join(out_dir, f"spans-{tag}.npz"))
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "quick": args.quick, "facts": facts,
            "setup_samples_s": setups,
            "reference_samples_s": reference.samples,
            "reference_times": reference.times,
            "setup_starts": setup_starts,
            "phases": [{"item_wall_s": p["walls"], "item_cpu_s": p["cpus"],
                        "item_starts": p["starts"], "ops": p["ops"],
                        "failed": p["failed"], "passes": p["passes"]} for p in phases],
            "peak_rss_mb": peak_rss_mb,
        }
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
    }
    record["result"] = result
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print("facts " + json.dumps(facts, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
