"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Item  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, env=env,
    )


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_quick_run_emits_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def _wrong_record(output):
    """The first verify record turned into a failed one."""
    code, text = output
    records = json.loads(text)
    records[0].update({"pass": False, "inconclusive": False})
    return code, json.dumps(records).encode()


def _duplicate_member(output):
    """A packing whose first member appears twice."""
    code, text = output
    data = json.loads(text)
    data["members"].append(data["members"][0])
    return code, json.dumps(data).encode()


def _off_by_1e6(output):
    """One value moved by 1e-6: an axiom or data-processing value, p_err,
    or one entry of an output density matrix."""
    if isinstance(output, float):
        return output + 1e-6
    out = np.array(output)
    if out.shape[1] == 10:  # axiom row: unitary invariance breaks
        out[0, 6] += 1e-6
    elif out.shape[1] == 2:  # data processing row: fidelity drops through the channel
        out[0, 1] = out[0, 0] - 1e-6
    else:
        out[0, 1] += 1e-6
    return out


CORRUPT = {
    "verify-suite": _wrong_record,
    "fidelity-axioms": _off_by_1e6,
    "packing-net": _duplicate_member,
    "wide-circuit": _off_by_1e6,
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_check_counts_a_wrong_output(workload, tmp_path):
    spec = WORKLOADS[workload]
    items = spec.build(spec.inputs(3, True), str(tmp_path))
    for item in items:
        output = item.run()
        assert item.check(output) == 0
        assert item.check(CORRUPT[workload](output)) > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "verify-suite", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compent_seed_variable_cannot_change_the_workload():
    env = dict(os.environ, COMPENT_SEED="5")
    proc = bench("--workload", "verify-suite", "--seed", "3", "--seconds", "1", "--quick", env=env)
    assert proc.returncode == 0, proc.stderr
    facts = json.loads(proc.stdout.strip().splitlines()[-2].split(" ", 1)[1])
    assert facts["COMPENT_SEED_cleared"] == "5"
    assert facts["blas_threads"] == 1 and facts["nproc"] >= 1


def test_tracer_sees_calls_through_from_imports_and_restores_originals():
    import compent.cli  # noqa: F401  (loads every layer)
    from compent import circuits, linalg, states

    original = states.psd_sqrt
    tracer = Tracer()
    with tracer:
        assert Tracer.unwrapped() == []
        assert states.psd_sqrt is not original
        rho = states.bipartite_from_matrix(np.eye(4) / 4, (1, 1))
        states.fidelity(rho, rho)
        circuits.Gate.unitary(np.eye(2), (0,))
    assert states.psd_sqrt is original and linalg.psd_sqrt is original
    assert Tracer.unwrapped()  # originals are back in place
    names = [tracer.names[i] for i in tracer.name]
    for name in ("states.density_validate", "states.fidelity", "linalg.psd_sqrt",
                 "linalg.eig_hermitian", "circuits.Gate.unitary", "linalg.require_unitary"):
        assert name in names
    fid = names.index("states.fidelity")
    assert tracer.parent[names.index("linalg.psd_sqrt")] == fid
    assert tracer.attrs[fid] == (4,)


def test_reference_scales_a_call_by_the_samples_around_it():
    ref = run.Reference()
    ref.samples, ref.times = [0.01, 0.02, 0.04], [1.0, 2.0, 3.0]
    assert ref.scale(1.5, 1.9) == pytest.approx(run.REF_NOMINAL_S / 0.015)
    assert ref.scale(3.5, 3.6) == pytest.approx(run.REF_NOMINAL_S / 0.04)
    assert ref.scaled([0.3], [2.1]) == pytest.approx([0.3 * run.REF_NOMINAL_S / 0.03])


def test_an_item_past_the_time_limit_counts_as_failed(monkeypatch):
    monkeypatch.setattr(run, "ITEM_LIMIT_S", 1)
    monkeypatch.setattr(run, "RUN_LIMIT_S", 10 ** 6)
    previous = run.signal.signal(run.signal.SIGALRM, run._alarm)
    try:
        state = {"passes": 0, "first": [None], "first_ops": [0], "same": [0]}
        began = time.perf_counter()
        out = run.run_passes([Item(lambda: time.sleep(30), lambda o: 1, lambda o: 0)],
                             began + 0.1, state, run.Reference())
    finally:
        run.signal.signal(run.signal.SIGALRM, previous)
    assert time.perf_counter() - began < 10
    assert out["failed"] == out["ops"] == 1


def test_items_past_the_run_limit_are_skipped_and_count_as_failed(monkeypatch):
    monkeypatch.setattr(run, "RUN_LIMIT_S", time.perf_counter() - run.STARTED)
    state = {"passes": 0, "first": [None, None], "first_ops": [0, 0], "same": [0, 0]}
    never = Item(lambda: pytest.fail("ran past the run limit"), lambda o: 1, lambda o: 0)
    out = run.run_passes([never, never], time.perf_counter() + 0.1, state, run.Reference())
    assert out["failed"] == out["ops"] == 2
