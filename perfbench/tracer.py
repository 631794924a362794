"""Span tracer that wraps compent's public functions from outside the package.

``Tracer.install`` wraps every public function defined in the layers named
in ``LAYERS``, plus the constructors that validate (``Gate``,
``LoccCircuit``, ``DensityMatrix``), and rebinds each wrapper in every
``compent`` module namespace that holds the original.  That includes names
bound by ``from .linalg import psd_sqrt``: patching only the defining module
would silently miss those calls.  ``uninstall`` restores every original.

Spans (name, start, end, parent, pass id) live in flat in-memory arrays and
are written once, by ``write``, when the benchmark ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import tracemalloc
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "states", "circuits", "measures", "packing", "harness", "cli")

# Circuits with at least this many qubits are "wide"; tracemalloc runs only
# around their apply calls, where numpy buffers dominate and its per-object
# cost is negligible.  Small applies stay untouched by it.
WIDE_QUBITS = 10
SMALL_QUBITS = 6

# Span names that construct circuits; only the outermost one of a nested
# chain counts as a build call.
BUILD_SPANS = frozenset({
    "circuits.Gate", "circuits.Gate.unitary", "circuits.Gate.controlled",
    "circuits.Gate.pinch", "circuits.LoccCircuit", "circuits.tensor",
    "circuits.compose", "circuits.conjugate_by_local_unitary",
})

FIDELITY_BUCKETS = (("d2-4", 2, 4), ("d5-16", 5, 16), ("d17-64", 17, 64))

# name -> unit of every per-layer figure ``layer_metrics`` reports.  Counts
# and self times are per timed pass, so runs of different length compare.
LAYER_METRICS = {
    "circuits.apply.calls": "count/pass",
    "circuits.apply.us_per_call.small": "us",
    "circuits.apply.self_s": "s/pass",
    "circuits.apply.us_per_call.wide": "us",
    "circuits.us_per_gate.wide": "us",
    "circuits.apply.peak_alloc_mb": "MB",
    "circuits.build.calls": "count/pass",
    "circuits.build.us_per_call": "us",
    "states.fidelity.calls": "count/pass",
    **{f"states.fidelity.us_per_call.{b}": "us" for b, _, _ in FIDELITY_BUCKETS},
    "states.trace_distance.us_per_call": "us",
    "states.density_validate.calls": "count/pass",
    "states.density_validate.us_per_call": "us",
    "states.self_s": "s/pass",
    "linalg.psd_sqrt.calls": "count/pass",
    "linalg.psd_sqrt.us_per_call": "us",
    "linalg.require_unitary.calls": "count/pass",
    "linalg.as_complex.calls": "count/pass",
    "linalg.haar_unitary.calls": "count/pass",
    "linalg.haar_unitary.us_per_call": "us",
    "linalg.self_s": "s/pass",
    "measures.p_err.calls": "count/pass",
    "measures.p_err.self_s": "s/pass",
    "harness.run_suites.self_s": "s/pass",
    "cli.self_s": "s/pass",
    "packing.members": "count/pass",
    "packing.candidates": "count/pass",
    "packing.accept_ratio": "ratio",
    "packing.separated.calls": "count/pass",
    "packing.separated.us_per_call": "us",
    "packing.separation_check.s": "s/pass",
    "packing.self_s": "s/pass",
    "trace.overhead_ratio": "ratio",
}


def _dim(x) -> int:
    dim = getattr(x, "dim", None)
    return int(dim) if dim is not None else int(np.shape(x)[0])


class Tracer:
    """Records one span per call of a wrapped compent function."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.attrs: dict[int, tuple] = {}  # span index -> call facts
        self.pass_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.pass_id)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        fact = _FACTS.get(name)
        if name == "circuits.apply":
            return self._wrap_apply(nid, fn)

        def wrapper(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if fact is not None:
                self.attrs[i] = fact(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _wrap_apply(self, nid: int, fn):
        def wrapper(circuit, state):
            qubits = circuit.total_qubits
            gates = sum(len(r.alice) + len(r.bob) for r in circuit.rounds)
            wide = qubits >= WIDE_QUBITS and not tracemalloc.is_tracing()
            if wide:
                tracemalloc.start()
            i = self._open(nid)
            try:
                return fn(circuit, state)
            finally:
                self._close(i)
                peak = 0
                if wide:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self.attrs[i] = (qubits, gates, peak)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers of the ``compent`` package currently imported."""
        mods = {layer: importlib.import_module(f"compent.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        try:
            gate = mods["circuits"].Gate
            for attr in ("unitary", "controlled", "pinch"):
                fn = getattr(gate, attr)
                self._patch(gate, attr, staticmethod(self._wrap(f"circuits.Gate.{attr}", fn)))
            for cls, name in ((gate, "circuits.Gate"),
                              (mods["circuits"].LoccCircuit, "circuits.LoccCircuit"),
                              (mods["states"].DensityMatrix, "states.density_validate")):
                self._patch(cls, "__post_init__", self._wrap(name, cls.__post_init__))
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "compent" and not mod_name.startswith("compent."):
                    continue
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._patch(mod, attr, wrappers[obj])
        except BaseException:
            self.uninstall()
            raise
        missed = self.unwrapped()
        if missed:
            self.uninstall()
            raise RuntimeError(f"tracer left originals bound: {missed}")

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    @staticmethod
    def unwrapped() -> list[str]:
        """Names in any compent namespace bound to a public function of a
        traced layer that is not a tracer wrapper; empty while installed."""
        layer_mods = {f"compent.{layer}" for layer in LAYERS}
        return sorted(
            f"{mod_name}.{attr}"
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "compent" or mod_name.startswith("compent.")
            for attr, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj.__module__ in layer_mods
            and not obj.__name__.startswith("_")
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def write(self, path: str) -> None:
        """Save the spans as an ``.npz``: one row per span, ``names`` maps
        the ``name`` column to span names, ``parent`` is -1 at the root and
        ``op`` is the timed pass the span belongs to."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def _fidelity_fact(args, result):
    return (_dim(args[0]),)


def _packing_fact(args, result):
    return (len(result),)


_FACTS = {
    "states.fidelity": _fidelity_fact,
    "packing.greedy_packing": _packing_fact,
}


def layer_metrics(tracer: Tracer, passes: int, overhead_ratio: float) -> dict[str, float]:
    """Per-layer figures from the recorded spans, per timed pass."""
    a = tracer.arrays()
    names = tracer.names
    dur = a["end"] - a["start"]
    parent = a["parent"]
    self_t = dur.copy()
    has_parent = parent >= 0
    np.subtract.at(self_t, parent[has_parent], dur[has_parent])
    span_names = np.array(names or [""], dtype=str)[a["name"]]
    layer = np.array([n.split(".", 1)[0] for n in names] or [""], dtype=str)[a["name"]]

    def where(name):
        return span_names == name

    def us_per_call(mask):
        n = int(mask.sum())
        return float(dur[mask].sum() / n * 1e6) if n else 0.0

    def per_pass(x):
        return float(x) / passes

    m: dict[str, float] = {}

    apply = np.flatnonzero(where("circuits.apply"))
    facts = np.array([tracer.attrs[i] for i in apply], dtype=float).reshape(-1, 3)
    small = apply[facts[:, 0] <= SMALL_QUBITS]
    wide_rows = facts[:, 0] >= WIDE_QUBITS
    wide = apply[wide_rows]
    m["circuits.apply.calls"] = per_pass(len(apply))
    m["circuits.apply.us_per_call.small"] = float(dur[small].mean() * 1e6) if len(small) else 0.0
    m["circuits.apply.self_s"] = per_pass(self_t[apply].sum())
    m["circuits.apply.us_per_call.wide"] = float(dur[wide].mean() * 1e6) if len(wide) else 0.0
    wide_gates = facts[wide_rows, 1].sum()
    m["circuits.us_per_gate.wide"] = float(dur[wide].sum() / wide_gates * 1e6) if wide_gates else 0.0
    m["circuits.apply.peak_alloc_mb"] = float(facts[:, 2].max() / 2**20) if len(facts) else 0.0

    is_build = np.isin(span_names, list(BUILD_SPANS))
    outer = is_build & ~(has_parent & is_build[np.where(has_parent, parent, 0)])
    m["circuits.build.calls"] = per_pass(outer.sum())
    m["circuits.build.us_per_call"] = us_per_call(outer)

    fid = np.flatnonzero(where("states.fidelity"))
    fid_dim = np.array([tracer.attrs.get(i, (0,))[0] for i in fid], dtype=int)
    m["states.fidelity.calls"] = per_pass(len(fid))
    for bucket, lo, hi in FIDELITY_BUCKETS:
        sel = fid[(fid_dim >= lo) & (fid_dim <= hi)]
        m[f"states.fidelity.us_per_call.{bucket}"] = float(dur[sel].mean() * 1e6) if len(sel) else 0.0
    m["states.trace_distance.us_per_call"] = us_per_call(where("states.trace_distance"))
    validate = where("states.density_validate")
    m["states.density_validate.calls"] = per_pass(validate.sum())
    m["states.density_validate.us_per_call"] = us_per_call(validate)

    for name in ("psd_sqrt", "require_unitary", "as_complex", "haar_unitary"):
        m[f"linalg.{name}.calls"] = per_pass(where(f"linalg.{name}").sum())
    m["linalg.psd_sqrt.us_per_call"] = us_per_call(where("linalg.psd_sqrt"))
    m["linalg.haar_unitary.us_per_call"] = us_per_call(where("linalg.haar_unitary"))

    p_err = where("measures.p_err_distill") | where("measures.p_err_dilute")
    m["measures.p_err.calls"] = per_pass(p_err.sum())
    m["measures.p_err.self_s"] = per_pass(self_t[p_err].sum())

    greedy = np.flatnonzero(where("packing.greedy_packing"))
    members = sum(tracer.attrs.get(i, (0,))[0] for i in greedy)
    candidates = int((where("linalg.haar_unitary") & np.isin(parent, greedy)).sum())
    m["packing.members"] = per_pass(members)
    m["packing.candidates"] = per_pass(candidates)
    m["packing.accept_ratio"] = members / candidates if candidates else 0.0
    m["packing.separated.calls"] = per_pass(where("packing.separated").sum())
    m["packing.separated.us_per_call"] = us_per_call(where("packing.separated"))
    m["packing.separation_check.s"] = per_pass(dur[where("packing.separation_check")].sum())

    for name in ("states", "linalg", "packing", "cli"):
        m[f"{name}.self_s"] = per_pass(self_t[layer == name].sum())
    m["harness.run_suites.self_s"] = per_pass(self_t[layer == "harness"].sum())
    m["trace.overhead_ratio"] = float(overhead_ratio)
    return {name: m[name] for name in LAYER_METRICS}
