"""Round-structured circuit representation of LOCC channels.

A circuit acts on five registers laid out in the fixed global order

    A (n_a) | A' (t_a) | C (q) | B (n_b) | B' (t_b)

``REGISTERS`` is the one home of that order: each circuit's register blocks
(``LoccCircuit.block``) and the wire maps of ``tensor`` and ``compose``
derive from it.

A and B hold the bipartite input, A' and B' are local ancillas initialized
to |0..0>, and C is a shared classical register initialized to |0..0>.
Each round applies Alice's gates (on A, A', C), dephases C in the
computational basis, then applies Bob's gates (on B, B', C) and dephases C
again.  Measurement is modeled exactly as that pinching; no trajectories are
sampled.  Finally every wire not designated as an output is traced out.  The
simulator compiles all of this once per circuit into a list of tensor moves.

Gate counting: every unitary or controlled gate costs 1, every pinched wire
in an explicit measure gate costs 1, and every ancilla or communication
qubit costs 1 at creation.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cache, partial, reduce
from itertools import accumulate, chain, zip_longest
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .linalg import (
    QUBIT_CAP,
    SizeLimitError,
    _loader,
    as_ints,
    eigh,
    embed_operator,
    kron,
    marginal,
    matrix_from_dict,
    matrix_to_dict,
    read_only,
    require_unitary,
)
from .states import (
    BipartiteState,
    DensityMatrix,
    _bits,
    _check_key,
    _pair_count,
    all_keys,
    epr_vector,
    key_label,
    pauli_shift,
    rotated_epr,
    shared,
)

UNITARY = "unitary"
CONTROLLED = "controlled"
PINCH = "pinch"

# A controlled gate runs as one dense operator on its controls and payload.
MAX_CONTROLS = 2

# The global wire order: every wire index, block and remap derives from it.
REGISTERS = ("n_a", "t_a", "q", "n_b", "t_b")

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _wires(w) -> tuple[int, ...]:
    return as_ints((w,) if isinstance(w, (int, np.integer)) else w, "wires")


def _set_wires(gate: "Gate", wires, controls) -> None:
    """Give ``gate`` its wires and controls as integer tuples that share no wire."""
    wires, controls = _wires(wires), _wires(controls)
    if len(set(wires + controls)) != len(wires) + len(controls):
        raise ValueError(f"duplicate wires in gate: {wires + controls}")
    object.__setattr__(gate, "wires", wires)
    object.__setattr__(gate, "controls", controls)


@dataclass(frozen=True, eq=False)
class Gate:
    """A single circuit element: unitary, computational-basis controlled
    unitary, or measure-pinch on classical wires."""

    kind: str
    wires: tuple[int, ...]
    matrix: np.ndarray | None = None
    controls: tuple[int, ...] = ()

    def __post_init__(self):
        _set_wires(self, self.wires, self.controls)
        if self.kind in (UNITARY, CONTROLLED):
            if not 1 <= len(self.wires) <= 2:
                raise ValueError("unitary payloads act on 1 or 2 qubits")
            m = require_unitary(self.matrix, "gate payload")
            if m.shape != (2 ** len(self.wires),) * 2:
                raise ValueError(
                    f"payload shape {m.shape} does not match wires {self.wires}"
                )
            if self.kind == CONTROLLED and not self.controls:
                raise ValueError("controlled gate needs at least one control wire")
            if len(self.controls) > MAX_CONTROLS:
                raise SizeLimitError(
                    f"{len(self.controls)} controls exceed the cap of {MAX_CONTROLS}")
            if self.kind == UNITARY and self.controls:
                raise ValueError("plain unitary gate cannot carry controls")
            object.__setattr__(self, "matrix", read_only(m))
        elif self.kind == PINCH:
            if not self.wires:
                raise ValueError("measure-pinch needs at least one wire")
            if self.matrix is not None or self.controls:
                raise ValueError("measure-pinch carries no payload or controls")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")

    @staticmethod
    def unitary(matrix, wires) -> "Gate":
        return Gate(UNITARY, wires, matrix)

    @staticmethod
    def controlled(matrix, wires, controls) -> "Gate":
        return Gate(CONTROLLED, wires, matrix, controls)

    @staticmethod
    def pinch(wires) -> "Gate":
        return Gate(PINCH, wires)

    @property
    def cost(self) -> int:
        return len(self.wires) if self.kind == PINCH else 1

    def touched(self) -> tuple[int, ...]:
        return self.controls + self.wires

    def operator(self) -> np.ndarray | None:
        """The unitary on ``touched()``; None for a pinch.  A controlled gate
        acts as its payload on the all-ones control block."""
        if self.kind != CONTROLLED:
            return self.matrix
        dim_c, dim_w = 2 ** len(self.controls), 2 ** len(self.wires)
        m = np.eye(dim_c * dim_w, dtype=complex)
        m[(dim_c - 1) * dim_w:, (dim_c - 1) * dim_w:] = self.matrix
        return m

    def remap(self, wire_map: dict[int, int]) -> "Gate":
        """The gate on the mapped wires; a map cannot break the checked payload."""
        try:
            wires, controls = ([wire_map[w] for w in ws] for ws in (self.wires, self.controls))
        except KeyError as e:
            raise ValueError(
                f"gate wire {e.args[0]} is not among the mapped wires {sorted(wire_map)}") from None
        g = object.__new__(Gate)
        g.__dict__.update(self.__dict__)
        _set_wires(g, wires, controls)
        return g


@dataclass(frozen=True)
class Round:
    alice: tuple[Gate, ...] = ()
    bob: tuple[Gate, ...] = ()


@dataclass(frozen=True, eq=False)
class LoccCircuit:
    """LOCC channel as alternating per-round local circuits.

    ``out_a`` / ``out_b`` are the positions, within the concatenated (A, A')
    and (B, B') blocks, of the output qubits.  They default to the first
    ``m_a`` / ``m_b`` positions.
    """

    n_a: int
    t_a: int
    q: int
    n_b: int
    t_b: int
    rounds: tuple[Round, ...]
    m_a: int
    m_b: int
    out_a: tuple[int, ...] | None = None
    out_b: tuple[int, ...] | None = None

    def __post_init__(self):
        sizes = as_ints(_sizes(self) + [self.m_a, self.m_b], "register sizes")
        for name, size in zip(REGISTERS + ("m_a", "m_b"), sizes):
            if size < 0:
                raise ValueError(f"{name} must be nonnegative")
        blocks = {r: range(s, s + n)
                  for r, s, n in zip(REGISTERS, accumulate(sizes, initial=0), sizes)}
        object.__setattr__(self, "_blocks", blocks)
        if self.total_qubits > QUBIT_CAP:
            raise SizeLimitError(
                f"circuit needs {self.total_qubits} qubits, cap is {QUBIT_CAP}"
            )
        if self.m_a > self.n_a + self.t_a or self.m_b > self.n_b + self.t_b:
            raise ValueError("output sizes exceed the available qubits")
        if self.m_a < 1 or self.m_b < 1:
            raise ValueError("each party must output at least one qubit")
        object.__setattr__(self, "rounds", tuple(self.rounds))
        out_a = tuple(range(self.m_a)) if self.out_a is None else as_ints(self.out_a, "outA")
        out_b = tuple(range(self.m_b)) if self.out_b is None else as_ints(self.out_b, "outB")
        for out, size, block in ((out_a, self.m_a, self.n_a + self.t_a),
                                 (out_b, self.m_b, self.n_b + self.t_b)):
            if len(out) != size or len(set(out)) != size:
                raise ValueError(f"output positions {out} do not match size {size}")
            if any(p < 0 or p >= block for p in out):
                raise ValueError(f"output positions {out} outside block of {block}")
        object.__setattr__(self, "out_a", out_a)
        object.__setattr__(self, "out_b", out_b)
        c_wires = set(self.c_wires)
        for party, owned in (("alice", set(self.alice_wires)), ("bob", set(self.bob_wires))):
            for g in chain.from_iterable(getattr(rnd, party) for rnd in self.rounds):
                if not owned.issuperset(g.touched()):
                    raise ValueError(
                        f"{party.capitalize()} gate touches foreign wires: {g.touched()}")
                if g.kind == PINCH and not c_wires.issuperset(g.wires):
                    raise ValueError(f"measure-pinch wires {g.wires} must lie in C")

    # -- register geometry ---------------------------------------------------

    def block(self, register: str) -> range:
        """The global wires of one of the ``REGISTERS``."""
        return self._blocks[register]

    @property
    def total_qubits(self) -> int:
        return self.block("t_b").stop

    @property
    def c_wires(self) -> range:
        return self.block("q")

    @property
    def alice_wires(self) -> tuple[int, ...]:
        return tuple(range(self.block("q").stop))  # A, A', C

    @property
    def bob_wires(self) -> tuple[int, ...]:
        return (*range(self.block("n_b").start, self.total_qubits), *self.c_wires)  # B, B', C

    @property
    def out_a_global(self) -> tuple[int, ...]:
        return self.out_a  # the (A, A') block starts at global wire 0

    @property
    def out_b_global(self) -> tuple[int, ...]:
        return tuple(self.block("n_b").start + p for p in self.out_b)


def gate_count(circuit: LoccCircuit) -> int:
    """Total cost: gates, pinched wires, and ancilla/communication creation."""
    gates = sum(
        g.cost for rnd in circuit.rounds for g in (*rnd.alice, *rnd.bob)
    )
    return gates + circuit.t_a + circuit.t_b + circuit.q


# -- simulation ---------------------------------------------------------------

# Gate steps on a tensor of more than 2**_STEP_AXES entries run as grouped
# moves: a run of one or more steps whose axes fit in one block of
# 2**_STEP_AXES entries (512 KiB), which stays in cache, takes the run block by
# block, with two blocks on each of its two threads.  Blocks take a helper
# thread only where OpenBLAS runs one thread, as set before numpy loaded: more
# BLAS threads already share out each block's product.
_STEP_AXES = 15
_GROUP_BLOCKS = 4
# The most bytes one move of a run may hold; ``apply`` refuses a plan that
# needs more (a density tensor on 13 wires takes 1 GiB).
MOVE_BYTES_CAP = 2 ** 30
_BLAS_ONE = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS")) == "1"


def _quota_cpus(cpu_max: str) -> int | None:
    """The CPUs a cgroup v2 ``cpu.max`` line grants: quota over period,
    rounded down, at least 1; None when the quota is ``max``."""
    quota, period = cpu_max.split()
    return None if quota == "max" else max(1, int(quota) // int(period))


@cache  # read once per process: _share asks on every grouped move, and a quota seldom moves
def _cgroup_cpus(mount: str = "/sys/fs/cgroup", own: str = "/proc/self/cgroup") -> int | None:
    """The least of the CPU quotas on this process's cgroup v2 group (the
    ``0::`` line of ``own``) and on each group above it under ``mount``;
    None where no group has one."""
    try:
        with open(own) as fh:
            path = next((line[3:].strip() for line in fh if line.startswith("0::")), "/")
    except OSError:
        path = "/"
    parts, quotas = [p for p in path.split("/") if p], []
    for k in range(len(parts) + 1):
        try:
            with open(os.path.join(mount, *parts[:k], "cpu.max")) as fh:
                quotas.append(_quota_cpus(fh.read()))
        except (OSError, ValueError):  # no quota file here, or one this parser does not know
            pass
    return min((q for q in quotas if q), default=None)


def cpu_count() -> int:
    """The CPUs this process may use: its affinity, or ``os.cpu_count``
    where there is none, capped by its cgroups' CPU quotas where they have one."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, _cgroup_cpus() or cpus)


@cache  # keyed by pid: a forked child's copy of the pool has no thread, so it makes its own
def _helper(pid: int) -> ThreadPoolExecutor:
    """The one-thread pool that takes blocks of this process's grouped moves."""
    return ThreadPoolExecutor(1)


# The moves of a run.  An amplitude tensor has one axis per active wire; a
# (2,)*2k density tensor has bra axis i and ket axis k+i on the i-th of its k
# active wires.  Only ``_plan`` knows which wire an axis belongs to.


def _ensure(t: np.ndarray, f: int, k: int | None = None) -> np.ndarray:
    """``t`` with f fresh |0> wires appended; given ``k``, ``t`` is a density
    tensor on k wires, whose new bras sit after the old bras, new kets at the end."""
    block = np.zeros((2,) * (f if k is None else 2 * f), dtype=complex)
    block[(0,) * block.ndim] = 1.0
    t = np.multiply.outer(t, block)
    if k is None:
        return t
    return t.transpose([*range(k), *range(2 * k, 2 * k + f),
                        *range(k, 2 * k), *range(2 * k + f, 2 * (k + f))])


def _share(items: Iterator, work: Callable) -> None:
    """``work(item)`` for each of ``items`` (a ``_group`` move's blocks), claimed
    one at a time under a lock by this thread and, where ``cpu_count()`` is two
    or more and ``_BLAS_ONE``, by the helper thread too.  Returns once no
    thread runs ``work``; an error raised in the helper's item is raised here."""
    lock = threading.Lock()

    def run() -> None:
        while True:
            with lock:
                item = next(items, None)
            if item is None:
                return
            work(item)

    helper = _BLAS_ONE and cpu_count() > 1 and _helper(os.getpid()).submit(run)
    try:
        run()
    finally:  # no thread runs work once _share returns
        if helper and not helper.cancel():
            helper.result()
        del items, work  # a cancelled task stays queued until the helper runs: it holds no tensor


def _step(t: np.ndarray, u: np.ndarray, axes: list[int], out: np.ndarray | None = None) -> np.ndarray:
    """Operator ``u`` on the tensor ``axes``: one ``np.dot`` with those axes
    moved in front, into ``out`` (C-contiguous, ``len(u)`` rows) if one is given.
    """
    # np.tensordot's dot on its operands; u keeps its memory order (a copy can move last bits)
    perm = axes + [i for i in range(t.ndim) if i not in axes]
    back = sorted(range(len(perm)), key=perm.__getitem__)  # the inverse of perm
    return np.dot(u, t.transpose(perm).reshape(len(u), -1), out=out).reshape(t.shape).transpose(back)


def _group(t: np.ndarray, steps: list[tuple[np.ndarray, list[int]]]) -> np.ndarray:
    """The gate ``steps`` (operator, axes), one or more, whose axes together
    number at most _STEP_AXES, in one pass over ``t`` of more than
    2**_STEP_AXES entries: for each index of the leading axes outside theirs,
    one 2**_STEP_AXES-entry block takes the steps in order by ``_step``'s
    single dot into one buffer, then is written into one preallocated output.
    The blocks are ``_share``d between this thread and the helper.  The output
    has the bits and strides that chained ``_step`` calls give, and the move's
    peak allocation is one tensor plus ``_GROUP_BLOCKS`` blocks.
    """
    touched = {a for _, axes in steps for a in axes}
    lead = [a for a in range(t.ndim) if a not in touched][:t.ndim - _STEP_AXES]
    inner = [a for a in range(t.ndim) if a not in lead]
    moved = [(u, [inner.index(a) for a in axes]) for u, axes in steps]
    perm = steps[-1][1] + [a for a in range(t.ndim) if a not in steps[-1][1]]  # the last _step's layout
    out = np.empty([t.shape[a] for a in perm], dtype=complex).transpose(np.argsort(perm))
    view, dest = t.transpose(lead + inner), out.transpose(lead + inner)

    def block(i) -> None:
        b, cols = view[i], np.empty(2 ** _STEP_AXES, dtype=complex)
        for u, axes in moved:  # b is gathered into a copy before the dot writes cols
            b = _step(b, u, axes, cols.reshape(len(u), -1))
        dest[i] = b

    _share(np.ndindex((2,) * len(lead)), block)
    return out


def _densify(t: np.ndarray) -> np.ndarray:
    v = t.reshape(-1)
    return np.outer(v, v.conj()).reshape((2,) * (2 * t.ndim))


def _pinch(t: np.ndarray, k: int, positions: list[int]) -> np.ndarray:
    """The density tensor on k wires dephased, in place, on the wires at ``positions``."""
    for p in positions:
        view = t.transpose([p, k + p, *(i for i in range(2 * k) if i not in (p, k + p))])
        view[0, 1] = view[1, 0] = 0.0
    return t


def _trace_pure(t: np.ndarray, axes: list[int]) -> np.ndarray:
    """The density tensor of amplitude tensor ``t`` with ``axes`` traced out: np.tensordot's
    one dot of the outer product over those axes, without the full matrix."""
    keep = [i for i in range(t.ndim) if i not in axes]
    flat = t.transpose(keep + axes).reshape(2 ** len(keep), -1)
    dual = t.conj().transpose(axes + keep).reshape(-1, len(flat))
    return np.dot(flat, dual).reshape((2,) * (2 * len(keep)))


def _trace(t: np.ndarray, positions: list[int]) -> np.ndarray:
    """A density tensor traced over wires one by one, each at its position after the earlier ones."""
    for p in positions:
        t = np.trace(t, axis1=p, axis2=t.ndim // 2 + p)
    return t


def _as_vector(matrix: np.ndarray) -> np.ndarray | None:
    """Amplitudes of a numerically pure density matrix, else None."""
    if matrix.shape[0] > 256:
        return None
    purity = float(np.real(np.einsum("ij,ji->", matrix, matrix)))
    if abs(purity - 1.0) > 1e-12:
        return None
    return eigh(matrix)[1][:, -1]


def _plan(circuit: LoccCircuit, pure: bool) -> tuple[list[Callable[[np.ndarray], np.ndarray]], int]:
    """The run of ``circuit`` on an amplitude (``pure``) or density tensor over
    its input wires, as moves with every axis position fixed, and the most
    bytes one move holds: its input and its output, and a grouped move's blocks.

    The steps are the gates in order; once C is in use, each half-round ends
    with a dephasing of the C wires that a later gate still touches.  An
    ancilla joins in |0> when first touched.  A dead wire (an idle input, or a
    non-output past its last use) is traced out at once while the state is
    mixed, before a pinch while it is pure.  The non-outputs left are traced
    out last, then the marginal on the outputs is taken.  On a density tensor
    a gate step carries its ``kron(U, conj U)``, built here once.  A gate step
    on a tensor of at most 2**_STEP_AXES entries is a ``_step``.  On a larger
    one, every gate step runs in a ``_group`` move: consecutive steps join
    one, greedily in gate order, while their axes together fit in _STEP_AXES,
    and a step that does not fit opens the next.
    """
    steps, last = [], {}  # (wires, operator or None for a dephasing); each wire's last gate step
    for rnd in circuit.rounds:
        for gates in (rnd.alice, rnd.bob):
            for g in gates:
                last.update(dict.fromkeys(g.touched(), len(steps)))
                steps.append((g.touched(), g.operator()))
            used_c = [w for w in circuit.c_wires if w in last]
            if used_c:
                steps.append((used_c, None))
    outs = circuit.out_a_global + circuit.out_b_global
    active = [*circuit.block("n_a"), *circuit.block("n_b")]
    dead = {w for w in active if w not in last and w not in outs}
    moves: list = []  # a run of gate steps sits here as a list of (operator, axes)
    # entries of the tensor, and the most one move holds (a pinch, in place, holds its tensor)
    size = peak = 2 ** (len(active) if pure else 2 * len(active))

    def resized(before):
        """Count a move from a tensor of ``before`` entries to one on the wires now active."""
        nonlocal size, peak
        size = 2 ** (len(active) if pure else 2 * len(active))
        peak = max(peak, before + size)

    def at(wires):
        return [active.index(w) for w in wires]

    def ensure(wires):
        fresh = [w for w in wires if w not in active]
        if fresh:
            moves.append(partial(_ensure, f=len(fresh), k=None if pure else len(active)))
            active.extend(fresh)
            resized(size)

    def drop(wires):
        nonlocal pure
        pos = at(w for w in active if w in wires)
        if pos:
            moves.append(partial(_trace_pure, axes=pos) if pure else
                         partial(_trace, positions=[p - j for j, p in enumerate(pos)]))
            active[:] = [w for w in active if w not in wires]
            pure = False
            resized(size)

    def densify():
        nonlocal pure
        if pure:
            moves.append(_densify)
            pure = False
            resized(size)

    def step(u, axes):
        nonlocal peak
        run = moves[-1] if moves and isinstance(moves[-1], list) else []
        if size <= 2 ** _STEP_AXES:
            moves.append(partial(_step, u=u, axes=axes))
            peak = max(peak, 2 * size)
        elif run and len(set(axes).union(*(a for _, a in run))) <= _STEP_AXES:
            run.append((u, axes))
        else:
            moves.append([(u, axes)])
            peak = max(peak, 2 * size + _GROUP_BLOCKS * 2 ** _STEP_AXES)

    if not pure:
        drop(dead)
    for j, (wires, op) in enumerate(steps):
        if op is None:  # every wire of a pinch gate has last >= j; a dephasing keeps the live ones
            wires = [w for w in wires if last[w] >= j]
        ensure(wires)
        if op is not None:
            axes = at(wires)
            if not pure:
                op, axes = kron(op, op.conj()), axes + [len(active) + a for a in axes]
            step(op, axes)
        else:
            if pure:  # shed dead wires before the pinch densifies
                drop(dead)
            if wires:
                densify()
                moves.append(partial(_pinch, k=len(active), positions=at(wires)))
        dead.update(w for w in wires if last[w] == j and w not in outs)
        if not pure:
            drop(dead)
    ensure(outs)  # untouched ancilla outputs are still |0>
    drop([w for w in active if w not in outs])
    densify()
    n, keep = len(active), at(outs)
    moves.append(lambda t: marginal(t, n, keep))  # looked up per run, as a tracer rebinds it
    peak = max(peak, 2 * size)
    return ([partial(_group, steps=m) if isinstance(m, list) else m for m in moves],
            peak * np.dtype(complex).itemsize)


def apply(circuit: LoccCircuit, state: BipartiteState) -> BipartiteState:
    """Run the channel on a bipartite input and return the bipartite output.

    The moves that ``_plan`` compiles for a pure or a mixed input run on a
    copy of the input.  A circuit keeps its plans, and a state the result of
    the purity probe ``_as_vector``; the stock states and circuits up to
    ``SHARED_ENTRIES`` entries per array are ``shared``, so a verify pass
    probes and plans each of them once.  A plan whose largest move would
    hold more than ``MOVE_BYTES_CAP`` bytes raises ``SizeLimitError`` before
    the copy.  Every move is an exact density-matrix identity, so the result
    equals the static full-register simulation, and the output skips
    ``DensityMatrix``'s checks.
    """
    if state.cut != (circuit.n_a, circuit.n_b):
        raise ValueError(
            f"input cut {state.cut} does not match circuit ({circuit.n_a}, {circuit.n_b})"
        )
    if "_vector" not in vars(state):  # deterministic; nothing writes into a state's matrix
        object.__setattr__(state, "_vector", _as_vector(state.matrix))
    pure = state._vector is not None
    plans = vars(circuit).setdefault("_plans", {})  # deterministic; a frozen circuit's gates never change
    if pure not in plans:
        plans[pure] = _plan(circuit, pure)
    moves, peak = plans[pure]
    if peak > MOVE_BYTES_CAP:
        raise SizeLimitError(f"a move of this run holds {peak} bytes, cap is {MOVE_BYTES_CAP}")
    t = np.array(state._vector if pure else state.matrix, dtype=complex)
    t = t.reshape((2,) * (t.ndim * (circuit.n_a + circuit.n_b)))  # a vector has one axis per wire
    for move in moves:
        t = move(t)
    return DensityMatrix._trusted(t, (circuit.m_a, circuit.m_b))


# -- combinators ---------------------------------------------------------------


def _remap_rounds(circuit: LoccCircuit, wire_map: dict[int, int]) -> list[Round]:
    def remap(gates):
        return tuple(g.remap(wire_map) for g in gates)
    return [Round(remap(rnd.alice), remap(rnd.bob)) for rnd in circuit.rounds]


def _sizes(circuit: LoccCircuit) -> list[int]:
    return [getattr(circuit, r) for r in REGISTERS]


def _wire_map(circuit: LoccCircuit, starts: Iterable[int]) -> dict[int, int]:
    """Send each register block of ``circuit`` to consecutive wires from its new start."""
    return {w: s + i for r, s in zip(REGISTERS, starts) for i, w in enumerate(circuit.block(r))}


def _wire_maps(sizes: list[int], g1: LoccCircuit, g2: LoccCircuit) -> tuple[dict, dict]:
    """Wire maps onto registers of ``sizes``: g1's blocks open each register,
    g2's follow them."""
    starts = list(accumulate(sizes, initial=0))
    return _wire_map(g1, starts), _wire_map(g2, map(sum, zip(starts, _sizes(g1))))


def _assemble(sizes: list[int], rounds, parts) -> LoccCircuit:
    """The circuit on registers of ``sizes`` running ``rounds``, with the outputs
    of each ``(circuit, wire map)`` part in turn sent through its map; positions
    count from wire 0 for (A, A') and from the B start for (B, B')."""
    b0 = sum(sizes[:REGISTERS.index("n_b")])
    out_a = tuple(m[w] for g, m in parts for w in g.out_a_global)
    out_b = tuple(m[w] - b0 for g, m in parts for w in g.out_b_global)
    return LoccCircuit(*sizes, tuple(rounds), len(out_a), len(out_b), out_a=out_a, out_b=out_b)


def tensor(g1: LoccCircuit, g2: LoccCircuit) -> LoccCircuit:
    """Parallel composition: g1 on the first A:B block, g2 on the second."""
    sizes = [n1 + n2 for n1, n2 in zip(_sizes(g1), _sizes(g2))]
    map1, map2 = _wire_maps(sizes, g1, g2)
    pairs = zip_longest(_remap_rounds(g1, map1), _remap_rounds(g2, map2), fillvalue=Round())
    return _assemble(sizes, (Round(r1.alice + r2.alice, r1.bob + r2.bob) for r1, r2 in pairs),
                     ((g1, map1), (g2, map2)))


def compose(second: LoccCircuit, first: LoccCircuit) -> LoccCircuit:
    """Sequential composition: run ``first``, feed its output to ``second``."""
    if (second.n_a, second.n_b) != (first.m_a, first.m_b):
        raise ValueError(
            f"shape mismatch: first outputs ({first.m_a}, {first.m_b}), "
            f"second expects ({second.n_a}, {second.n_b})"
        )
    # second's ancillas are fresh; its inputs ride on first's output wires
    sizes = [n if r in ("n_a", "n_b") else n + getattr(second, r)
             for r, n in zip(REGISTERS, _sizes(first))]
    map1, map2 = _wire_maps(sizes, first, second)
    inputs = (*second.block("n_a"), *second.block("n_b"))
    map2.update(zip(inputs, (map1[w] for w in first.out_a_global + first.out_b_global)))
    return _assemble(sizes, _remap_rounds(first, map1) + _remap_rounds(second, map2),
                     ((second, map2),))


def local_layer_unitary(gates: Sequence[Gate], n_qubits: int) -> np.ndarray:
    """Product of a list of local unitary gates as one matrix.

    Gate wires index the target block 0..n_qubits-1; gates apply in list
    order, so the matrix is gates[-1] .. gates[0].
    """
    u = np.eye(2 ** n_qubits, dtype=complex)
    for g in gates:
        if g.kind != UNITARY:
            raise ValueError("a local unitary layer may contain only unitary gates")
        u = embed_operator(g.matrix, g.wires, n_qubits) @ u
    return u


def conjugate_by_local_unitary(
    g: LoccCircuit, alice_layer: Sequence[Gate], bob_layer: Sequence[Gate]
) -> LoccCircuit:
    """Append a local unitary layer acting on the output qubits.

    Layer gate wires are indices into the output blocks (0..m_a-1 and
    0..m_b-1).  The gate count grows by exactly the number of supplied gates.
    """
    alice, bob = (tuple(gate.remap(dict(enumerate(out))) for gate in layer)
                  for layer, out in ((alice_layer, g.out_a_global), (bob_layer, g.out_b_global)))
    for gate in alice + bob:
        if gate.kind != UNITARY:
            raise ValueError("conjugation layers may contain only unitary gates")
    return replace(g, rounds=g.rounds + (Round(alice, bob),))


# -- stock protocols ------------------------------------------------------------


@shared
def identity_circuit(n_a: int, n_b: int) -> LoccCircuit:
    return LoccCircuit(n_a, 0, 0, n_b, 0, (Round(),), n_a, n_b)


def local_unitary_circuit(
    alice_gates: Sequence[Gate], bob_gates: Sequence[Gate], n_a: int, n_b: int
) -> LoccCircuit:
    """One-round circuit of purely local unitaries (wires are global)."""
    return LoccCircuit(
        n_a, 0, 0, n_b, 0, (Round(tuple(alice_gates), tuple(bob_gates)),), n_a, n_b
    )


def bob_unitary_circuit(u, m: int) -> LoccCircuit:
    """Bob applies a single unitary on his m qubits; the gate checks ``u`` and m <= 2."""
    wires = tuple(range(m, 2 * m))
    return local_unitary_circuit((), (Gate.unitary(u, wires),), m, m)


def unrotate_distillation(u, m: int) -> LoccCircuit:
    """Bob-only circuit applying u^dag; maps the rotated EPR state Phi_U back
    to m perfect pairs; the gate checks u."""
    return bob_unitary_circuit(np.asarray(u, dtype=complex).conj().T, m)


def teleport_dilution(prep: Sequence[Gate], n: int) -> LoccCircuit:
    """Standard teleportation consuming n EPR pairs.

    ``prep`` acts on Alice's ancilla block A' of 2n qubits (wires indexed
    0..2n-1 within that block) and prepares the target's purification:
    the first n qubits are Alice's share, the last n are teleported to Bob.
    Per teleported qubit: entangling CNOT, Hadamard, two outcome-copy CNOTs
    into C, a two-wire measure-pinch, and Bob's classically controlled X and
    Z corrections.  Wires: Alice's EPR halves 0..n-1, A' from n, C from 3n,
    Bob's EPR halves from 5n.
    """
    n = _pair_count(n)
    alice: list[Gate] = [g.remap({i: n + i for i in range(2 * n)}) for g in prep]
    bob: list[Gate] = []
    measures: list[Gate] = []
    for i in range(n):
        source = 2 * n + i       # purification qubit headed to Bob
        epr_a = i                # Alice's half of pair i
        c_x, c_z = 3 * n + 2 * i, 3 * n + 2 * i + 1
        alice.append(Gate.unitary(_CNOT, (source, epr_a)))
        alice.append(Gate.unitary(_H, (source,)))
        alice.append(Gate.unitary(_CNOT, (epr_a, c_x)))
        alice.append(Gate.unitary(_CNOT, (source, c_z)))
        measures.append(Gate.pinch((c_x, c_z)))
        bob.append(Gate.controlled(_X, (5 * n + i,), (c_x,)))
        bob.append(Gate.controlled(_Z, (5 * n + i,), (c_z,)))
    alice.extend(measures)  # pinches commute past the disjoint-wire unitaries
    return LoccCircuit(
        n, 2 * n, 2 * n, n, 0,
        (Round(tuple(alice), tuple(bob)),),
        n, n,
        out_a=tuple(range(n, 2 * n)),  # Alice keeps her purification share
        out_b=tuple(range(n)),
    )


def bbpssw_round() -> LoccCircuit:
    """One recurrence round of two-pair entanglement purification.

    Input: two 2-qubit pairs across the cut (pair i = A-qubit i with B-qubit
    i).  Both parties CNOT pair 1 onto pair 2, measure the pair-2 qubits and
    compare through C.  On agreement the first pair is kept; on disagreement
    both halves are swapped out for fresh |0> ancillas, so the failure branch
    emits |00><00|.  The comparison flag is the parity wire in C.
    """
    a1, a2, a_anc = 0, 1, 2
    c0, c1, flag = 3, 4, 5
    b1, b2, b_anc = 6, 7, 8
    round1 = Round(
        alice=(
            Gate.unitary(_CNOT, (a1, a2)),
            Gate.unitary(_CNOT, (a2, c0)),
            Gate.pinch((c0,)),
        ),
        bob=(
            Gate.unitary(_CNOT, (b1, b2)),
            Gate.unitary(_CNOT, (b2, c1)),
            Gate.pinch((c1,)),
            Gate.unitary(_CNOT, (c0, flag)),
            Gate.unitary(_CNOT, (c1, flag)),
            Gate.controlled(_SWAP, (b1, b_anc), (flag,)),
        ),
    )
    round2 = Round(alice=(Gate.controlled(_SWAP, (a1, a_anc), (flag,)),))
    return LoccCircuit(2, 1, 3, 2, 1, (round1, round2), 1, 1)


def _pairwise(one: LoccCircuit, n_b: int) -> LoccCircuit:
    """``n_b`` copies of a one-pair channel side by side, copy i on pair i."""
    return reduce(tensor, [one] * _pair_count(n_b))


@shared
def dephase_bob_circuit(n_b: int) -> LoccCircuit:
    """Fully dephase each of Bob's qubits in the computational basis."""
    bob = (Gate.unitary(_CNOT, (2, 1)), Gate.pinch((1,)))  # B onto C, then pinch C
    return _pairwise(LoccCircuit(1, 0, 1, 1, 0, (Round(bob=bob),), 1, 1), n_b)


@shared
def replace_bob_circuit(n_b: int) -> LoccCircuit:
    """Discard Bob's qubits and hand out fresh |0> ancillas instead."""
    bob = (Gate.unitary(_SWAP, (1, 2)),)  # B with B'
    return _pairwise(LoccCircuit(1, 0, 0, 1, 1, (Round(bob=bob),), 1, 1), n_b)


def stock_channel_zoo() -> list[tuple[str, LoccCircuit]]:
    """Small named channels used by the property checks."""
    feedback = LoccCircuit(
        1, 0, 1, 1, 0,
        (
            Round(
                alice=(Gate.unitary(_CNOT, (0, 1)), Gate.pinch((1,))),
                bob=(Gate.controlled(_Z, (2,), (1,)),),
            ),
        ),
        1, 1,
    )
    return [
        ("identity", identity_circuit(1, 1)),
        ("bob-bitflip", bob_unitary_circuit(_X, 1)),
        ("bob-hadamard", bob_unitary_circuit(_H, 1)),
        ("dephase-bob", dephase_bob_circuit(1)),
        ("replace-bob", replace_bob_circuit(1)),
        ("alice-measure-bob-phase", feedback),
        ("purify-round", bbpssw_round()),
    ]


# -- budgets and families --------------------------------------------------------


@dataclass(frozen=True)
class GateBudget:
    """Polynomial gate budget with finite nonnegative coefficients c0..cd."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if not self.coeffs or not all(0 <= c < np.inf for c in self.coeffs):  # refuses NaN too
            raise ValueError("budget coefficients must be finite and nonnegative")

    def __call__(self, lam: int) -> float:
        return float(sum(c * lam ** i for i, c in enumerate(self.coeffs)))


@dataclass(frozen=True)
class KeyedChannelFamily:
    kappa: Callable[[int], int]
    generator: Callable[[int, tuple[int, ...]], LoccCircuit]
    budget: GateBudget

    def circuit(self, lam: int, key: tuple[int, ...] = ()) -> LoccCircuit:
        return self.generator(lam, _check_key(key, self.kappa(lam)))


class ChannelFamily(KeyedChannelFamily):
    """Growth-parameter indexed circuit family: the kappa = 0 keyed family."""

    def __init__(self, generator: Callable[[int], LoccCircuit], budget: GateBudget):
        super().__init__(lambda lam: 0, lambda lam, key: generator(lam), budget)


@dataclass(frozen=True)
class EfficiencyReport:
    passed: bool
    checked: tuple[int, ...]
    violations: tuple[tuple, ...]  # (lam, key or None, count, budget)

    def to_dict(self) -> dict:
        return {
            "pass": self.passed,
            "checked": list(self.checked),
            "violations": [
                {
                    "lambda": lam,
                    "key": None if key is None else key_label(key),
                    "gate_count": count,
                    "budget": budget,
                }
                for lam, key, count, budget in self.violations
            ],
        }


def is_efficient(family, lambdas: Sequence[int]) -> EfficiencyReport:
    """Check every generated circuit against the declared polynomial budget.

    Every key is checked; unequal gate counts across keys of one lambda make
    every key of it a violation.  Each (lambda, key) is listed at most once,
    the empty key of a one-shot family as None.
    """
    if not lambdas:
        raise ValueError("need at least one lambda to check")
    violations: list[tuple] = []
    for lam in lambdas:
        cap = family.budget(lam)
        counts = {key: gate_count(family.circuit(lam, key)) for key in all_keys(family.kappa(lam))}
        uneven = len(set(counts.values())) > 1
        violations += [(lam, key or None, count, cap) for key, count in counts.items()
                       if uneven or count > cap]
    return EfficiencyReport(not violations, tuple(lambdas), tuple(violations))


@shared
def _on_shift(build, bits: tuple[int, ...], m: int):
    return build(pauli_shift(bits[:m], bits[m:]), m)


def _keyed(build, key: tuple[int, ...], m: int):
    """``build(shift, m)`` on the Pauli shift of ``key`` zero-padded to 2m bits:
    the first m bits choose X factors and the last m choose Z factors."""
    m = _pair_count(m)
    bits = tuple(key) + (0,) * (2 * m - len(key))
    if len(bits) != 2 * m:
        raise ValueError(f"key {key} longer than 2m = {2 * m}")
    return _on_shift(build, _bits(bits), m)


def keyed_pauli_state(key: tuple[int, ...], m: int) -> BipartiteState:
    """Stock keyed family: EPR pairs rotated by the key's Pauli shift."""
    return _keyed(rotated_epr, key, m)


def keyed_pauli_unrotate(key: tuple[int, ...], m: int) -> LoccCircuit:
    """Witness circuit distilling the stock keyed family exactly."""
    return _keyed(unrotate_distillation, key, m)


def keyed_pauli_rotate(key: tuple[int, ...], m: int) -> LoccCircuit:
    """Witness circuit preparing the stock keyed family from EPR pairs."""
    return _keyed(bob_unitary_circuit, key, m)


# -- serialization ---------------------------------------------------------------


def _gate_to_dict(g: Gate) -> dict:
    d: dict = {"kind": g.kind, "wires": list(g.wires)}
    if g.controls:
        d["controls"] = list(g.controls)
    if g.matrix is not None:
        d.update(matrix_to_dict(g.matrix))
    return d


def _gate_from_dict(d: dict) -> Gate:
    wires = _wires(d["wires"])
    matrix = matrix_from_dict(d, (2 ** len(wires),) * 2) if "re" in d else None
    return Gate(d["kind"], wires, matrix, tuple(d.get("controls", ())))


# JSON key of each size field, in the serialized order
_SIZE_KEYS = dict(nA="n_a", tA="t_a", q="q", nB="n_b", tB="t_b", mA="m_a", mB="m_b")


def circuit_to_dict(c: LoccCircuit) -> dict:
    return {
        "registers": {key: getattr(c, name) for key, name in _SIZE_KEYS.items()},
        "outA": list(c.out_a),
        "outB": list(c.out_b),
        "rounds": [
            {
                "alice": [_gate_to_dict(g) for g in rnd.alice],
                "bob": [_gate_to_dict(g) for g in rnd.bob],
            }
            for rnd in c.rounds
        ],
    }


@_loader
def circuit_from_dict(d: dict) -> LoccCircuit:
    r = d["registers"]
    rounds = tuple(
        Round(
            tuple(_gate_from_dict(g) for g in rnd["alice"]),
            tuple(_gate_from_dict(g) for g in rnd["bob"]),
        )
        for rnd in d["rounds"]
    )
    return LoccCircuit(
        **{name: r[key] for key, name in _SIZE_KEYS.items()}, rounds=rounds,
        out_a=tuple(d["outA"]) if "outA" in d else None,
        out_b=tuple(d["outB"]) if "outB" in d else None,
    )


def epr_expectation(state: BipartiteState, m: int) -> float:
    """<phi^(x)m| rho |phi^(x)m> for a state on cut (m, m)."""
    if state.cut != (m, m):
        raise ValueError(f"state cut {state.cut} does not match {m} EPR pairs")
    v = epr_vector(m)
    return float(np.real(v.conj() @ state.matrix @ v))
