"""The benchmark's workloads.

A workload has two steps.  ``inputs(seed, quick)`` draws every random input
from the seed with plain numpy; it runs once and is not timed.
``build(inputs, workdir)`` makes the program's objects from those inputs
with ``compent`` calls and returns a list of items; the runner times it as
the set-up.  One pass runs every item once.  Each item has

* ``run()``, the timed call, returning the item's output;
* ``ops(output)``, the operations that call made;
* ``check(output)``, how many of those operations gave a wrong output,
  judged against oracles written here with plain numpy.

The runner times items one by one, so a noisy moment spoils one short sample
rather than a whole pass.  ``run`` looks every compent function up through
its module at call time, so the tracer's wrappers see the calls.  Inputs
never come from ``tests/``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

SLACK = -1e-9     # criterion 1: inequality tolerance
EQ_TOL = 1e-9     # criterion 1: equality tolerance; also the oracle tolerance

PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class Item:
    run: Callable[[], Any]
    ops: Callable[[Any], int]
    check: Callable[[Any], int]


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int, bool], Any]
    build: Callable[[Any, str], list[Item]]


def _one(output) -> int:
    return 1


def _seed(seed: int, quick: bool) -> int:
    return seed


# -- input generators, independent of compent ----------------------------------


def ginibre_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def dense_unitary(gates, n: int) -> np.ndarray:
    """Product of (matrix, wires) gates on n qubits, qubit 0 most significant."""
    t = np.eye(2 ** n, dtype=complex).reshape((2,) * n + (2 ** n,))
    for u, wires in gates:
        k = len(wires)
        t = np.tensordot(u.reshape((2,) * (2 * k)), t, axes=(list(range(k, 2 * k)), list(wires)))
        t = np.moveaxis(t, list(range(k)), list(wires))
    return t.reshape(2 ** n, 2 ** n)


def same(a, b) -> bool:
    """Bit-for-bit equality of pass outputs."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and bool(np.array_equal(a, b))
    if isinstance(a, (tuple, list)):
        return (isinstance(b, (tuple, list)) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    return a == b


# -- verify-suite: the main user command ---------------------------------------

VERIFY_RECORDS = 111


def verify_build(seed: int, workdir: str) -> list[Item]:
    from compent import cli
    out = os.path.join(workdir, "verify.json")
    argv = ["verify", "--suite", "all", "--lambda", "1..3", "--seed", str(seed), "--out", out]

    def run():
        code = cli.main(argv)
        with open(out, "rb") as fh:
            return code, fh.read()

    return [Item(run, _one, verify_check)]


def verify_check(output) -> int:
    """Counts come from the JSON report: the stderr summary line counts the
    inconclusive record as passed."""
    code, report = output
    records = json.loads(report)
    failed = [r for r in records if not r["pass"] and not r["inconclusive"]]
    inconclusive = [r for r in records if r["inconclusive"]]
    ok = (
        code == 0
        and len(records) == VERIFY_RECORDS
        and not failed
        and [(r["name"], r["details"].get("m")) for r in inconclusive]
        == [("noninvariance-counterexample", 2)]
    )
    return 0 if ok else 1


# -- fidelity-axioms: criterion 1's shape ----------------------------------------

# Pairs per dimension and states per channel, per pass.  Criterion 1 uses
# 200 (about 27k fidelity calls, 8-10 s a pass); 20 keep a pass near 0.4 s,
# so a run repeats every item about 60 times and can take the fastest call.
AXIOM_PAIRS = 20
AXIOM_DIMS = range(2, 17)


def axioms_inputs(seed: int, quick: bool):
    """Per dimension, the pairs of criterion 1's four axioms; per stock
    channel, the state pairs sent through it."""
    from compent import circuits  # only for the channels' cuts
    rng = np.random.default_rng(seed)
    pairs = 2 if quick else AXIOM_PAIRS
    dims = []
    for dim in (range(2, 5) if quick else AXIOM_DIMS):
        blocks = []
        for _ in range(pairs):
            rho, sigma, rho2 = (ginibre_density(dim, rng) for _ in range(3))
            p = rng.uniform(0.1, 0.9)
            rho_b, sigma_b = ginibre_density(2, rng), ginibre_density(2, rng)
            u = haar(dim, rng)
            blocks.append(SimpleNamespace(
                rho=rho, sigma=sigma, rho2=rho2, p=p, mixed=p * rho + (1 - p) * rho2,
                rho_b=rho_b, sigma_b=sigma_b,
                rho_ab=np.kron(rho, rho_b), sigma_ab=np.kron(sigma, sigma_b),
                rho_u=u @ rho @ u.conj().T, sigma_u=u @ sigma @ u.conj().T,
            ))
        dims.append(blocks)
    channels = []
    for _, channel in circuits.stock_channel_zoo():
        dim = 2 ** (channel.n_a + channel.n_b)
        channels.append([(ginibre_density(dim, rng), ginibre_density(dim, rng))
                         for _ in range(pairs)])
    return dims, channels


def axioms_build(inputs, workdir: str) -> list[Item]:
    """One item per dimension (criterion 1's four axioms on each pair) and
    one per stock channel (data processing)."""
    from compent import circuits, states
    dims, channels = inputs
    items = [Item(partial(_axioms_run, states, blocks), len,
                  partial(_axioms_check, np.array([b.p for b in blocks])))
             for blocks in dims]
    for (_, channel), matrices in zip(circuits.stock_channel_zoo(), channels):
        cut = (channel.n_a, channel.n_b)
        pairs_in = [tuple(states.bipartite_from_matrix(m, cut) for m in pair)
                    for pair in matrices]
        items.append(Item(partial(_processing_run, states, circuits, channel, pairs_in),
                          len, _processing_check))
    return items


def _axioms_run(states, blocks) -> np.ndarray:
    """Criterion 1's calls, in its order: 9 fidelities and one trace
    distance per pair."""
    fidelity, trace_distance = states.fidelity, states.trace_distance
    return np.array([
        (
            fidelity(b.mixed, b.sigma), fidelity(b.rho, b.sigma), fidelity(b.rho2, b.sigma),
            fidelity(b.rho_ab, b.sigma_ab), fidelity(b.rho, b.sigma), fidelity(b.rho_b, b.sigma_b),
            fidelity(b.rho_u, b.sigma_u), fidelity(b.rho, b.sigma),
            fidelity(b.rho, b.sigma), trace_distance(b.rho, b.sigma),
        )
        for b in blocks
    ])


def _axioms_check(p: np.ndarray, values: np.ndarray) -> int:
    """Concavity, factorization, unitary invariance and Fuchs-van de Graaf,
    at criterion 1's tolerances."""
    f_mixed, f1, f_rho2, f_ab, f2, f_b, f_u, f3, f4, td = values.T
    ok = (
        (f_mixed - (p * f1 + (1 - p) * f_rho2) >= SLACK)
        & (np.abs(f_ab - f2 * f_b) <= EQ_TOL)
        & (np.abs(f_u - f3) <= EQ_TOL)
        & (td - (1 - np.sqrt(f4)) >= SLACK)
        & (np.sqrt(1 - np.minimum(f4, 1.0)) - td >= SLACK)
    )
    return int((~ok).sum())


def _processing_run(states, circuits, channel, pairs_in) -> np.ndarray:
    fidelity, apply = states.fidelity, circuits.apply
    return np.array([
        (fidelity(rho, sigma), fidelity(apply(channel, rho), apply(channel, sigma)))
        for rho, sigma in pairs_in
    ])


def _processing_check(values: np.ndarray) -> int:
    before, after = values.T
    return int((after - before < SLACK).sum())


# -- packing-net -------------------------------------------------------------------

# The work of one greedy packing (candidates drawn times members checked)
# swings by about 30 % from seed to seed, because the run of rejections that
# ends it starts at a random point.  So a pass builds a packing for each of
# 48 seeds derived from --seed, which brings the spread of their total under
# 5 %.  The --eta 0.35 packing (about 215 members, 5 s) is too slow to
# repeat that often; at --eta 0.5 each packing has about 16 members.
NET_ETA = "0.5"
NET_SEEDS = 48


def net_inputs(seed: int, quick: bool):
    seeds = np.random.SeedSequence(seed).generate_state(2 if quick else NET_SEEDS)
    return ("0.6" if quick else NET_ETA), [str(s) for s in seeds]


def net_build(inputs, workdir: str) -> list[Item]:
    """One item per derived seed: ``compent net`` plus its output file."""
    from compent import cli
    eta, seeds = inputs
    out = os.path.join(workdir, "net.json")
    items = []
    for s in seeds:
        argv = ["net", "--m", "2", "--eta", eta, "--seed", s, "--out", out]
        items.append(Item(partial(_net_run, cli, argv, out), _net_ops, _net_check))
    return items


def _net_run(cli, argv, out):
    code = cli.main(argv)
    with open(out, "rb") as fh:
        return code, fh.read()


def _net_ops(output) -> int:
    return max(1, len(json.loads(output[1])["members"]))


def _net_check(output) -> int:
    code, text = output
    data = json.loads(text)
    members = [
        (np.asarray(e["re"]) + 1j * np.asarray(e["im"])).reshape(4, 4) for e in data["members"]
    ]
    ok = code == 0 and len(members) > 0 and orbit_separated(members, float(data["eta"]))
    return 0 if ok else _net_ops(output)


def orbit_separated(members, eta: float, m: int = 2, tol: float = 1e-9) -> bool:
    """Every cross pair keeps max over Pauli shifts P of |tr((P U)^dag V)| / 2^m
    at most 1 - eta, computed with dense Paulis."""
    x, z = PAULIS[1], PAULIS[3]
    paulis = []
    for a in np.ndindex(*(2,) * m):
        for b in np.ndindex(*(2,) * m):
            p = np.eye(1)
            for ai, bi in zip(a, b):
                p = np.kron(p, np.linalg.matrix_power(x, ai) @ np.linalg.matrix_power(z, bi))
            paulis.append(p)
    u = np.array(members)
    orbit = np.einsum("pij,njk->npik", np.array(paulis), u)  # P U for every member
    # overlaps[n, p, k] = |tr((P U_n)^dag U_k)| / 2^m
    overlaps = np.abs(np.einsum("npji,kji->npk", orbit.conj(), u)) / 2 ** m
    worst = overlaps.max(axis=1)
    np.fill_diagonal(worst, 0.0)
    return bool(worst.max() <= 1.0 - eta + tol)


# -- wide-circuit: a few large density tensors -----------------------------------

ISOTROPIC_F = 0.9


def _local_gates(offset: int, width: int, rng) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """One Haar 1-qubit gate per wire, then a Haar 2-qubit gate per
    neighbouring pair: 2 * width - 1 gates."""
    gates = [(haar(2, rng), (offset + w,)) for w in range(width)]
    gates += [(haar(4, rng), (offset + w, offset + w + 1)) for w in range(width - 1)]
    return gates


def _depolarize(rho: np.ndarray, qubit: int, n: int, p: float) -> np.ndarray:
    """p rho + (1 - p) tr_q(rho) (x) I/2, written as a Pauli twirl."""
    out = np.zeros_like(rho)
    for s in PAULIS:
        op = np.kron(np.kron(np.eye(2 ** qubit), s), np.eye(2 ** (n - qubit - 1)))
        out += op @ rho @ op.conj().T
    return p * rho + (1 - p) * out / 4.0


def wide_inputs(seed: int, quick: bool) -> SimpleNamespace:
    rng = np.random.default_rng(seed)
    # 4-qubit purification block: qubits 0, 1 stay with Alice, 2, 3 go to Bob
    prep = [(haar(4, rng), wires) for wires in ((0, 2), (1, 3), (0, 1), (2, 3))]
    phi = np.zeros((4, 4), dtype=complex)
    phi[np.ix_([0, 3], [0, 3])] = 0.5
    width = 3 if quick else 5
    return SimpleNamespace(
        prep=prep, psi=dense_unitary(prep, 4)[:, 0], width=width,
        iso=ISOTROPIC_F * phi + (1 - ISOTROPIC_F) * (np.eye(4) - phi) / 3.0,
        alice=_local_gates(0, width, rng), bob=_local_gates(width, width, rng),
        mixed=ginibre_density(4 ** width, rng),
    )


def wide_build(x: SimpleNamespace, workdir: str) -> list[Item]:
    """Three applies: the 12-qubit n=2 teleport on its pure EPR resource and
    on a noisy isotropic one, and a mixed-input local circuit on 5+5 qubits."""
    from compent import circuits, measures, states
    teleport = circuits.teleport_dilution([circuits.Gate.unitary(u, w) for u, w in x.prep], 2)
    target = states.bipartite_pure(x.psi, (2, 2))
    iso = states.bipartite_from_matrix(x.iso, (1, 1))
    noisy = states.tensor_states(iso, iso)
    width = x.width
    local = circuits.local_unitary_circuit(
        [circuits.Gate.unitary(u, w) for u, w in x.alice],
        [circuits.Gate.unitary(u, w) for u, w in x.bob],
        width, width,
    )
    mixed = states.bipartite_from_matrix(x.mixed, (width, width))

    def noisy_expected():
        p = (4 * ISOTROPIC_F - 1) / 3
        expected = np.outer(x.psi, x.psi.conj())
        for qubit in (2, 3):
            expected = _depolarize(expected, qubit, 4, p)
        return expected

    def local_expected():
        bob_local = [(u, tuple(w - width for w in ws)) for u, ws in x.bob]
        u = np.kron(dense_unitary(x.alice, width), dense_unitary(bob_local, width))
        return u @ x.mixed @ u.conj().T

    return [
        Item(lambda: measures.p_err_dilute(teleport, target, 2), _one, p_err_check),
        Item(lambda: circuits.apply(teleport, noisy).matrix, _one, matches(noisy_expected)),
        Item(lambda: circuits.apply(local, mixed).matrix, _one, matches(local_expected)),
    ]


def p_err_check(p_err: float) -> int:
    return int(not p_err <= EQ_TOL)


def matches(expected: Callable[[], np.ndarray]) -> Callable[[np.ndarray], int]:
    """A check that an output equals ``expected()`` within EQ_TOL."""
    return lambda out: int(not np.max(np.abs(out - expected())) <= EQ_TOL)


# BENCHMARK.json and README.md say why each workload exists
WORKLOADS: dict[str, Workload] = {
    "verify-suite": Workload(_seed, verify_build),
    "fidelity-axioms": Workload(axioms_inputs, axioms_build),
    "packing-net": Workload(net_inputs, net_build),
    "wide-circuit": Workload(wide_inputs, wide_build),
}
