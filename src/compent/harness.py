"""Executable checks for the structural properties of the bound measures.

Each check measures the quantities on concrete witnesses and returns a
CheckRecord with the observed slack; equality-style checks record the
negative absolute residual as slack so that pass <=> slack >= -tolerance
holds uniformly.  All randomness flows through per-check seeds derived from
(master seed, check name, lambda, instance), so reruns are bit-identical.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from functools import cached_property, partial, reduce
from itertools import product
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .circuits import (
    Gate,
    LoccCircuit,
    apply,
    bob_unitary_circuit,
    compose,
    conjugate_by_local_unitary,
    cpu_count,
    dephase_bob_circuit,
    gate_count,
    identity_circuit,
    keyed_pauli_rotate,
    keyed_pauli_state,
    keyed_pauli_unrotate,
    local_layer_unitary,
    local_unitary_circuit,
    replace_bob_circuit,
    teleport_dilution,
    tensor,
    unrotate_distillation,
)
from .linalg import as_count, haar_unitary
from .measures import (
    counterexample_eta_threshold,
    distillable_upper_via_squashed,
    p_err_dilute,
    p_err_distill,
)
from .packing import epr_overlap, greedy_packing
from .states import (
    BipartiteState,
    _pair_count,
    all_keys,
    bipartite_from_matrix,
    bipartite_pure,
    column_unitary,
    conjugate_local,
    key_label,
    mixture,
    random_density_matrix,
    random_pure_state,
    rotated_epr,
    tensor_states,
)

EQ_TOL = 1e-9          # default tolerance for equality checks
STRICT_MARGIN = 1e-6   # margin demanded of strict inequalities
INSTANCES = 2          # randomized instances of each one-shot suite per lambda
KEY_SLICE = 8          # key tuples per keyed task: kappa = 3's 64 key pairs make eight tasks

@dataclass(frozen=True)
class CheckRecord:
    name: str
    lam: int | None
    key: str | None
    lhs: float | None  # the four values are None on inconclusive records
    rhs: float | None
    slack: float | None
    tolerance: float | None
    passed: bool
    inconclusive: bool = False
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = dict(vars(self))  # shallow: details holds only numbers, strings and lists
        d["lambda"], d["pass"] = d.pop("lam"), d.pop("passed")
        return d


def _equality(name, lhs, rhs, tol, details) -> CheckRecord:
    return _upper_bound(name, lhs, rhs, tol, details, slack=-abs(lhs - rhs))


def _upper_bound(name, lhs, rhs, tol, details, slack=None) -> CheckRecord:
    """Pass iff slack >= -tol; the slack defaults to rhs - lhs.  The record
    carries no lambda or key; the suite runner stamps those on."""
    slack = rhs - lhs if slack is None else slack
    return CheckRecord(
        name, None, None, float(lhs), float(rhs), float(slack), tol,
        slack >= -tol, details=details,
    )


def _rng(seed: int, name: str, lam: int, instance: int) -> np.random.Generator:
    ss = np.random.SeedSequence([seed, zlib.crc32(name.encode()), lam, instance])
    return np.random.default_rng(ss)


# -- one-shot checks -----------------------------------------------------------


def _mixture_check(name, p_err, verdict, g, states, p, size, tolerance) -> CheckRecord:
    """``verdict`` on p_err of the mixture against the weighted individual errors."""
    eps = p_err(g, mixture(states, p), size)
    eps_x = [p_err(g, s, size) for s in states]
    rhs = float(sum(w * e for w, e in zip(p, eps_x)))
    return verdict(name, eps, rhs, tolerance, {"eps_x": eps_x, "p": [float(w) for w in p]})


def _product_check(name, p_err, g1, g2, rho1, rho2, size1, size2, tolerance) -> CheckRecord:
    """p_err of the tensor product against 1 - (1-eps1)(1-eps2), as an equality."""
    eps1 = p_err(g1, rho1, size1)
    eps2 = p_err(g2, rho2, size2)
    eps12 = p_err(tensor(g1, g2), tensor_states(rho1, rho2), size1 + size2)
    rhs = 1.0 - (1.0 - eps1) * (1.0 - eps2)
    return _equality(name, eps12, rhs, tolerance,
                     {"eps1": eps1, "eps2": eps2, "sum_bound": eps1 + eps2})


def check_convexity_distillation(
    g: LoccCircuit,
    states: Sequence[BipartiteState],
    p: Sequence[float],
    m: int,
    tolerance: float = EQ_TOL,
) -> CheckRecord:
    """Distillation error of a mixture equals the weighted individual errors."""
    return _mixture_check("convexity", p_err_distill, _equality, g, states, p, m, tolerance)


def check_concavity_dilution(
    g: LoccCircuit,
    states: Sequence[BipartiteState],
    p: Sequence[float],
    n: int,
    tolerance: float = EQ_TOL,
) -> CheckRecord:
    """Dilution error toward a mixture is at most the weighted individual errors."""
    return _mixture_check("concavity", p_err_dilute, _upper_bound, g, states, p, n, tolerance)


def check_superadditivity_distillation(
    g1: LoccCircuit,
    g2: LoccCircuit,
    rho1: BipartiteState,
    rho2: BipartiteState,
    m1: int,
    m2: int,
    tolerance: float = EQ_TOL,
) -> CheckRecord:
    """Product witnesses obey eps12 = 1 - (1-eps1)(1-eps2) exactly."""
    return _product_check("superadditivity", p_err_distill, g1, g2, rho1, rho2, m1, m2, tolerance)


def check_subadditivity_cost(
    g1: LoccCircuit,
    g2: LoccCircuit,
    rho1: BipartiteState,
    rho2: BipartiteState,
    n1: int,
    n2: int,
    tolerance: float = EQ_TOL,
) -> CheckRecord:
    """Fidelity factorization makes product dilution errors multiply."""
    return _product_check("subadditivity", p_err_dilute, g1, g2, rho1, rho2, n1, n2, tolerance)


def _lu_check(name, p_err, g, state, layers, size, tolerance, on_output) -> CheckRecord:
    """p_err on the state conjugated by a local layer's (U_A, U_B) against p_err
    on the state itself, as an equality: a dilution witness runs the layer on its
    output, a distillation witness first runs the inverse layer on its input."""
    widths = (g.m_a, g.m_b) if on_output else (g.n_a, g.n_b)
    u_a, u_b = (local_layer_unitary(layer, w) for layer, w in zip(layers, widths))
    inverse = ([Gate.unitary(x.matrix.conj().T, x.wires) for x in reversed(layer)] for layer in layers)
    moved = (conjugate_by_local_unitary(g, *layers) if on_output else
             compose(g, conjugate_by_local_unitary(identity_circuit(*widths), *inverse)))
    details = {"gate_count_delta": gate_count(moved) - gate_count(g)} if on_output else {}
    moved_err = p_err(moved, conjugate_local(state, u_a, u_b), size)
    return _equality(name, moved_err, p_err(g, state, size), tolerance,
                     {**details, "layer_size": len(layers[0]) + len(layers[1])})


def check_lu_invariance_cost(
    g: LoccCircuit,
    target: BipartiteState,
    alice_layer: Sequence[Gate],
    bob_layer: Sequence[Gate],
    n: int,
    tolerance: float = EQ_TOL,
) -> CheckRecord:
    """Conjugated witnesses dilute the conjugated targets at identical error."""
    return _lu_check("lu-cost", p_err_dilute, g, target, (alice_layer, bob_layer), n,
                     tolerance, on_output=True)


def check_lu_invariance_distillation(
    g: LoccCircuit,
    rho: BipartiteState,
    alice_layer: Sequence[Gate],
    bob_layer: Sequence[Gate],
    m: int,
    tolerance: float = EQ_TOL,
) -> CheckRecord:
    """Pre-composing with the inverse layer distills the rotated family at the
    original error."""
    return _lu_check("lu-distillation", p_err_distill, g, rho, (alice_layer, bob_layer), m,
                     tolerance, on_output=False)


def check_locc_monotonicity_cost(
    g: LoccCircuit,
    post: LoccCircuit,
    target: BipartiteState,
    n: int,
    tolerance: float = EQ_TOL,
) -> CheckRecord:
    """Post-processing the witness dilutes the processed target no worse."""
    base = p_err_dilute(g, target, n)
    processed = p_err_dilute(compose(post, g), apply(post, target), n)
    return _upper_bound("monotonicity-cost", processed, base, tolerance,
                        {"post_gates": gate_count(post)})


def check_locc_monotonicity_distillation(
    g: LoccCircuit,
    pre_map: LoccCircuit,
    rho: BipartiteState,
    m: int,
    tolerance: float = EQ_TOL,
) -> CheckRecord:
    """Distilling through a pre-map equals distilling the mapped state."""
    lhs = p_err_distill(compose(g, pre_map), rho, m)
    rhs = p_err_distill(g, apply(pre_map, rho), m)
    return _equality("monotonicity-distillation", lhs, rhs, tolerance,
                     {"combined_gates": gate_count(g) + gate_count(pre_map)})


def run_noninvariance_counterexample(m: int, eps: float, seed: int) -> CheckRecord:
    """Certify that no single channel distills both members of a separated pair.

    Finds the grid threshold eta, builds a two-member packing there, mixes the
    two rotated EPR states, and checks that the squashed-type upper bound on
    the mixture drops strictly below m.  Without a threshold the record is
    inconclusive rather than failed, and its four values are None: nothing
    was measured.
    """
    name = "noninvariance-counterexample"

    def inconclusive(**found) -> CheckRecord:
        return CheckRecord(name, None, None, None, None, None, None, True, True,
                           {"m": m, "eps": eps, **found})

    eta = counterexample_eta_threshold(m, eps)
    if eta is None:
        return inconclusive(threshold=None)
    packing = greedy_packing(m, eta, seed=seed, max_size=2)
    if len(packing) < 2:
        return inconclusive(threshold=eta, packing_size=len(packing))
    u, v = packing.members[0], packing.members[1]
    overlap = abs(epr_overlap(u, v, m))
    psi = mixture([rotated_epr(u, m), rotated_epr(v, m)], [0.5, 0.5])
    upper = distillable_upper_via_squashed(psi, eps)
    return _upper_bound(
        name, upper, m - STRICT_MARGIN, 0.0,
        details={"m": m, "eps": eps, "threshold": eta, "overlap": overlap,
                 "squashed_upper": upper},
    )


# -- randomized one-shot suites ---------------------------------------------------


def _random_states(cut, count, rng):
    dim = 2 ** (cut[0] + cut[1])
    return [bipartite_from_matrix(random_density_matrix(dim, rng), cut) for _ in range(count)]


def _random_local_layer(width: int, rng, two_qubit: bool = False) -> list[Gate]:
    gates = [Gate.unitary(u, (w,)) for w, u in enumerate(haar_unitary(2, rng, width))]
    if two_qubit and width >= 2:
        gates.append(Gate.unitary(haar_unitary(4, rng), (0, 1)))
    return gates


def _random_local_circuit(s: int, rng) -> LoccCircuit:
    # draw order: Alice's single-qubit gates, Bob's, then one pair per party at s = 2
    singles = [Gate.unitary(u, (w,)) for w, u in enumerate(haar_unitary(2, rng, 2 * s))]
    pairs = ([Gate.unitary(u, (w, w + 1)) for w, u in zip((0, 2), haar_unitary(4, rng, 2))]
             if s == 2 else [])
    return local_unitary_circuit(singles[:s] + pairs[:1], singles[s:] + pairs[1:], s, s)


def random_pure_teleport(rng, n: int) -> tuple[LoccCircuit, BipartiteState]:
    """Teleportation dilution toward n random two-qubit pure targets, all drawn
    first; the prep gate of target i acts on Alice's share i and the qubit sent to Bob."""
    vecs = [random_pure_state(2, rng) for _ in range(_pair_count(n))]
    prep = [Gate.unitary(column_unitary(v), (i, n + i)) for i, v in enumerate(vecs)]
    circuit = teleport_dilution(prep, n)  # past the qubit cap, refused before the target is built
    return circuit, reduce(tensor_states, [bipartite_pure(v, (1, 1)) for v in vecs])


def _post_channel(instance: int, rng) -> LoccCircuit:
    choices = (
        dephase_bob_circuit(1),
        replace_bob_circuit(1),
        bob_unitary_circuit(haar_unitary(2, rng), 1),
        identity_circuit(1, 1),
    )
    return choices[instance % len(choices)]


def _convexity_one_shot(rng, s, lam, instance):
    return (_random_local_circuit(s, rng), _random_states((s, s), 3, rng),
            rng.dirichlet(np.ones(3)), s)


def _concavity_one_shot(rng, s, lam, instance):
    return (bob_unitary_circuit(haar_unitary(2 ** s, rng), s),
            _random_states((s, s), 3, rng), rng.dirichlet(np.ones(3)), s)


def _superadditivity_one_shot(rng, s, lam, instance):
    u1, u2 = haar_unitary(2, rng), haar_unitary(2 ** s, rng)
    # odd instances pair the witness with a deliberately noisy second one
    g2 = unrotate_distillation(u2, s) if instance % 2 == 0 else identity_circuit(s, s)
    return unrotate_distillation(u1, 1), g2, rotated_epr(u1, 1), rotated_epr(u2, s), 1, s


def _subadditivity_one_shot(rng, s, lam, instance):
    g1, target1 = random_pure_teleport(rng, 1)
    if instance % 2 == 0:
        u = haar_unitary(2, rng)
        g2, target2 = bob_unitary_circuit(u, 1), rotated_epr(u, 1)
    else:  # identity witness toward a mixed target: nonzero error
        g2, target2 = identity_circuit(1, 1), _random_states((1, 1), 1, rng)[0]
    return g1, g2, target1, target2, 1, 1


def _lu_cost_one_shot(rng, s, lam, instance):
    g, target = random_pure_teleport(rng, 1)
    return g, target, _random_local_layer(g.m_a, rng), _random_local_layer(g.m_b, rng), 1


def _lu_distillation_one_shot(rng, s, lam, instance):
    u = haar_unitary(2 ** s, rng)
    return (unrotate_distillation(u, s), rotated_epr(u, s),
            _random_local_layer(s, rng, two_qubit=True),
            _random_local_layer(s, rng, two_qubit=True), s)


def _monotonicity_cost_one_shot(rng, s, lam, instance):
    g, target = random_pure_teleport(rng, 1)
    return g, _post_channel(instance + lam, rng), target, 1


def _monotonicity_distillation_one_shot(rng, s, lam, instance):
    u = haar_unitary(2 ** s, rng)
    if instance % 2 == 0:  # the trivial-LOCC mechanism: unrotation as a pre-map
        g, pre = identity_circuit(s, s), unrotate_distillation(u, s)
    else:
        g, pre = unrotate_distillation(u, s), _random_local_circuit(s, rng)
    return g, pre, rotated_epr(u, s), s


# -- the suite table ----------------------------------------------------------------


@dataclass(frozen=True)
class KeyedSetting:
    """The stock keyed family, Pauli-rotated EPR pairs on m pairs, with the
    matching keyed witnesses and the per-lambda draws shared by every key."""

    m: int
    fixed: list[np.ndarray]
    alice: list[Gate]
    bob: list[Gate]

    def state(self, key) -> BipartiteState:
        return keyed_pauli_state(key, self.m)

    def rotate(self, key) -> LoccCircuit:
        return keyed_pauli_rotate(key, self.m)

    def unrotate(self, key) -> LoccCircuit:
        return keyed_pauli_unrotate(key, self.m)

    @cached_property
    def bob_rotations(self) -> list[LoccCircuit]:
        return [bob_unitary_circuit(u, self.m) for u in self.fixed]

    def rotated(self, key) -> list[BipartiteState]:
        """The keyed state with each fixed rotation applied on Bob's side."""
        base = self.state(key)
        return [apply(c, base) for c in self.bob_rotations]


class Suite(NamedTuple):
    """One theorem in both settings.

    ``one_shot(rng, size, lam, instance)`` and ``keyed(setting, *keys)``
    return the check's positional arguments up to the tolerance; a keyed
    suite runs once per tuple of ``arity`` keys.  Each builder draws from its
    generator in a fixed order, which keeps reports byte-identical.
    """

    check: Callable[..., CheckRecord]
    one_shot: Callable[..., tuple]
    keyed: Callable[..., tuple]
    arity: int = 1
    per_lambda: bool = True  # False: reads no per-lambda draw, so each check runs once for every lambda


SUITES: dict[str, Suite] = {
    "convexity": Suite(
        check_convexity_distillation, _convexity_one_shot,
        lambda k, key: (k.unrotate(key), k.rotated(key), [0.5, 0.5], k.m)),
    "concavity": Suite(
        check_concavity_dilution, _concavity_one_shot,
        lambda k, key: (k.rotate(key), k.rotated(key), [0.5, 0.5], k.m)),
    "superadditivity": Suite(
        check_superadditivity_distillation, _superadditivity_one_shot,
        lambda k, k1, k2: (k.unrotate(k1), k.unrotate(k2), k.state(k1), k.state(k2), k.m, k.m),
        arity=2, per_lambda=False),
    "subadditivity": Suite(
        check_subadditivity_cost, _subadditivity_one_shot,
        lambda k, k1, k2: (k.rotate(k1), k.rotate(k2), k.state(k1), k.state(k2), k.m, k.m),
        arity=2, per_lambda=False),
    "lu-cost": Suite(
        check_lu_invariance_cost, _lu_cost_one_shot,
        lambda k, key: (k.rotate(key), k.state(key), k.alice, k.bob, k.m)),
    "lu-distillation": Suite(
        check_lu_invariance_distillation, _lu_distillation_one_shot,
        lambda k, key: (k.unrotate(key), k.state(key), k.alice, k.bob, k.m)),
    "monotonicity-cost": Suite(
        check_locc_monotonicity_cost, _monotonicity_cost_one_shot,
        lambda k, key: (k.rotate(key), dephase_bob_circuit(k.m), k.state(key), k.m),
        per_lambda=False),
    "monotonicity-distillation": Suite(
        check_locc_monotonicity_distillation, _monotonicity_distillation_one_shot,
        lambda k, key: (identity_circuit(k.m, k.m), k.unrotate(key), k.state(key), k.m),
        per_lambda=False),
}
ONE_SHOT_SUITES = tuple(SUITES)
_SELECTORS = (*SUITES, *(f"keyed-{s}" for s in SUITES), "counterexample")


def _suite(selector: str) -> Suite:
    if selector not in SUITES:
        raise ValueError(f"unknown suite selector {selector!r}")
    return SUITES[selector]


def run_one_shot_check(selector: str, lam: int, instance: int, seed: int,
                       tolerance: float = EQ_TOL) -> CheckRecord:
    """One randomized instance of a named one-shot check."""
    suite = _suite(selector)
    lam, instance = as_count(lam, "lambda", 1), as_count(instance, "instance", 0)
    size = min(lam, 2)  # witnesses grow with lambda up to two pairs per side
    args = suite.one_shot(_rng(seed, selector, lam, instance), size, lam, instance)
    return replace(suite.check(*args, tolerance), name=f"{selector}#{instance}", lam=lam)


def run_keyed_suite(
    selector: str,
    kappa: int,
    lambdas: Sequence[int],
    seed: int,
    tolerance: float = EQ_TOL,
) -> list[CheckRecord]:
    """Run the keyed analogue of a one-shot check for every key, or every
    pair of keys for the tensor-product laws: ``run_suites`` on its keyed
    selector, so the records come in its order, by (lambda, key).

    The keyed family lives on m = ceil(kappa/2) pairs; witnesses are
    the matching keyed rotations, so a uniform error budget holds across keys.
    """
    _suite(selector)
    return run_suites([f"keyed-{selector}"], lambdas, seed, tolerance, kappa)


def _keyed_slice(name, kappa, lams, seed, tolerance, tuples) -> list[CheckRecord]:
    """The keyed suite's records for the given key tuples at each lambda of
    ``lams``: ``[lam]`` for a per-lambda suite, every requested lambda for a
    lambda-free one.  The setting is drawn at the first of them and each check
    runs once; each record gets its own details dict."""
    suite, m = SUITES[name.removeprefix("keyed-")], (kappa + 1) // 2
    rng = _rng(seed, name, lams[0], 0)
    # draw order: the two fixed rotations, then Alice's and Bob's layers
    setting = KeyedSetting(m, list(haar_unitary(2 ** m, rng, 2)),
                           _random_local_layer(m, rng), _random_local_layer(m, rng))
    checked = [(key_label(*keys), suite.check(*suite.keyed(setting, *keys), tolerance)) for keys in tuples]
    return [replace(r, name=name, lam=lam, key=key, details=dict(r.details))
            for key, r in checked for lam in lams]


# -- orchestration ------------------------------------------------------------------


def run_suites(
    selectors: Sequence[str],
    lambdas: Sequence[int],
    seed: int,
    tolerance: float = EQ_TOL,
    kappa: int = 1,
) -> list[CheckRecord]:
    """Run the requested suites and return records in canonical order."""
    lambdas = [as_count(lam, "lambda", 1) for lam in lambdas]
    kappa = as_count(kappa, "kappa", 1, 3)
    chosen = (_SELECTORS if sel == "all" else (sel,) for sel in selectors)
    ordered = list(dict.fromkeys(s for group in chosen for s in group))  # first occurrences
    unknown = [s for s in ordered if s not in _SELECTORS]
    if unknown:
        raise ValueError(f"unknown suite selector {unknown[0]!r}")

    tasks: list[Callable[[], list]] = []  # each returns a list of records
    for sel in ordered:
        if sel == "counterexample":
            tasks += [partial(_listed, run_noninvariance_counterexample, m, eps, seed)
                      for m, eps in ((1, 0.0), (1, 1e-4), (2, 0.25))]
        elif sel.startswith("keyed-"):  # a lambda-free suite's task covers every lambda
            suite = SUITES[sel.removeprefix("keyed-")]
            tuples = list(product(all_keys(kappa), repeat=suite.arity))
            groups = [[lam] for lam in lambdas] if suite.per_lambda else [lambdas] if lambdas else []
            tasks += [partial(_keyed_slice, sel, kappa, lams, seed, tolerance, tuples[i:i + KEY_SLICE])
                      for lams in groups for i in range(0, len(tuples), KEY_SLICE)]
        else:
            tasks += [partial(_listed, run_one_shot_check, sel, lam, instance, seed, tolerance)
                      for lam in lambdas for instance in range(INSTANCES)]
    records = [r for found in _run_tasks(tasks) for r in found]
    return sorted(records, key=lambda r: (r.name, r.lam if r.lam is not None else -1, r.key or ""))


def _listed(check: Callable[..., CheckRecord], *args) -> list[CheckRecord]:
    return [check(*args)]


def _run_tasks(tasks: Sequence[Callable[[], list]]) -> list[list]:
    """Each task's result in task order, raising the first failing task's error.

    Where ``os.sched_getaffinity`` and ``os.fork`` exist and OpenBLAS runs one
    thread (``_BLAS_ONE``, as for the gate-step helper: BLAS's own threads
    already take the other CPUs, and a worker beside them made a kappa = 3
    run about four times slower), this process and ``cpu_count() - 1`` forked workers take
    task indices from one pre-filled pipe.  A worker writes nothing to stdout
    or stderr and pickles {index: result or exception} back; a task no worker
    reported runs here.
    """
    import os, pickle, signal  # noqa: E401  numpy loads all but signal
    from .circuits import _BLAS_ONE  # looked up at each call, so a test may set it

    def take(parent: int | None = None) -> dict:  # until the pipe is empty or the parent has gone
        out = {}
        while (parent is None or os.getppid() == parent) and (token := os.read(queue, 4)):
            for i in range(first := int.from_bytes(token, "little"), min(first + step, len(tasks))):
                try:
                    out[i] = tasks[i]()
                except Exception as exc:  # raised below, in task order
                    out[i] = exc
        return out

    step = -(-len(tasks) // 1024) or 1  # at most 1024 four-byte indices: a page, which any pipe holds
    firsts = range(0, len(tasks), step)
    forks = _BLAS_ONE and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    workers = min(cpu_count(), len(firsts)) - 1 if forks else 0
    done, pids, pipes = {}, [], []
    try:
        if workers > 0:
            queue, fill = os.pipe()
            pipes.append(open(queue, "rb"))
            # last task first: the costly keyed tasks start early, small one-shot ones fill the end
            os.write(fill, b"".join(i.to_bytes(4, "little") for i in reversed(firsts)))
            os.close(fill)
            for _ in range(workers):
                read, write = os.pipe()
                pipes.append(open(read, "rb"))
                try:
                    pid = os.fork()
                except OSError:  # no process to spare: the tasks run on those made so far
                    os.close(write)
                    break
                if pid == 0:  # a worker: silent, its results pickled to this process
                    try:
                        for fh in pipes[1:]:  # its own and earlier workers' read ends: a dead
                            fh.close()        # caller then breaks the pipe, and no write blocks
                        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
                        os.dup2(1, 2)
                        data = pickle.dumps(take(os.getppid()))
                        with open(write, "wb") as fh:
                            fh.write(data)
                    finally:
                        os._exit(0)
                pids.append(pid)
                os.close(write)
            done = take()
            for fh in pipes[1:]:
                try:  # a worker that died or whose results do not round-trip: its tasks run below
                    done.update(pickle.loads(fh.read()))
                except Exception:
                    pass
    finally:  # however the call ends, every worker is killed and reaped
        for fh in pipes:
            fh.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    out = []
    for i, task in enumerate(tasks):
        out.append(done[i] if i in done else task())
        if isinstance(out[-1], Exception):
            raise out[-1]
    return out


def all_selectors() -> list[str]:
    return ["all", *_SELECTORS]
