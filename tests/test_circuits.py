import json
import math

import numpy as np
import pytest

from compent.circuits import (
    ChannelFamily,
    Gate,
    GateBudget,
    KeyedChannelFamily,
    LoccCircuit,
    Round,
    _as_vector,
    apply,
    bbpssw_round,
    bob_unitary_circuit,
    circuit_from_dict,
    circuit_to_dict,
    compose,
    conjugate_by_local_unitary,
    dephase_bob_circuit,
    epr_expectation,
    gate_count,
    identity_circuit,
    is_efficient,
    keyed_pauli_rotate,
    keyed_pauli_state,
    keyed_pauli_unrotate,
    local_layer_unitary,
    local_unitary_circuit,
    replace_bob_circuit,
    stock_channel_zoo,
    teleport_dilution,
    tensor,
    unrotate_distillation,
)
from compent.linalg import SizeLimitError, embed_operator, haar_unitary, require_unitary
from compent.states import (
    KeyedStateFamily,
    StateFamily,
    all_keys,
    bipartite_from_matrix,
    bipartite_pure,
    column_unitary,
    conjugate_local,
    epr_pairs,
    fidelity,
    mixture,
    random_density_matrix,
    random_pure_state,
    rotated_epr,
    state_from_dict,
    state_to_dict,
    tensor_states,
)

from oracles import CNOT, H, X, apply_reference, bell_bookkeeping_oracle, isotropic_pair, purify_branch_oracle

RNG = np.random.default_rng(2024)


def random_bipartite(n_a, n_b, rng=RNG):
    return bipartite_from_matrix(random_density_matrix(2 ** (n_a + n_b), rng), (n_a, n_b))


def prep_gates_for_state(vec, n_qubits):
    """Single-gate preparation of a <=2 qubit pure state from |0..0>."""
    q = column_unitary(vec)
    assert np.allclose(q[:, 0], vec, atol=1e-12)
    return [Gate.unitary(q, tuple(range(n_qubits)))]


# -- gates and validation -----------------------------------------------------


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate.unitary(np.ones((2, 2)), (0,))  # not unitary
    with pytest.raises(ValueError):
        Gate.unitary(np.eye(8), (0, 1, 2))  # too many wires
    with pytest.raises(ValueError):
        Gate.controlled(X, (0,), ())  # no controls
    with pytest.raises(ValueError):
        Gate(kind="pinch", wires=())
    with pytest.raises(ValueError):
        Gate.controlled(X, (0,), (0,))  # overlapping wires
    # construction only: past two controls a gate is refused before any operator exists
    assert Gate.controlled(X, (0,), (1, 2)).controls == (1, 2)
    for controls in ((1, 2, 3), tuple(range(1, 7))):
        with pytest.raises(SizeLimitError):
            Gate.controlled(X, (0,), controls)


# each refusal with a fragment of its message; a thunk builds the bad call
REFUSED = {
    "payload-shape": (lambda: Gate.unitary(np.eye(4), (0,)), "does not match wires"),
    "unitary-with-controls": (lambda: Gate("unitary", (0,), X, (1,)), "cannot carry controls"),
    "pinch-with-payload": (lambda: Gate("pinch", (0,), X), "carries no payload"),
    "unknown-kind": (lambda: Gate("swap", (0, 1)), "unknown gate kind"),
    "m_a-over-n_a+t_a": (lambda: LoccCircuit(1, 0, 0, 1, 0, (Round(),), 2, 1), "exceed the available"),
    "m_a-zero": (lambda: LoccCircuit(1, 0, 0, 1, 0, (Round(),), 0, 1), "at least one qubit"),
    "out_a-repeated": (lambda: LoccCircuit(1, 1, 0, 1, 0, (Round(),), 2, 1, out_a=(0, 0)),
                       "do not match size"),
    "out_a-outside-block": (lambda: LoccCircuit(1, 0, 0, 1, 0, (Round(),), 1, 1, out_a=(1,)),
                            "outside block"),
    "layer-unitary-pinch": (lambda: local_layer_unitary([Gate.pinch((0,))], 1), "only unitary gates"),
    "conjugation-pinch": (lambda: conjugate_by_local_unitary(identity_circuit(1, 1), [Gate.pinch((0,))], []),
                          "only unitary gates"),
    "epr-expectation-cut": (lambda: epr_expectation(random_bipartite(1, 2), 1), "does not match 1 EPR pairs"),
}


@pytest.mark.parametrize("name", REFUSED)
def test_each_circuit_refusal_names_its_fault(name):
    build, fragment = REFUSED[name]
    with pytest.raises(ValueError, match=fragment):
        build()


def test_remap_keeps_the_checked_payload():
    g = Gate.unitary(CNOT.conj().T, (0, 1))
    moved = g.remap({0: 4, 1: 2})
    assert moved.wires == (4, 2) and moved.matrix is g.matrix and moved.kind == g.kind
    c = Gate.controlled(CNOT, (1, 2), (0,))
    assert c.remap({0: 5, 1: 3, 2: 4}).touched() == (5, 3, 4)
    for gate, colliding in ((g, {0: 3, 1: 3}), (c, {0: 2, 1: 3, 2: 2})):
        with pytest.raises(ValueError, match="duplicate wires"):
            gate.remap(colliding)
    with pytest.raises(ValueError, match="integers"):
        g.remap({0: 1.5, 1: 2})


def test_remap_names_a_wire_missing_from_the_map():
    with pytest.raises(ValueError, match=r"gate wire 2 is not among the mapped wires \[0, 1\]"):
        Gate.controlled(X, (0,), (2,)).remap({0: 3, 1: 4})
    # prep acts on A' of 2n = 2 wires, so wire 2 lies outside it
    with pytest.raises(ValueError, match="gate wire 2 "):
        teleport_dilution([Gate.unitary(CNOT, (0, 2))], 1)
    # a layer's wires index the output block, here of one wire
    with pytest.raises(ValueError, match="gate wire 1 "):
        conjugate_by_local_unitary(identity_circuit(1, 1), [Gate.unitary(H, (1,))], [])


def test_tensor_checks_no_payload_again(monkeypatch):
    first, second = identity_circuit(1, 1), bbpssw_round()
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return require_unitary(*args, **kwargs)

    monkeypatch.setattr("compent.circuits.require_unitary", counting)
    g = tensor(first, second)
    assert calls == []
    payloads = [[h.matrix for r in c.rounds for h in r.alice + r.bob] for c in (g, second)]
    assert len(payloads[0]) == len(payloads[1]) == 10
    assert all(a is b for a, b in zip(*payloads))
    Gate.unitary(X, (0,))  # the counter sees a fresh gate's check
    assert len(calls) == 1


def test_circuit_wire_ownership():
    # Alice may not touch Bob's register
    with pytest.raises(ValueError):
        LoccCircuit(1, 0, 0, 1, 0, (Round(alice=(Gate.unitary(X, (1,)),)),), 1, 1)
    # pinch must stay inside C
    with pytest.raises(ValueError):
        LoccCircuit(1, 0, 1, 1, 0, (Round(alice=(Gate.pinch((0,)),)),), 1, 1)
    with pytest.raises(SizeLimitError):
        LoccCircuit(7, 4, 0, 7, 0, (Round(),), 7, 7)


def test_gate_count_rules():
    assert gate_count(identity_circuit(1, 1)) == 0
    circ = LoccCircuit(
        1, 1, 2, 1, 0,
        (
            Round(
                alice=(
                    Gate.unitary(X, (0,)),
                    Gate.unitary(H, (1,)),
                    Gate.unitary(CNOT, (0, 2)),
                    Gate.pinch((2, 3)),
                ),
            ),
        ),
        1, 1,
    )
    # 3 unitaries + 1 ancilla + 2 communication qubits + 2 pinched wires
    assert gate_count(circ) == 3 + 2 + 1 + 2
    tele = teleport_dilution(prep_gates_for_state(np.array([1, 0, 0, 0], dtype=complex), 2), 1)
    listed = sum(g.cost for rnd in tele.rounds for g in (*rnd.alice, *rnd.bob))
    assert gate_count(tele) == listed + tele.t_a + tele.t_b + tele.q


# -- apply: basics against the reference simulator ----------------------------


def test_identity_circuit_returns_input():
    rho = random_bipartite(1, 1)
    out = apply(identity_circuit(1, 1), rho)
    assert np.allclose(out.matrix, rho.matrix, atol=1e-12)


def test_bob_bitflip_on_epr():
    out = apply(bob_unitary_circuit(X, 1), epr_pairs(1))
    expected = np.zeros(4, dtype=complex)
    expected[1] = expected[2] = 1 / math.sqrt(2)
    assert np.allclose(out.matrix, np.outer(expected, expected), atol=1e-12)


def test_apply_matches_reference_on_stock_zoo():
    for name, circ in stock_channel_zoo():
        rho = random_bipartite(circ.n_a, circ.n_b)
        fast = apply(circ, rho)
        slow = apply_reference(circ, rho)
        assert np.max(np.abs(fast.matrix - slow.matrix)) < 1e-12, name


def test_apply_matches_reference_on_teleport():
    target = random_pure_state(2, RNG)
    circ = teleport_dilution(prep_gates_for_state(target, 2), 1)
    fast = apply(circ, epr_pairs(1))
    slow = apply_reference(circ, epr_pairs(1))
    assert np.max(np.abs(fast.matrix - slow.matrix)) < 1e-12


def test_apply_matches_reference_on_random_cc_circuit():
    # classical communication with feedback in both directions
    circ = LoccCircuit(
        1, 1, 2, 1, 1,
        (
            Round(
                alice=(
                    Gate.unitary(haar_unitary(4, RNG), (0, 1)),
                    Gate.unitary(CNOT, (0, 2)),
                    Gate.pinch((2,)),
                ),
                bob=(
                    Gate.controlled(X, (4,), (2,)),
                    Gate.unitary(CNOT, (4, 3)),
                    Gate.pinch((3,)),
                    Gate.unitary(haar_unitary(4, RNG), (4, 5)),
                ),
            ),
            Round(
                alice=(Gate.controlled(haar_unitary(2, RNG), (1,), (3,)),),
                bob=(Gate.unitary(haar_unitary(2, RNG), (5,)),),
            ),
        ),
        2, 2,
        out_a=(0, 1),
        out_b=(0, 1),
    )
    rho = random_bipartite(1, 1)
    fast = apply(circ, rho)
    slow = apply_reference(circ, rho)
    assert np.max(np.abs(fast.matrix - slow.matrix)) < 1e-12


def test_apply_is_trace_preserving_and_affine():
    for name, circ in stock_channel_zoo():
        rho = random_bipartite(circ.n_a, circ.n_b)
        sigma = random_bipartite(circ.n_a, circ.n_b)
        out_r = apply(circ, rho)
        out_s = apply(circ, sigma)
        assert abs(np.trace(out_r.matrix) - 1.0) < 1e-9, name
        mixed = apply(circ, mixture([rho, sigma], [0.5, 0.5]))
        assert np.max(np.abs(mixed.matrix - 0.5 * out_r.matrix - 0.5 * out_s.matrix)) < 1e-9, name


def test_apply_shape_errors():
    with pytest.raises(ValueError):
        apply(identity_circuit(1, 1), epr_pairs(2))


def test_pinch_idempotent_exact():
    base = LoccCircuit(
        1, 0, 1, 1, 0,
        (Round(alice=(Gate.unitary(CNOT, (0, 1)), Gate.pinch((1,))),),),
        1, 1,
    )
    twice = LoccCircuit(
        1, 0, 1, 1, 0,
        (Round(alice=(Gate.unitary(CNOT, (0, 1)), Gate.pinch((1,)), Gate.pinch((1,))),),),
        1, 1,
    )
    rho = random_bipartite(1, 1)
    assert np.array_equal(apply(base, rho).matrix, apply(twice, rho).matrix)


# -- teleportation -------------------------------------------------------------


def test_teleport_epr_target():
    circ = teleport_dilution(prep_gates_for_state(epr_pairs(1).matrix @ np.zeros(4) + np.array([1, 0, 0, 1]) / math.sqrt(2), 2), 1)
    out = apply(circ, epr_pairs(1))
    assert 1.0 - epr_expectation(out, 1) <= 1e-9


def test_teleport_random_pure_targets():
    for _ in range(5):
        target = random_pure_state(2, RNG)
        circ = teleport_dilution(prep_gates_for_state(target, 2), 1)
        out = apply(circ, epr_pairs(1))
        assert 1.0 - fidelity(out, bipartite_pure(target, (1, 1))) <= 1e-9


def test_teleport_two_pairs_product_target():
    blocks = [random_pure_state(2, RNG) for _ in range(2)]
    # purification block order: (kept A qubits, teleported qubits)
    prep = [Gate.unitary(prep_gates_for_state(blocks[0], 2)[0].matrix, (0, 2)),
            Gate.unitary(prep_gates_for_state(blocks[1], 2)[0].matrix, (1, 3))]
    circ = teleport_dilution(prep, 2)
    out = apply(circ, epr_pairs(2))
    target = tensor_states(bipartite_pure(blocks[0], (1, 1)), bipartite_pure(blocks[1], (1, 1)))
    assert 1.0 - fidelity(out, target) <= 1e-9


# Register sizes, outputs and gate wires of teleport_dilution with a prep
# gate per purification pair: A spans n wires, A' 2n, C 3n..5n-1, B from 5n.
TELEPORT_LAYOUT = {
    1: ({"nA": 1, "tA": 2, "q": 2, "nB": 1, "tB": 0, "mA": 1, "mB": 1}, [1], [0],
        [("unitary", [1, 2], []), ("unitary", [2, 0], []), ("unitary", [2], []),
         ("unitary", [0, 3], []), ("unitary", [2, 4], []), ("pinch", [3, 4], [])],
        [("controlled", [5], [3]), ("controlled", [5], [4])]),
    2: ({"nA": 2, "tA": 4, "q": 4, "nB": 2, "tB": 0, "mA": 2, "mB": 2}, [2, 3], [0, 1],
        [("unitary", [2, 4], []), ("unitary", [3, 5], []), ("unitary", [4, 0], []),
         ("unitary", [4], []), ("unitary", [0, 6], []), ("unitary", [4, 7], []),
         ("unitary", [5, 1], []), ("unitary", [5], []), ("unitary", [1, 8], []),
         ("unitary", [5, 9], []), ("pinch", [6, 7], []), ("pinch", [8, 9], [])],
        [("controlled", [10], [6]), ("controlled", [10], [7]),
         ("controlled", [11], [8]), ("controlled", [11], [9])]),
}


@pytest.mark.parametrize("n", sorted(TELEPORT_LAYOUT))
def test_teleport_dilution_layout(n):
    d = circuit_to_dict(teleport_dilution([Gate.unitary(CNOT, (i, n + i)) for i in range(n)], n))
    [rnd] = d["rounds"]
    gates = {party: [(g["kind"], g["wires"], g.get("controls", [])) for g in rnd[party]]
             for party in ("alice", "bob")}
    assert (d["registers"], d["outA"], d["outB"], gates["alice"], gates["bob"]) == TELEPORT_LAYOUT[n]


def test_local_preparation_of_product_target_without_epr():
    # |00> needs no entanglement: both parties output fresh ancillas and the
    # EPR input is discarded untouched.
    circ = LoccCircuit(1, 1, 0, 1, 1, (Round(),), 1, 1, out_a=(1,), out_b=(1,))
    out = apply(circ, epr_pairs(1))
    target = bipartite_pure(np.array([1, 0, 0, 0], dtype=complex), (1, 1))
    assert 1.0 - fidelity(out, target) <= 1e-12


# -- distillation --------------------------------------------------------------


def test_unrotate_identity():
    circ = unrotate_distillation(np.eye(2), 1)
    rho = random_bipartite(1, 1)
    assert np.allclose(apply(circ, rho).matrix, rho.matrix, atol=1e-12)


def test_unrotate_recovers_epr():
    for m in (1, 2):
        u = haar_unitary(2 ** m, RNG)
        out = apply(unrotate_distillation(u, m), rotated_epr(u, m))
        assert 1.0 - epr_expectation(out, m) <= 1e-9


def test_bbpssw_on_perfect_pairs():
    out = apply(bbpssw_round(), tensor_states(epr_pairs(1), epr_pairs(1)))
    # perfect input always succeeds, so the channel output is exactly Phi
    assert 1.0 - epr_expectation(out, 1) <= 1e-9


def test_bbpssw_matches_projector_oracle():
    for f in (0.8, 0.6):
        pair = isotropic_pair(f)
        p_succ, kept = purify_branch_oracle(pair)
        zero = np.zeros((4, 4), dtype=complex)
        zero[0, 0] = 1.0
        expected = p_succ * kept + (1 - p_succ) * zero
        two = tensor_states(bipartite_from_matrix(pair, (1, 1)), bipartite_from_matrix(pair, (1, 1)))
        out = apply(bbpssw_round(), two)
        assert np.max(np.abs(out.matrix - expected)) < 1e-9


def test_bbpssw_isotropic_08_branch_statistics():
    # frozen from two independent oracles (Bell bookkeeping and projector math)
    p_succ, kept = purify_branch_oracle(isotropic_pair(0.8))
    phi = epr_pairs(1).matrix
    branch_fidelity = float(np.real(np.trace(kept @ phi)))
    book_p, book_f = bell_bookkeeping_oracle(0.8)
    assert abs(p_succ - book_p) < 1e-12
    assert abs(branch_fidelity - book_f) < 1e-12
    assert abs(p_succ - 0.7688888888888889) < 1e-12
    assert abs(branch_fidelity - 0.8381502890173411) < 1e-12
    assert branch_fidelity > 0.8  # the round purifies


def test_bbpssw_on_product_input():
    zero = bipartite_pure(np.array([1, 0, 0, 0], dtype=complex), (1, 1))
    out = apply(bbpssw_round(), tensor_states(zero, zero))
    assert epr_expectation(out, 1) <= 0.5 + 1e-12


def test_bbpssw_rejects_wrong_shape():
    with pytest.raises(ValueError):
        apply(bbpssw_round(), epr_pairs(1))


# -- combinators ---------------------------------------------------------------


def test_tensor_identity_pair():
    joint = tensor(identity_circuit(1, 1), identity_circuit(1, 1))
    rho = random_bipartite(2, 2)
    assert np.allclose(apply(joint, rho).matrix, rho.matrix, atol=1e-12)


def test_tensor_factorizes():
    u1, u2 = haar_unitary(2, RNG), haar_unitary(2, RNG)
    g1, g2 = unrotate_distillation(u1, 1), unrotate_distillation(u2, 1)
    joint = tensor(g1, g2)
    out = apply(joint, tensor_states(rotated_epr(u1, 1), rotated_epr(u2, 1)))
    assert 1.0 - epr_expectation(out, 2) <= 1e-9
    rho1, rho2 = random_bipartite(1, 1), random_bipartite(1, 1)
    lhs = apply(joint, tensor_states(rho1, rho2))
    rhs = tensor_states(apply(g1, rho1), apply(g2, rho2))
    assert np.max(np.abs(lhs.matrix - rhs.matrix)) < 1e-9
    assert gate_count(joint) == gate_count(g1) + gate_count(g2)


def test_tensor_with_teleport_output_routing():
    target = random_pure_state(2, RNG)
    tele = teleport_dilution(prep_gates_for_state(target, 2), 1)
    ident = identity_circuit(1, 1)
    joint = tensor(tele, ident)
    rho = tensor_states(epr_pairs(1), epr_pairs(1))
    lhs = apply(joint, rho)
    rhs = tensor_states(apply(tele, epr_pairs(1)), epr_pairs(1))
    assert np.max(np.abs(lhs.matrix - rhs.matrix)) < 1e-9
    assert gate_count(joint) == gate_count(tele) + gate_count(ident)


def test_compose_identity():
    g = bob_unitary_circuit(haar_unitary(2, RNG), 1)
    rho = random_bipartite(1, 1)
    composed = compose(identity_circuit(1, 1), g)
    assert np.allclose(apply(composed, rho).matrix, apply(g, rho).matrix, atol=1e-12)
    assert gate_count(composed) == gate_count(g)


def test_compose_unrotate_after_rotate():
    u = haar_unitary(2, RNG)
    rotate = bob_unitary_circuit(u, 1)
    unrotate = unrotate_distillation(u, 1)
    both = compose(unrotate, rotate)
    out = apply(both, epr_pairs(1))
    assert 1.0 - epr_expectation(out, 1) <= 1e-9
    assert gate_count(both) == gate_count(rotate) + gate_count(unrotate)


def test_compose_matches_sequential_apply():
    target = random_pure_state(2, RNG)
    tele = teleport_dilution(prep_gates_for_state(target, 2), 1)
    post = dephase_bob_circuit(1)
    both = compose(post, tele)
    lhs = apply(both, epr_pairs(1))
    rhs = apply(post, apply(tele, epr_pairs(1)))
    assert np.max(np.abs(lhs.matrix - rhs.matrix)) < 1e-9


def test_compose_second_outputs_from_ancillas():
    # the downstream circuit (teleportation) keeps ancilla-block outputs,
    # exercising the output-position remap through composition
    target = random_pure_state(2, RNG)
    tele = teleport_dilution(prep_gates_for_state(target, 2), 1)
    pre = bob_unitary_circuit(haar_unitary(2, RNG), 1)
    both = compose(tele, pre)
    lhs = apply(both, epr_pairs(1))
    rhs = apply(tele, apply(pre, epr_pairs(1)))
    assert np.max(np.abs(lhs.matrix - rhs.matrix)) < 1e-9
    assert gate_count(both) == gate_count(tele) + gate_count(pre)


def test_compose_multiround_second():
    first = local_unitary_circuit(
        tuple(Gate.unitary(haar_unitary(2, RNG), (w,)) for w in range(2)),
        tuple(Gate.unitary(haar_unitary(2, RNG), (2 + w,)) for w in range(2)),
        2, 2,
    )
    both = compose(bbpssw_round(), first)
    rho = random_bipartite(2, 2)
    lhs = apply(both, rho)
    rhs = apply(bbpssw_round(), apply(first, rho))
    assert np.max(np.abs(lhs.matrix - rhs.matrix)) < 1e-9
    assert len(both.rounds) == len(first.rounds) + 2


def test_compose_shape_mismatch():
    with pytest.raises(ValueError):
        compose(identity_circuit(2, 2), identity_circuit(1, 1))


def test_conjugate_by_local_unitary():
    g = bob_unitary_circuit(haar_unitary(2, RNG), 1)
    ua = [Gate.unitary(haar_unitary(2, RNG), (0,))]
    ub = [Gate.unitary(haar_unitary(2, RNG), (0,))]
    conjugated = conjugate_by_local_unitary(g, ua, ub)
    assert gate_count(conjugated) == gate_count(g) + 2
    rho = random_bipartite(1, 1)
    lhs = apply(conjugated, rho)
    mat_a = local_layer_unitary(ua, 1)
    mat_b = local_layer_unitary(ub, 1)
    rhs = conjugate_local(apply(g, rho), mat_a, mat_b)
    assert np.max(np.abs(lhs.matrix - rhs.matrix)) < 1e-9


def test_conjugate_identity_layers_noop():
    g = bob_unitary_circuit(haar_unitary(2, RNG), 1)
    conjugated = conjugate_by_local_unitary(g, [], [])
    rho = random_bipartite(1, 1)
    assert np.allclose(apply(conjugated, rho).matrix, apply(g, rho).matrix, atol=1e-12)


# -- budgets, families, keys -----------------------------------------------------


def test_gate_budget():
    budget = GateBudget((10.0, 1.0))
    assert budget(3) == 13.0
    with pytest.raises(ValueError):
        GateBudget((1.0, -2.0))


def test_gate_budget_refuses_nan_and_infinite_coefficients():
    # a NaN budget would pass every count: count > nan is False
    for bad in ((math.nan,), (1.0, math.nan), (math.inf,)):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            GateBudget(bad)


def test_is_efficient():
    fam = ChannelFamily(lambda lam: identity_circuit(1, 1), GateBudget((10.0, 1.0)))
    report = is_efficient(fam, [1, 2, 3])
    assert report.passed and not report.violations

    def exploding(lam):
        gates = tuple(Gate.unitary(X, (0,)) for _ in range(2 ** lam))
        return LoccCircuit(1, 0, 0, 1, 0, (Round(alice=gates),), 1, 1)

    fam = ChannelFamily(exploding, GateBudget((4.0,)))
    report = is_efficient(fam, [1, 2, 3, 4, 5, 6])
    assert not report.passed
    assert report.violations[0][0] == 3  # first violating lambda: 2^3 > 4
    with pytest.raises(ValueError):
        is_efficient(fam, [])


def test_keyed_family_unequal_counts_flagged():
    def lopsided(lam, key):
        gates = (Gate.unitary(X, (0,)),) * (1 + key[0])
        return LoccCircuit(1, 0, 0, 1, 0, (Round(alice=gates),), 1, 1)

    fam = KeyedChannelFamily(lambda lam: 1, lopsided, GateBudget((10.0,)))
    report = is_efficient(fam, [1])
    assert not report.passed
    assert report.violations  # counts differ across keys for one lambda
    # key (1,) is also over budget: still each key is listed once
    fam = KeyedChannelFamily(lambda lam: 1, lopsided, GateBudget((1.0,)))
    assert is_efficient(fam, [1]).violations == ((1, (0,), 1, 1.0), (1, (1,), 2, 1.0))


def test_families_refuse_a_key_that_is_not_a_bit_string_of_length_kappa():
    budget = GateBudget((1.0,))
    keyed = KeyedChannelFamily(lambda lam: 2, lambda lam, key: identity_circuit(1, 1), budget)
    keyed_states = KeyedStateFamily(lambda lam: 2, lambda lam, key: epr_pairs(1))
    one_shot = ChannelFamily(lambda lam: identity_circuit(1, 1), budget)
    one_shot_states = StateFamily(lambda lam: epr_pairs(1))
    for make, good in ((keyed.circuit, (0, 1)), (keyed_states.state, (0, 1)),
                       (one_shot.circuit, ()), (one_shot_states.state, ())):
        make(1, good)
        for bad in ((0, 2), (0,), (0, 1, 1)):
            with pytest.raises(ValueError, match="not a bit string"):
                make(1, bad)
    assert one_shot.circuit(1) is identity_circuit(1, 1)
    assert one_shot_states.state(1) is epr_pairs(1)


def test_keyed_family_counts_and_behavior():
    fam = KeyedChannelFamily(
        kappa=lambda lam: 2,
        generator=lambda lam, key: keyed_pauli_unrotate(key, 1),
        budget=GateBudget((5.0,)),
    )
    report = is_efficient(fam, [1, 2])
    assert report.passed
    counts = {key: gate_count(fam.circuit(1, key)) for key in all_keys(2)}
    assert len(set(counts.values())) == 1
    for key in all_keys(2):
        out = apply(fam.circuit(1, key), keyed_pauli_state(key, 1))
        assert 1.0 - epr_expectation(out, 1) <= 1e-9


def test_key_register_initialization_distinguishes_keys():
    # key bit written into A' via an X power, read by a key-controlled gate
    def keyed_circuit(key):
        setter = Gate.unitary(X if key[0] else np.eye(2), (1,))
        kicked = Gate.controlled(X, (0,), (1,))
        return LoccCircuit(1, 1, 0, 1, 0, (Round(alice=(setter, kicked)),), 1, 1)

    zero = bipartite_pure(np.array([1, 0, 0, 0], dtype=complex), (1, 1))
    out0 = apply(keyed_circuit((0,)), zero)
    out1 = apply(keyed_circuit((1,)), zero)
    assert abs(out0.matrix[0, 0] - 1.0) < 1e-12      # key 0: A stays |0>
    assert abs(out1.matrix[2, 2] - 1.0) < 1e-12      # key 1: A flipped to |1>
    assert gate_count(keyed_circuit((0,))) == gate_count(keyed_circuit((1,)))


def test_replace_bob_outputs_fresh_zero():
    out = apply(replace_bob_circuit(1), epr_pairs(1))
    expected = np.kron(np.eye(2) / 2, np.diag([1.0, 0.0]))
    assert np.allclose(out.matrix, expected, atol=1e-12)


SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)

# n_b pairs of the stock Bob channels, written out: the registers
# (nA, tA, q, nB, tB, mA, mB) and Bob's one round of (kind, wires) gates
STOCK_BOB_GATES = {
    (dephase_bob_circuit, 2): ((2, 0, 2, 2, 0, 2, 2), [
        ("unitary", [4, 2]), ("pinch", [2]), ("unitary", [5, 3]), ("pinch", [3])]),
    (dephase_bob_circuit, 3): ((3, 0, 3, 3, 0, 3, 3), [
        ("unitary", [6, 3]), ("pinch", [3]), ("unitary", [7, 4]), ("pinch", [4]),
        ("unitary", [8, 5]), ("pinch", [5])]),
    (replace_bob_circuit, 2): ((2, 0, 0, 2, 2, 2, 2), [("unitary", [2, 4]), ("unitary", [3, 5])]),
    (replace_bob_circuit, 3): ((3, 0, 0, 3, 3, 3, 3), [
        ("unitary", [3, 6]), ("unitary", [4, 7]), ("unitary", [5, 8])]),
}


@pytest.mark.parametrize("build, n_b", STOCK_BOB_GATES, ids=lambda x: getattr(x, "__name__", x))
def test_stock_bob_channels_on_several_pairs_match_their_gate_lists(build, n_b):
    sizes, gates = STOCK_BOB_GATES[build, n_b]
    payload = CNOT if build is dephase_bob_circuit else SWAP
    expected = {
        "registers": dict(zip(("nA", "tA", "q", "nB", "tB", "mA", "mB"), sizes)),
        "outA": list(range(n_b)),
        "outB": list(range(n_b)),
        "rounds": [{"alice": [], "bob": [
            {"kind": kind, "wires": wires,
             **({"re": payload.real.reshape(-1).tolist(), "im": payload.imag.reshape(-1).tolist()}
                if kind == "unitary" else {})}
            for kind, wires in gates]}],
    }
    assert circuit_to_dict(build(n_b)) == expected


@pytest.mark.parametrize("build", [dephase_bob_circuit, replace_bob_circuit])
@pytest.mark.parametrize("n_b", [0, -1, 1.5])
def test_stock_bob_channels_refuse_a_bad_pair_count(build, n_b):
    with pytest.raises(ValueError):
        build(n_b)


def test_local_unitaries_on_either_side_of_the_purity_threshold():
    # 256 amplitudes take the state-vector path, 512 the dense density path;
    # both must equal U rho U^dag with U built densely from the same gates
    rng = np.random.default_rng(256)
    for n_a, vector_path in ((4, True), (5, False)):
        n = n_a + 4
        gates_a = [Gate.unitary(haar_unitary(4, rng), (0, 1)),
                   Gate.unitary(haar_unitary(2, rng), (n_a - 1,))]
        gates_b = [Gate.unitary(haar_unitary(4, rng), (n_a + 3, n_a)),
                   Gate.unitary(haar_unitary(2, rng), (n_a + 1,))]
        state = bipartite_pure(random_pure_state(n, rng), (n_a, 4))
        assert (_as_vector(state.matrix) is not None) == vector_path
        u = np.eye(2 ** n, dtype=complex)
        for g in gates_a + gates_b:
            u = embed_operator(g.matrix, g.wires, n) @ u
        out = apply(local_unitary_circuit(gates_a, gates_b, n_a, 4), state)
        assert out.cut == (n_a, 4)
        assert np.max(np.abs(out.matrix - u @ state.matrix @ u.conj().T)) < 1e-9, n


# -- serialization ----------------------------------------------------------------


def test_circuit_serialization_round_trip():
    target = random_pure_state(2, RNG)
    for circ in (
        teleport_dilution(prep_gates_for_state(target, 2), 1),
        bbpssw_round(),
        unrotate_distillation(haar_unitary(4, RNG), 2),
    ):
        packed = json.dumps(circuit_to_dict(circ))
        back = circuit_from_dict(json.loads(packed))
        assert back.out_a == circ.out_a and back.out_b == circ.out_b
        assert gate_count(back) == gate_count(circ)
        rounds_equal = len(back.rounds) == len(circ.rounds)
        assert rounds_equal
        for r1, r2 in zip(back.rounds, circ.rounds):
            for g1, g2 in zip(r1.alice + r1.bob, r2.alice + r2.bob):
                assert g1.kind == g2.kind and g1.wires == g2.wires and g1.controls == g2.controls
                if g1.matrix is not None:
                    assert np.array_equal(g1.matrix, g2.matrix)  # bit-exact
        rho = epr_pairs(circ.n_a) if circ.n_a == circ.n_b else None
        if rho is not None and circ.n_a <= 2:
            assert np.array_equal(apply(back, rho).matrix, apply(circ, rho).matrix)


def test_non_integer_inputs_are_refused():
    d = circuit_to_dict(bob_unitary_circuit(X, 1))
    bad_wire = json.loads(json.dumps(d))
    bad_wire["rounds"][0]["bob"][0]["wires"] = [1.7]
    bad_out = dict(d, outA=[0.5])
    bad_size = dict(d, registers=dict(d["registers"], nA=1.5))
    for bad in (bad_wire, bad_out, bad_size):
        with pytest.raises(ValueError):
            circuit_from_dict(bad)
    state = state_to_dict(random_bipartite(1, 2))
    with pytest.raises(ValueError):
        state_from_dict(dict(state, cut=[1.9, 1]))


def test_gate_loader_refuses_a_scalar_non_integer_wire():
    d = json.loads(json.dumps(circuit_to_dict(bob_unitary_circuit(X, 1))))
    d["rounds"][0]["bob"][0]["wires"] = 1.7
    with pytest.raises(ValueError, match="wires"):
        circuit_from_dict(d)
    d["rounds"][0]["bob"][0]["wires"] = 1  # a scalar integer wire is one wire
    assert circuit_from_dict(d).rounds[0].bob[0].wires == (1,)


def test_keyed_pauli_padding_and_overlong_keys():
    # a key shorter than 2m bits is zero-padded: (1,) on m = 1 is an X shift
    assert np.allclose(keyed_pauli_state((1,), 1).matrix, keyed_pauli_state((1, 0), 1).matrix)
    assert fidelity(apply(keyed_pauli_rotate((1,), 1), epr_pairs(1)), keyed_pauli_state((1,), 1)) > 1 - 1e-12
    for build in (keyed_pauli_state, keyed_pauli_rotate, keyed_pauli_unrotate):
        with pytest.raises(ValueError, match="longer than 2m"):
            build((0, 1, 1), 1)
