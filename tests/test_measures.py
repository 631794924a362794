import math
import tracemalloc

import numpy as np
import pytest

from compent.circuits import (
    ChannelFamily,
    Gate,
    GateBudget,
    KeyedChannelFamily,
    LoccCircuit,
    Round,
    apply,
    bob_unitary_circuit,
    identity_circuit,
    is_efficient,
    keyed_pauli_rotate,
    keyed_pauli_state,
    keyed_pauli_unrotate,
    teleport_dilution,
    unrotate_distillation,
)
from compent.linalg import SizeLimitError, haar_unitary
from compent.measures import (
    DilutionCertificate,
    DistillationCertificate,
    counterexample_eta_threshold,
    distillable_upper_via_squashed,
    p_err_dilute,
    p_err_distill,
    verify_dilution_certificate,
    verify_distillation_certificate,
)
from compent.states import (
    KEY_LENGTH_CAP,
    DensityMatrix,
    KeyedStateFamily,
    StateFamily,
    all_keys,
    bipartite_from_matrix,
    bipartite_pure,
    epr_pairs,
    g2,
    h_star,
    mixture,
    random_density_matrix,
    random_pure_state,
    rotated_epr,
)

from test_circuits import prep_gates_for_state

RNG = np.random.default_rng(77)

H_GATE = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
X_GATE = np.array([[0, 1], [1, 0]], dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def zero_state():
    return bipartite_pure(np.array([1, 0, 0, 0], dtype=complex), (1, 1))


def test_p_err_distill_examples():
    assert p_err_distill(identity_circuit(1, 1), epr_pairs(1), 1) <= 1e-12
    assert abs(p_err_distill(identity_circuit(1, 1), zero_state(), 1) - 0.5) < 1e-12
    u = haar_unitary(2, RNG)
    assert p_err_distill(unrotate_distillation(u, 1), rotated_epr(u, 1), 1) <= 1e-9
    with pytest.raises(ValueError):
        p_err_distill(identity_circuit(2, 2), epr_pairs(2), 1)


def test_p_err_distill_affine():
    g = bob_unitary_circuit(haar_unitary(2, RNG), 1)
    states = [bipartite_from_matrix(random_density_matrix(4, RNG), (1, 1)) for _ in range(3)]
    p = RNG.dirichlet(np.ones(3))
    mixed = p_err_distill(g, mixture(states, p), 1)
    avg = sum(w * p_err_distill(g, s, 1) for w, s in zip(p, states))
    assert abs(mixed - avg) < 1e-9


def test_p_err_dilute_examples():
    assert p_err_dilute(identity_circuit(1, 1), epr_pairs(1), 1) <= 1e-12
    target_vec = random_pure_state(2, RNG)
    tele = teleport_dilution(prep_gates_for_state(target_vec, 2), 1)
    assert p_err_dilute(tele, bipartite_pure(target_vec, (1, 1)), 1) <= 1e-9


def test_p_err_dilute_depolarizing_circuit():
    # scramble both halves to I/4: swap in fresh |0>, rotate to |+>, dephase
    alice = (
        Gate.unitary(SWAP, (0, 1)),
        Gate.unitary(H_GATE, (0,)),
        Gate.unitary(CNOT, (0, 2)),
        Gate.pinch((2,)),
    )
    bob = (
        Gate.unitary(SWAP, (4, 5)),
        Gate.unitary(H_GATE, (4,)),
        Gate.unitary(CNOT, (4, 3)),
        Gate.pinch((3,)),
    )
    scramble = LoccCircuit(1, 1, 2, 1, 1, (Round(alice, bob),), 1, 1)
    out = apply(scramble, epr_pairs(1))
    assert np.allclose(out.matrix, np.eye(4) / 4, atol=1e-12)
    assert abs(p_err_dilute(scramble, epr_pairs(1), 1) - 0.75) < 1e-9


def test_p_err_dilute_mixture_bound():
    g = bob_unitary_circuit(haar_unitary(2, RNG), 1)
    states = [bipartite_from_matrix(random_density_matrix(4, RNG), (1, 1)) for _ in range(3)]
    p = RNG.dirichlet(np.ones(3))
    eps_mix = p_err_dilute(g, mixture(states, p), 1)
    avg = sum(w * p_err_dilute(g, s, 1) for w, s in zip(p, states))
    assert eps_mix <= avg + 1e-9


def epr_family():
    return StateFamily(lambda lam: epr_pairs(lam))


def test_verify_distillation_identity_witness():
    cert = DistillationCertificate(
        family=epr_family(),
        m=lambda lam: lam,
        epsilon=lambda lam: 0.0,
        witness=ChannelFamily(lambda lam: identity_circuit(lam, lam), GateBudget((4.0, 1.0))),
    )
    report = verify_distillation_certificate(cert, [1, 2, 3])
    assert report.passed
    assert all(e.p_err <= 1e-9 for e in report.entries)


def test_verify_distillation_rotated_family():
    def unitary_for(lam):
        return haar_unitary(2, np.random.default_rng(1000 + lam))

    cert = DistillationCertificate(
        family=StateFamily(lambda lam: rotated_epr(unitary_for(lam), 1)),
        m=lambda lam: 1,
        epsilon=lambda lam: 0.0,
        witness=ChannelFamily(lambda lam: unrotate_distillation(unitary_for(lam), 1),
                              GateBudget((4.0,))),
    )
    report = verify_distillation_certificate(cert, [1, 2, 3])
    assert report.passed


def test_verify_distillation_budget_violation():
    cert = DistillationCertificate(
        family=epr_family(),
        m=lambda lam: lam,
        epsilon=lambda lam: 0.0,
        witness=ChannelFamily(lambda lam: identity_circuit(lam, lam), GateBudget((0.0,))),
    )
    # identity circuits cost 0 gates, so tighten by adding a gated witness
    def gated(lam):
        gates = tuple(Gate.unitary(X_GATE, (i,)) for i in range(lam)) + tuple(
            Gate.unitary(X_GATE, (i,)) for i in range(lam)
        )
        return LoccCircuit(lam, 0, 0, lam, 0, (Round(alice=gates),), lam, lam)

    cert = DistillationCertificate(
        family=epr_family(),
        m=lambda lam: lam,
        epsilon=lambda lam: 0.0,
        witness=ChannelFamily(gated, GateBudget((1.0,))),
    )
    report = verify_distillation_certificate(cert, [1, 2])
    assert not report.efficiency.passed
    assert not report.passed
    assert all(e.passed for e in report.entries)  # errors fine, budget is not


def test_verify_distillation_epsilon_relaxation_monotone():
    # a passing certificate keeps passing when epsilon is relaxed upward
    u = haar_unitary(2, np.random.default_rng(3))
    family = StateFamily(lambda lam: rotated_epr(u, 1))
    witness = ChannelFamily(lambda lam: unrotate_distillation(u, 1), GateBudget((4.0,)))
    for eps in (0.0, 0.2, 0.9):
        cert = DistillationCertificate(family, lambda lam: 1, lambda lam, e=eps: e, witness)
        assert verify_distillation_certificate(cert, [1, 2]).passed


def test_verify_dilution_teleport_witness():
    from compent.states import epr_vector

    def witness(lam):
        prep = []
        for i in range(lam):
            g = prep_gates_for_state(epr_vector(1), 2)[0]
            prep.append(Gate.unitary(g.matrix, (i, lam + i)))
        return teleport_dilution(prep, lam)

    cert = DilutionCertificate(
        family=epr_family(),
        n=lambda lam: lam,
        epsilon=lambda lam: 0.0,
        witness=ChannelFamily(witness, GateBudget((10.0, 15.0))),
    )
    report = verify_dilution_certificate(cert, [1, 2])
    assert report.passed
    # lambda = 3 would need 18 static qubits; the dense cap rejects it
    with pytest.raises(SizeLimitError):
        verify_dilution_certificate(cert, [3])


def test_verify_dilution_shape_error():
    cert = DilutionCertificate(
        family=epr_family(),
        n=lambda lam: lam - 1,
        epsilon=lambda lam: 0.0,
        witness=ChannelFamily(lambda lam: identity_circuit(lam, lam), GateBudget((4.0,))),
    )
    with pytest.raises(ValueError):
        verify_dilution_certificate(cert, [2])


def test_verify_keyed_dilution_all_keys():
    cert = DilutionCertificate(
        family=KeyedStateFamily(lambda lam: 2, lambda lam, key: keyed_pauli_state(key, 1)),
        n=lambda lam: 1,
        epsilon=lambda lam: 0.0,
        witness=KeyedChannelFamily(lambda lam: 2,
                                   lambda lam, key: keyed_pauli_rotate(key, 1),
                                   GateBudget((4.0,))),
    )
    report = verify_dilution_certificate(cert, [1])
    assert report.passed
    assert len(report.entries) == 4


def test_verify_keyed_distillation_mismatched_witness():
    # witness ignores the key: only the all-zero key distills exactly
    cert = DistillationCertificate(
        family=KeyedStateFamily(lambda lam: 2, lambda lam, key: keyed_pauli_state(key, 1)),
        m=lambda lam: 1,
        epsilon=lambda lam: 1e-6,
        witness=KeyedChannelFamily(lambda lam: 2,
                                   lambda lam, key: keyed_pauli_unrotate((0, 0), 1),
                                   GateBudget((4.0,))),
    )
    report = verify_distillation_certificate(cert, [1])
    assert not report.passed
    outcome = {e.key: e.passed for e in report.entries}
    assert outcome[(0, 0)] is True
    assert outcome[(0, 1)] is False
    assert outcome[(1, 0)] is False
    assert outcome[(1, 1)] is False


def test_certificate_report_schema():
    cert = DistillationCertificate(
        family=epr_family(),
        m=lambda lam: lam,
        epsilon=lambda lam: 0.0,
        witness=ChannelFamily(lambda lam: identity_circuit(lam, lam), GateBudget((4.0, 1.0))),
        name="epr-identity",
    )
    report = verify_distillation_certificate(cert, [1, 2]).to_dict()
    assert report["certificate"] == "epr-identity"
    assert set(report.keys()) == {"certificate", "lambdas", "efficiency", "pass"}
    for entry in report["lambdas"]:
        assert set(entry.keys()) == {"lambda", "key", "p_err", "epsilon", "pass"}
    assert set(report["efficiency"].keys()) == {"pass", "checked", "violations"}
    import json

    json.dumps(report)  # JSON-serializable end to end


def test_certificate_and_efficiency_reports_pinned():
    # X-rotated pairs against a wrong rotation: every overlap is exactly 0
    one_shot = DistillationCertificate(
        family=StateFamily(lambda lam: rotated_epr(X_GATE, 1)),
        m=lambda lam: 1,
        epsilon=lambda lam: 0.5,
        witness=ChannelFamily(lambda lam: bob_unitary_circuit(np.eye(2), 1), GateBudget((0.0,))),
        name="one-shot",
    )
    report = verify_distillation_certificate(one_shot, [1, 2])
    assert report.efficiency.violations == ((1, None, 1, 0.0), (2, None, 1, 0.0))
    assert report.to_dict() == {
        "certificate": "one-shot",
        "lambdas": [
            {"lambda": 1, "key": None, "p_err": 1.0, "epsilon": 0.5, "pass": False},
            {"lambda": 2, "key": None, "p_err": 1.0, "epsilon": 0.5, "pass": False},
        ],
        "efficiency": {"pass": False, "checked": [1, 2], "violations": [
            {"lambda": 1, "key": None, "gate_count": 1, "budget": 0.0},
            {"lambda": 2, "key": None, "gate_count": 1, "budget": 0.0},
        ]},
        "pass": False,
    }
    keyed = DistillationCertificate(
        family=KeyedStateFamily(lambda lam: 1, lambda lam, key: keyed_pauli_state(key, 1)),
        m=lambda lam: 1,
        epsilon=lambda lam: 0.5,
        witness=KeyedChannelFamily(lambda lam: 1,
                                   lambda lam, key: keyed_pauli_unrotate((1 - key[0],), 1),
                                   GateBudget((0.0,))),
        name="keyed",
    )
    report = verify_distillation_certificate(keyed, [1])
    assert report.efficiency.violations == ((1, (0,), 1, 0.0), (1, (1,), 1, 0.0))
    assert report.to_dict() == {
        "certificate": "keyed",
        "lambdas": [
            {"lambda": 1, "key": "0", "p_err": 1.0, "epsilon": 0.5, "pass": False},
            {"lambda": 1, "key": "1", "p_err": 1.0, "epsilon": 0.5, "pass": False},
        ],
        "efficiency": {"pass": False, "checked": [1], "violations": [
            {"lambda": 1, "key": "0", "gate_count": 1, "budget": 0.0},
            {"lambda": 1, "key": "1", "gate_count": 1, "budget": 0.0},
        ]},
        "pass": False,
    }


def test_certificate_refuses_a_family_with_the_wrong_cut():
    # the family yields (2, 2) states for a witness on (1, 1)
    family = StateFamily(lambda lam: epr_pairs(2))
    witness = ChannelFamily(lambda lam: identity_circuit(1, 1), GateBudget((4.0,)))
    with pytest.raises(ValueError, match="input cut"):
        verify_distillation_certificate(
            DistillationCertificate(family, lambda lam: 1, lambda lam: 0.0, witness), [1])
    with pytest.raises(ValueError, match="target cut"):
        verify_dilution_certificate(
            DilutionCertificate(family, lambda lam: 1, lambda lam: 0.0, witness), [1])


def test_distillable_upper_via_squashed():
    assert abs(distillable_upper_via_squashed(epr_pairs(1), 0.0) - 1.0) < 1e-9
    assert abs(distillable_upper_via_squashed(epr_pairs(2), 0.0) - 2.0) < 1e-9
    product = bipartite_pure(
        np.kron(random_pure_state(1, RNG), random_pure_state(1, RNG)), (1, 1)
    )
    assert distillable_upper_via_squashed(product, 0.0) < 1e-9
    with pytest.raises(ValueError):
        distillable_upper_via_squashed(epr_pairs(1), 1.0)


def test_distillable_upper_refuses_a_tripartite_state():
    # I(A;B)/2 read off a (1, 1, 1) cut bounds nothing: this state gave -0.239
    tri = DensityMatrix(random_density_matrix(8, np.random.default_rng(5)), (1, 1, 1))
    with pytest.raises(ValueError, match="a bipartite cut has two registers"):
        distillable_upper_via_squashed(tri, 0.0)


def test_distillable_upper_monotone_in_eps():
    rho = bipartite_from_matrix(random_density_matrix(4, RNG), (1, 1))
    grid = [0.0, 0.1, 0.2, 0.4, 0.6, 0.8]
    vals = [distillable_upper_via_squashed(rho, e) for e in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_counterexample_eta_threshold():
    assert counterexample_eta_threshold(1, 0.0) == 0.01
    assert counterexample_eta_threshold(2, 0.25) is None
    # frozen by scanning the defining inequality on the grid
    eta = counterexample_eta_threshold(1, 1e-4)
    assert eta == 0.06
    root = math.sqrt(1e-4)
    assert h_star(eta) > 2 * (g2(root) + 1 * root)
    assert h_star(eta - 0.01) <= 2 * (g2(root) + 1 * root)
    with pytest.raises(ValueError):
        counterexample_eta_threshold(1, 1.2)


@pytest.mark.parametrize("m, fragment", [(0, "pair count"), (-2, "pair count"), (1.5, "integers")])
def test_counterexample_eta_threshold_refuses_m_that_is_not_a_pair_count(m, fragment):
    with pytest.raises(ValueError, match=fragment):
        counterexample_eta_threshold(m, 0.0)


@pytest.mark.parametrize("kind, verify", [(DistillationCertificate, verify_distillation_certificate),
                                          (DilutionCertificate, verify_dilution_certificate)])
def test_certificates_need_a_lambda(kind, verify):
    cert = kind(epr_family(), lambda lam: lam, lambda lam: 0.0,
                ChannelFamily(lambda lam: identity_circuit(lam, lam), GateBudget((4.0,))))
    with pytest.raises(ValueError, match="at least one lambda"):
        verify(cert, [])


@pytest.mark.parametrize("kappa", [-1, 1.5, 2.0])
def test_a_family_whose_key_length_is_not_a_count_is_refused(kappa):
    witness = KeyedChannelFamily(lambda lam: kappa, lambda lam, key: identity_circuit(1, 1),
                                 GateBudget((4.0,)))
    cert = DistillationCertificate(KeyedStateFamily(lambda lam: kappa, lambda lam, key: epr_pairs(1)),
                                   lambda lam: 1, lambda lam: 0.0, witness)
    for check in (lambda: is_efficient(witness, [1]), lambda: verify_distillation_certificate(cert, [1])):
        with pytest.raises(ValueError, match="key length"):
            check()


def test_a_key_length_past_the_cap_is_refused_before_any_key_is_listed():
    kappa = KEY_LENGTH_CAP + 1
    refusal = rf"key length must lie in 0\.\.16, got {kappa}"
    witness = KeyedChannelFamily(lambda lam: lam, lambda lam, key: identity_circuit(1, 1),
                                 GateBudget((4.0,)))
    tracemalloc.start()
    try:
        for check in (lambda: all_keys(kappa), lambda: is_efficient(witness, [kappa])):
            with pytest.raises(SizeLimitError, match=refusal):
                check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20  # the 2^17 keys would take about 22 MiB
