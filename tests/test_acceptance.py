"""Acceptance suite: one test per contract criterion, at its stated tolerance.

Each test prints a single [PASS] line on success (visible with ``pytest -s``
or in the captured output); a failing assertion marks the criterion red.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from compent.circuits import (
    Gate,
    apply,
    bbpssw_round,
    bob_unitary_circuit,
    identity_circuit,
    local_unitary_circuit,
    stock_channel_zoo,
    teleport_dilution,
    unrotate_distillation,
)
from compent.harness import (
    ONE_SHOT_SUITES,
    SUITES,
    run_noninvariance_counterexample,
    run_suites,
)
from compent.linalg import haar_unitary
from compent.measures import (
    DistillationCertificate,
    p_err_dilute,
    p_err_distill,
    verify_distillation_certificate,
)
from compent.circuits import GateBudget, KeyedChannelFamily, keyed_pauli_state, keyed_pauli_unrotate
from compent.packing import epr_overlap, frobenius_distance, greedy_packing, separation_check
from compent.states import (
    KeyedStateFamily,
    binary_mixture_entropy,
    bipartite_from_matrix,
    bipartite_pure,
    epr_pairs,
    fidelity,
    h_star,
    random_density_matrix,
    random_pure_state,
    rotated_epr,
    tensor_states,
    trace_distance,
    von_neumann_entropy,
)

from oracles import bell_bookkeeping_oracle, isotropic_pair, purify_branch_oracle
from test_circuits import prep_gates_for_state

SLACK = -1e-9


def report(name):
    print(f"[PASS] {name}")


def random_dm(dim, rng):
    return random_density_matrix(dim, rng)


def test_criterion_01_fidelity_axiom_suite():
    rng = np.random.default_rng(101)
    start = time.time()
    pairs_per_dim = 200
    for dim in range(2, 17):
        for _ in range(pairs_per_dim):
            rho, sigma = random_dm(dim, rng), random_dm(dim, rng)
            # concavity
            rho2 = random_dm(dim, rng)
            p = rng.uniform(0.1, 0.9)
            mixed = p * rho + (1 - p) * rho2
            assert fidelity(mixed, sigma) - (
                p * fidelity(rho, sigma) + (1 - p) * fidelity(rho2, sigma)
            ) >= SLACK
            # factorization against a fixed-size second factor
            rho_b, sigma_b = random_dm(2, rng), random_dm(2, rng)
            assert abs(
                fidelity(np.kron(rho, rho_b), np.kron(sigma, sigma_b))
                - fidelity(rho, sigma) * fidelity(rho_b, sigma_b)
            ) <= 1e-9
            # unitary invariance
            u = haar_unitary(dim, rng)
            assert abs(
                fidelity(u @ rho @ u.conj().T, u @ sigma @ u.conj().T)
                - fidelity(rho, sigma)
            ) <= 1e-9
            # Fuchs-van de Graaf sandwich
            f = fidelity(rho, sigma)
            td = trace_distance(rho, sigma)
            assert td - (1 - math.sqrt(f)) >= SLACK
            assert math.sqrt(1 - min(f, 1.0)) - td >= SLACK
    # data processing for every stock channel
    for name, channel in stock_channel_zoo():
        dim = 2 ** (channel.n_a + channel.n_b)
        cut = (channel.n_a, channel.n_b)
        for _ in range(200):
            rho = bipartite_from_matrix(random_dm(dim, rng), cut)
            sigma = bipartite_from_matrix(random_dm(dim, rng), cut)
            before = fidelity(rho, sigma)
            after = fidelity(apply(channel, rho), apply(channel, sigma))
            assert after - before >= SLACK, name
    elapsed = time.time() - start
    assert elapsed < 10.0, f"axiom suite took {elapsed:.1f}s"
    report(f"criterion 1: fidelity axiom suite (200 pairs x dims 2..16, {elapsed:.1f}s)")


def test_criterion_02_convexity_and_concavity():
    from compent.circuits import compose, dephase_bob_circuit

    rng = np.random.default_rng(102)
    for i in range(50):
        s = 1 + (i % 2)
        gates_a = [Gate.unitary(haar_unitary(2, rng), (w,)) for w in range(s)]
        gates_b = [Gate.unitary(haar_unitary(2, rng), (s + w,)) for w in range(s)]
        g = local_unitary_circuit(gates_a, gates_b, s, s)
        if i % 3 == 0:  # include channels with measurement, not just unitaries
            g = compose(dephase_bob_circuit(s), g)
        states = [bipartite_from_matrix(random_dm(4 ** s, rng), (s, s)) for _ in range(3)]
        p = rng.dirichlet(np.ones(3))
        rec = SUITES["convexity"].check(g, states, p, s)
        assert rec.passed and abs(rec.lhs - rec.rhs) <= 1e-9
    for i in range(50):
        s = 1 + (i % 2)
        g = bob_unitary_circuit(haar_unitary(2 ** s, rng), s)
        states = [bipartite_from_matrix(random_dm(4 ** s, rng), (s, s)) for _ in range(3)]
        p = rng.dirichlet(np.ones(3))
        rec = SUITES["concavity"].check(g, states, p, s)
        assert rec.passed and rec.slack >= SLACK
    report("criterion 2: convexity equality and concavity bound (50 + 50 instances)")


def test_criterion_03_tensor_product_laws():
    rng = np.random.default_rng(103)
    for i in range(50):
        u1, u2 = haar_unitary(2, rng), haar_unitary(2, rng)
        rho1, rho2 = rotated_epr(u1, 1), rotated_epr(u2, 1)
        g1 = unrotate_distillation(u1, 1)
        g2 = unrotate_distillation(u2, 1) if i % 2 == 0 else identity_circuit(1, 1)
        rec = SUITES["superadditivity"].check(g1, g2, rho1, rho2, 1, 1)
        assert rec.passed
        assert rec.lhs <= rec.details["eps1"] + rec.details["eps2"] + 1e-9
    for i in range(50):
        if i % 5 == 0:  # a few instances pair two full teleport witnesses
            vec1, vec2 = random_pure_state(2, rng), random_pure_state(2, rng)
            g1 = teleport_dilution(prep_gates_for_state(vec1, 2), 1)
            g2 = teleport_dilution(prep_gates_for_state(vec2, 2), 1)
            t1, t2 = bipartite_pure(vec1, (1, 1)), bipartite_pure(vec2, (1, 1))
        else:
            u = haar_unitary(2, rng)
            g1, t1 = bob_unitary_circuit(u, 1), rotated_epr(u, 1)
            g2 = identity_circuit(1, 1)
            t2 = bipartite_from_matrix(random_dm(4, rng), (1, 1))
        rec = SUITES["subadditivity"].check(g1, g2, t1, t2, 1, 1)
        assert rec.passed
        assert rec.lhs <= rec.details["eps1"] + rec.details["eps2"] + 1e-9
    report("criterion 3: tensor-product error laws (50 + 50 instances)")


def test_criterion_04_lu_invariance():
    rng = np.random.default_rng(104)
    for i in range(25):
        vec = random_pure_state(2, rng)
        g = teleport_dilution(prep_gates_for_state(vec, 2), 1)
        layers = (
            [Gate.unitary(haar_unitary(2, rng), (0,))],
            [Gate.unitary(haar_unitary(2, rng), (0,))],
        )
        rec = SUITES["lu-cost"].check(g, bipartite_pure(vec, (1, 1)), *layers, 1)
        assert rec.passed and abs(rec.lhs - rec.rhs) <= 1e-9
        assert rec.details["gate_count_delta"] == rec.details["layer_size"] == 2
    for i in range(25):
        m = 1 + (i % 2)
        u = haar_unitary(2 ** m, rng)
        g, rho = unrotate_distillation(u, m), rotated_epr(u, m)
        layer_a = [Gate.unitary(haar_unitary(2, rng), (w,)) for w in range(m)]
        layer_b = [Gate.unitary(haar_unitary(2, rng), (w,)) for w in range(m)]
        if m == 2:
            layer_b.append(Gate.unitary(haar_unitary(4, rng), (0, 1)))
        rec = SUITES["lu-distillation"].check(g, rho, layer_a, layer_b, m)
        assert rec.passed and abs(rec.lhs - rec.rhs) <= 1e-9
    report("criterion 4: local-unitary invariance with exact count deltas (50 layers)")


def test_criterion_05_overlap_distance_identity():
    rng = np.random.default_rng(105)
    for m in (1, 2):
        for _ in range(200):
            u, v = haar_unitary(2 ** m, rng), haar_unitary(2 ** m, rng)
            lhs = epr_overlap(u, v, m).real
            rhs = 1.0 - frobenius_distance(u, v) ** 2 / 2 ** (m + 1)
            assert abs(lhs - rhs) <= 1e-9
    report("criterion 5: overlap-distance identity (200 pairs, m in {1,2})")


def test_criterion_06_mixture_entropy():
    rng = np.random.default_rng(106)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        psi = random_pure_state(n, rng)
        chi = random_pure_state(n, rng)
        x = abs(np.vdot(psi, chi))
        mixed = 0.5 * np.outer(psi, psi.conj()) + 0.5 * np.outer(chi, chi.conj())
        assert abs(von_neumann_entropy(mixed) - binary_mixture_entropy(x)) <= 1e-9
    for i in range(1, 100):
        eta = i / 100
        assert abs(h_star(eta) - binary_mixture_entropy(1 - eta)) <= 1e-12
    report("criterion 6: mixture entropy formula (100 pairs) and H* identity (99-point grid)")


def test_criterion_07_counterexample_chain():
    start = time.time()
    rec0 = run_noninvariance_counterexample(1, 0.0, seed=7)
    assert rec0.passed and not rec0.inconclusive
    assert rec0.lhs < 1 - 1e-6
    rec1 = run_noninvariance_counterexample(1, 1e-4, seed=7)
    assert rec1.passed and not rec1.inconclusive
    assert rec1.lhs < 1 - 1e-6
    rec2 = run_noninvariance_counterexample(2, 0.25, seed=7)
    assert rec2.inconclusive
    elapsed = time.time() - start
    assert elapsed < 5.0, f"counterexample chain took {elapsed:.1f}s"
    report(f"criterion 7: counterexample chain pass/pass/inconclusive ({elapsed:.2f}s)")


def test_criterion_08_packing_validity():
    for eta in (0.3, 0.5, 0.7):
        p = greedy_packing(1, eta, seed=7)
        assert separation_check(p), eta
    assert len(greedy_packing(1, 0.99, seed=7)) == 1
    rng = np.random.default_rng(42)
    moment = float(np.mean([abs(np.trace(haar_unitary(2, rng))) ** 2 for _ in range(1000)]))
    assert abs(moment - 1.0) <= 0.15
    report(f"criterion 8: packing validity and Haar moment ({moment:.3f})")


def test_criterion_09_protocol_exactness():
    rng = np.random.default_rng(109)
    for i in range(20):
        if i % 2 == 0:
            vec = random_pure_state(2, rng)
            circ = teleport_dilution(prep_gates_for_state(vec, 2), 1)
            target = bipartite_pure(vec, (1, 1))
            n = 1
        else:
            vecs = [random_pure_state(2, rng) for _ in range(2)]
            prep = [
                Gate.unitary(prep_gates_for_state(vecs[0], 2)[0].matrix, (0, 2)),
                Gate.unitary(prep_gates_for_state(vecs[1], 2)[0].matrix, (1, 3)),
            ]
            circ = teleport_dilution(prep, 2)
            target = tensor_states(
                bipartite_pure(vecs[0], (1, 1)), bipartite_pure(vecs[1], (1, 1))
            )
            n = 2
        assert p_err_dilute(circ, target, n) <= 1e-9
    for i in range(20):
        m = 1 + (i % 2)
        u = haar_unitary(2 ** m, rng)
        assert p_err_distill(unrotate_distillation(u, m), rotated_epr(u, m), m) <= 1e-9
    # purification round against the independent oracle
    pair = isotropic_pair(0.8)
    p_succ, kept = purify_branch_oracle(pair)
    zero = np.zeros((4, 4), dtype=complex)
    zero[0, 0] = 1.0
    expected = p_succ * kept + (1 - p_succ) * zero
    state = bipartite_from_matrix(pair, (1, 1))
    out = apply(bbpssw_round(), tensor_states(state, state))
    assert np.max(np.abs(out.matrix - expected)) <= 1e-9
    branch_fidelity = float(np.real(np.trace(kept @ epr_pairs(1).matrix)))
    book_p, book_f = bell_bookkeeping_oracle(0.8)
    assert abs(branch_fidelity - book_f) <= 1e-12 and abs(p_succ - book_p) <= 1e-12
    assert branch_fidelity > 0.8
    report(f"criterion 9: protocol exactness (40 witnesses; purification 0.8 -> {branch_fidelity:.4f})")


def test_criterion_10_uniform_suites():
    for kappa in (1, 2):
        for selector in ONE_SHOT_SUITES:
            records = run_suites([f"keyed-{selector}"], [1, 2], 10, kappa=kappa)
            assert records and all(r.passed for r in records), (selector, kappa)
            by_group: dict = {}
            for r in records:
                by_group.setdefault((r.lam, r.name), []).append(r.lhs)
            for (_, name), errs in by_group.items():
                assert max(errs) - min(errs) <= 1e-9, (name, "nonuniform error across keys")
    # a key-mismatched witness fails exactly at the mismatched keys
    cert = DistillationCertificate(
        family=KeyedStateFamily(lambda lam: 2, lambda lam, key: keyed_pauli_state(key, 1)),
        m=lambda lam: 1,
        epsilon=lambda lam: 1e-6,
        witness=KeyedChannelFamily(lambda lam: 2,
                                   lambda lam, key: keyed_pauli_unrotate((0, 0), 1),
                                   GateBudget((4.0,))),
    )
    outcome = {
        e.key: e.passed
        for e in verify_distillation_certificate(cert, [1]).entries
    }
    assert outcome == {(0, 0): True, (0, 1): False, (1, 0): False, (1, 1): False}
    report("criterion 10: uniform keyed suites (kappa <= 2) and exact mismatch localization")


def test_criterion_11_reproducibility_and_runtime():
    cmd = [
        sys.executable, "-m", "compent.cli", "verify",
        "--suite", "all", "--lambda", "1..3", "--seed", "7",
    ]
    start = time.time()
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.time() - start
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout  # byte-identical reports
    records = json.loads(first.stdout)
    assert len(records) >= 20
    assert elapsed / 2 < 60.0, f"full suite took {elapsed / 2:.1f}s"
    report(
        f"criterion 11: byte-identical reports, {len(records)} checks in {elapsed / 2:.1f}s"
    )
