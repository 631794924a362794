import math

import numpy as np
import pytest

from compent.circuits import (
    Gate,
    bob_unitary_circuit,
    identity_circuit,
    stock_channel_zoo,
    teleport_dilution,
    unrotate_distillation,
)
from compent import harness
from compent.harness import (
    ONE_SHOT_SUITES,
    SUITES,
    KeyedSetting,
    check_concavity_dilution,
    check_convexity_distillation,
    check_locc_monotonicity_cost,
    check_locc_monotonicity_distillation,
    check_lu_invariance_cost,
    check_lu_invariance_distillation,
    check_subadditivity_cost,
    check_superadditivity_distillation,
    random_pure_teleport,
    run_keyed_suite,
    run_noninvariance_counterexample,
    run_one_shot_check,
    run_suites,
)
from compent.linalg import SizeLimitError, haar_unitary
from compent.measures import p_err_dilute, p_err_distill
from compent.states import (
    all_keys,
    binary_mixture_entropy,
    bipartite_pure,
    epr_pairs,
    mixture,
    random_pure_state,
    rotated_epr,
    tensor_states,
)

from test_circuits import prep_gates_for_state

RNG = np.random.default_rng(4242)
# the keyed laws whose inputs hold no per-lambda draw at a fixed kappa
LAMBDA_FREE = {"superadditivity", "subadditivity", "monotonicity-cost", "monotonicity-distillation"}


def zero_state():
    return bipartite_pure(np.array([1, 0, 0, 0], dtype=complex), (1, 1))


def test_convexity_identical_states():
    rec = check_convexity_distillation(
        identity_circuit(1, 1), [epr_pairs(1), epr_pairs(1)], [0.4, 0.6], 1
    )
    assert rec.passed
    assert all(abs(e - rec.lhs) < 1e-12 for e in rec.details["eps_x"])


def test_convexity_epr_vs_zero():
    rec = check_convexity_distillation(
        identity_circuit(1, 1), [epr_pairs(1), zero_state()], [0.5, 0.5], 1
    )
    assert rec.passed
    assert abs(rec.lhs - 0.25) < 1e-12
    assert sorted(round(e, 9) for e in rec.details["eps_x"]) == [0.0, 0.5]


def test_concavity_single_state_is_equality():
    rec = check_concavity_dilution(identity_circuit(1, 1), [zero_state()], [1.0], 1)
    assert rec.passed
    assert abs(rec.lhs - rec.rhs) < 1e-12


def test_concavity_example():
    rec = check_concavity_dilution(
        identity_circuit(1, 1), [epr_pairs(1), zero_state()], [0.5, 0.5], 1
    )
    assert rec.passed
    assert abs(rec.lhs - 0.25) < 1e-12
    assert abs(rec.rhs - 0.25) < 1e-12  # equality edge of the bound


def test_superadditivity_both_perfect():
    u1, u2 = haar_unitary(2, RNG), haar_unitary(2, RNG)
    rec = check_superadditivity_distillation(
        unrotate_distillation(u1, 1), unrotate_distillation(u2, 1),
        rotated_epr(u1, 1), rotated_epr(u2, 1), 1, 1,
    )
    assert rec.passed
    assert rec.lhs <= 1e-9


def test_superadditivity_mixed_errors():
    rec = check_superadditivity_distillation(
        identity_circuit(1, 1), identity_circuit(1, 1),
        zero_state(), zero_state(), 1, 1,
    )
    assert rec.passed
    assert abs(rec.lhs - 0.75) < 1e-9  # 1 - (1/2)(1/2)
    assert rec.lhs <= rec.details["sum_bound"] + 1e-12


def test_subadditivity_two_teleports():
    vec = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    tele = teleport_dilution(prep_gates_for_state(vec, 2), 1)
    target = bipartite_pure(vec, (1, 1))
    rec = check_subadditivity_cost(tele, tele, target, target, 1, 1)
    assert rec.passed
    assert rec.lhs <= 1e-9


def test_lu_invariance_cost_identity_layer():
    u = haar_unitary(2, RNG)
    rec = check_lu_invariance_cost(
        bob_unitary_circuit(u, 1), rotated_epr(u, 1), [], [], 1
    )
    assert rec.passed and rec.details["gate_count_delta"] == 0


def test_lu_invariance_cost_bitflip_layer():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    vec = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    tele = teleport_dilution(prep_gates_for_state(vec, 2), 1)
    rec = check_lu_invariance_cost(
        tele, bipartite_pure(vec, (1, 1)), [], [Gate.unitary(x, (0,))], 1
    )
    assert rec.passed
    assert rec.details["gate_count_delta"] == 1


def test_lu_invariance_distillation_random_layer():
    u = haar_unitary(2, RNG)
    layer_a = [Gate.unitary(haar_unitary(2, RNG), (0,))]
    layer_b = [Gate.unitary(haar_unitary(2, RNG), (0,))]
    rec = check_lu_invariance_distillation(
        unrotate_distillation(u, 1), rotated_epr(u, 1), layer_a, layer_b, 1
    )
    assert rec.passed


def test_monotonicity_cost_identity_post():
    vec = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    tele = teleport_dilution(prep_gates_for_state(vec, 2), 1)
    rec = check_locc_monotonicity_cost(tele, identity_circuit(1, 1), bipartite_pure(vec, (1, 1)), 1)
    assert rec.passed
    assert abs(rec.slack) < 1e-9  # equality for the identity post-map


def test_monotonicity_cost_all_stock_channels():
    vec = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    tele = teleport_dilution(prep_gates_for_state(vec, 2), 1)
    target = bipartite_pure(vec, (1, 1))
    for name, post in stock_channel_zoo():
        if (post.n_a, post.n_b) != (1, 1):
            continue
        rec = check_locc_monotonicity_cost(tele, post, target, 1)
        assert rec.passed, name


def test_monotonicity_distillation_unrotate_premap():
    u = haar_unitary(2, RNG)
    rec = check_locc_monotonicity_distillation(
        identity_circuit(1, 1), unrotate_distillation(u, 1), rotated_epr(u, 1), 1
    )
    assert rec.passed
    assert rec.lhs <= 1e-9 and rec.rhs <= 1e-9


def test_counterexample_eps_zero():
    rec = run_noninvariance_counterexample(1, 0.0, seed=7)
    assert rec.passed and not rec.inconclusive
    assert rec.details["threshold"] == 0.01
    assert rec.lhs < 1.0 - 1e-6
    # the bound certifies that no channel serves both packing states
    x = rec.details["overlap"]
    assert abs(rec.lhs - (1.0 - 0.5 * binary_mixture_entropy(x))) < 1e-9


def test_counterexample_eps_small():
    rec = run_noninvariance_counterexample(1, 1e-4, seed=7)
    assert rec.passed and not rec.inconclusive
    assert rec.details["threshold"] == 0.06


def test_counterexample_inconclusive():
    rec = run_noninvariance_counterexample(2, 0.25, seed=7)
    assert rec.inconclusive and rec.passed
    assert rec.details["threshold"] is None


def test_counterexample_bound_at_half_eta():
    # any pair separated at eta = 0.5 gives upper bound <= 1 - H(0.5)/2 < 1
    from compent.measures import distillable_upper_via_squashed

    rng = np.random.default_rng(3)
    u = np.eye(2, dtype=complex)
    v = haar_unitary(2, rng)
    while abs(np.trace(v)) / 2 > 0.5:
        v = haar_unitary(2, rng)
    psi = mixture([rotated_epr(u, 1), rotated_epr(v, 1)], [0.5, 0.5])
    bound = distillable_upper_via_squashed(psi, 0.0)
    assert bound <= 1 - 0.5 * binary_mixture_entropy(0.5) + 1e-9
    assert bound < 1.0


def test_keyed_suites_all_pass():
    for selector in ONE_SHOT_SUITES:
        records = run_keyed_suite(selector, kappa=1, lambdas=[1], seed=5)
        assert records, selector
        assert all(r.passed for r in records), selector
        keys = {r.key for r in records}
        if selector in ("superadditivity", "subadditivity"):
            assert len(keys) == 4  # joint key pairs
        else:
            assert keys == {"0", "1"}


def test_keyed_suite_kappa_three():
    # kappa = 3 pads to two EPR pairs per side; eight keys per family
    records = run_keyed_suite("lu-distillation", kappa=3, lambdas=[1], seed=5)
    assert len(records) == 8
    assert all(r.passed for r in records)
    with pytest.raises(ValueError):
        run_keyed_suite("convexity", kappa=4, lambdas=[1], seed=5)


def test_keyed_suite_kappa_two():
    records = run_keyed_suite("convexity", kappa=2, lambdas=[1], seed=5)
    assert len(records) == 4
    assert all(r.passed for r in records)
    eps = {r.key: r.lhs for r in records}
    # uniform error across keys by construction
    assert max(eps.values()) - min(eps.values()) < 1e-9


def test_keyed_mismatch_fails_exactly_at_wrong_keys():
    from compent.circuits import keyed_pauli_state, keyed_pauli_unrotate

    wrong = keyed_pauli_unrotate((0, 0), 1)
    for key in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        err = p_err_distill(wrong, keyed_pauli_state(key, 1), 1)
        if key == (0, 0):
            assert err <= 1e-9
        else:
            assert err > 0.4


def test_one_shot_suite_instances_pass():
    for selector in ONE_SHOT_SUITES:
        for lam in (1, 2):
            for instance in (0, 1):
                rec = run_one_shot_check(selector, lam, instance, seed=13)
                assert rec.passed, (selector, lam, instance)


def test_run_suites_deterministic():
    a = run_suites(["convexity", "counterexample"], [1, 2], seed=7)
    b = run_suites(["convexity", "counterexample"], [1, 2], seed=7)
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]
    names = [r.name for r in a]
    assert names == sorted(names)


def test_run_suites_all_selector():
    records = run_suites(["all"], [1], seed=7)
    assert len(records) >= 20
    assert all(r.passed for r in records)
    with pytest.raises(ValueError):
        run_suites(["bogus"], [1], seed=7)


def test_lambda_free_keyed_checks_run_once_per_key_tuple(monkeypatch):
    monkeypatch.setattr(harness, "cpu_count", lambda: 1)  # the calls are counted in this process
    assert {name for name, suite in SUITES.items() if not suite.per_lambda} == LAMBDA_FREE
    for name, suite in SUITES.items():
        calls = []

        def counting(*args, check=suite.check):
            calls.append(1)
            return check(*args)

        monkeypatch.setitem(SUITES, name, suite._replace(check=counting))
        for kappa in (1, 2):
            calls.clear()
            records = run_keyed_suite(name, kappa, [1, 2, 3], seed=5)
            per_lambda = len(all_keys(kappa)) ** suite.arity  # key tuples
            assert len(records) == 3 * per_lambda, name
            assert len(calls) == per_lambda * (1 if name in LAMBDA_FREE else 3), (name, kappa)


class _Untouchable:
    """Stands in for a per-lambda draw; any use of it fails the test."""

    def _used(self, *args):
        raise AssertionError("a lambda-free keyed builder read a per-lambda draw")

    __getattr__ = __iter__ = __len__ = __getitem__ = __bool__ = __array__ = _used


def _touches_a_draw(suite, setting, keys):
    try:
        args = suite.keyed(setting, *keys)
    except AssertionError:
        return True
    return any(isinstance(a, _Untouchable) for a in args)


@pytest.mark.parametrize("kappa", [1, 3])
def test_lambda_free_keyed_builders_read_no_per_lambda_draw(kappa):
    setting = KeyedSetting(max(1, math.ceil(kappa / 2)), _Untouchable(), _Untouchable(), _Untouchable())
    for name, suite in SUITES.items():
        keys = (all_keys(kappa)[-1],) * suite.arity
        if name not in LAMBDA_FREE:  # the guard sees the draws these builders do read
            assert _touches_a_draw(suite, setting, keys), name
            continue
        args = suite.keyed(setting, *keys)
        assert not any(isinstance(a, _Untouchable) for a in args), name
        if kappa == 1:
            assert suite.check(*args).passed, name


def test_keyed_suite_over_lambdas_equals_one_lambda_at_a_time():
    for name in SUITES:
        together = run_keyed_suite(name, 2, [1, 2, 3], seed=11)
        apart = [r for lam in (1, 2, 3) for r in run_keyed_suite(name, 2, [lam], seed=11)]
        assert together == apart, name
        assert len({id(r.details) for r in together}) == len(together), name


def test_keyed_setting_builds_each_bob_rotation_once(monkeypatch):
    built = []

    def counting(u, m):
        built.append(m)
        return bob_unitary_circuit(u, m)

    monkeypatch.setattr(harness, "bob_unitary_circuit", counting)
    monkeypatch.setattr(harness, "cpu_count", lambda: 1)  # the builds are counted in this process
    for name in ("convexity", "concavity"):
        built.clear()
        records = run_keyed_suite(name, 2, [1, 2, 3], seed=5)
        assert len(records) == 12 and all(r.passed for r in records), name
        assert built == [1] * 6, name  # two fixed rotations for each lambda's setting


def test_an_empty_lambda_list_runs_only_the_counterexamples():
    assert [r.name for r in run_suites(["all"], [], 7)] == ["noninvariance-counterexample"] * 3
    for name in SUITES:  # a lambda-free suite too: no setting is drawn
        assert run_keyed_suite(name, 1, [], 7) == [], name


@pytest.mark.parametrize("run", [lambda sel: run_one_shot_check(sel, 1, 0, 7),
                                 lambda sel: run_keyed_suite(sel, 1, [1], 7)], ids=["one-shot", "keyed"])
@pytest.mark.parametrize("selector", ["nope", "keyed-convexity", "counterexample"])
def test_suite_runners_refuse_an_unknown_selector(run, selector):
    with pytest.raises(ValueError, match="unknown suite selector"):
        run(selector)


@pytest.mark.parametrize("check", [check_lu_invariance_cost, check_lu_invariance_distillation])
def test_lu_checks_refuse_a_layer_that_is_not_unitary(check):
    u = haar_unitary(2, RNG)
    g = bob_unitary_circuit(u, 1) if check is check_lu_invariance_cost else unrotate_distillation(u, 1)
    with pytest.raises(ValueError, match="only unitary gates"):
        check(g, rotated_epr(u, 1), [Gate.pinch((0,))], [], 1)


def test_lu_distillation_runs_the_inverse_layer_on_the_input():
    # the inverse layer undoes a two-wire layer on each side, so a perfect witness stays perfect
    u = haar_unitary(4, RNG)
    layers = [[Gate.unitary(haar_unitary(2, RNG), (0,)), Gate.unitary(haar_unitary(4, RNG), (1, 0))]
              for _ in range(2)]
    rec = check_lu_invariance_distillation(unrotate_distillation(u, 2), rotated_epr(u, 2), *layers, 2)
    assert rec.passed and rec.lhs < 1e-12 and rec.details == {"layer_size": 4}


def test_random_pure_teleport_draws_every_target_first():
    circuit, target = random_pure_teleport(np.random.default_rng(5), 2)
    rng = np.random.default_rng(5)
    vecs = [random_pure_state(2, rng) for _ in range(2)]
    expected = tensor_states(*(bipartite_pure(v, (1, 1)) for v in vecs))
    assert np.array_equal(target.matrix, expected.matrix)
    assert p_err_dilute(circuit, target, 2) < 1e-12
    one, target1 = random_pure_teleport(np.random.default_rng(5), 1)
    assert (one.n_a, one.m_a) == (1, 1)
    assert np.array_equal(target1.matrix, bipartite_pure(vecs[0], (1, 1)).matrix)


@pytest.mark.parametrize("n", [3, 7])
def test_random_pure_teleport_checks_the_qubit_cap_before_building_the_target(monkeypatch, n):
    def built(*args):
        raise AssertionError("the target was built")

    monkeypatch.setattr(harness, "tensor_states", built)
    with pytest.raises(SizeLimitError, match=f"circuit needs {6 * n} qubits"):
        random_pure_teleport(np.random.default_rng(5), n)
