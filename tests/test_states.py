import json
import math
import tracemalloc

import numpy as np
import pytest

from compent import linalg, states
from compent.linalg import QUBIT_CAP, SizeLimitError, haar_unitary, schatten_norm
from compent.states import (
    PSD_CHECK_DIM,
    DensityMatrix,
    all_keys,
    binary_mixture_entropy,
    bipartite_from_matrix,
    bipartite_pure,
    column_unitary,
    conditional_mutual_information,
    conjugate_local,
    epr_pairs,
    fidelity,
    g2,
    h_star,
    mixture,
    pauli_shift,
    random_density_matrix,
    random_pure_state,
    rotated_epr,
    squashed_trivial_upper,
    state_from_dict,
    state_to_dict,
    tensor_states,
    trace_distance,
    von_neumann_entropy,
)

from oracles import BAD_INPUTS, fidelity_reference

RNG = np.random.default_rng(99)


def pure_dm(vec):
    return np.outer(vec, np.conj(vec))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2), (1,))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [-0.5, 0.5]]), (1,))
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]), (1,))


def test_density_matrix_psd_check_at_its_dimension_threshold():
    # the largest dimension whose spectrum is still checked: 8 qubits
    assert PSD_CHECK_DIM == 2 ** 8
    vals = np.full(PSD_CHECK_DIM, (1 + 1e-6) / (PSD_CHECK_DIM - 1))
    vals[0] = -1e-6
    u = haar_unitary(PSD_CHECK_DIM, np.random.default_rng(11))
    m = (u * vals) @ u.conj().T
    m = (m + m.conj().T) / 2
    assert abs(np.trace(m).real - 1.0) < 1e-12
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(m, (8,))


def test_pure_state_validation():
    with pytest.raises(ValueError):
        bipartite_pure(np.array([1.0, 0.0, 0.0, 1.0]), (1, 1))


def test_epr_pairs_amplitudes():
    s = epr_pairs(1)
    expected = pure_dm(np.array([1, 0, 0, 1]) / math.sqrt(2))
    assert np.allclose(s.matrix, expected, atol=1e-12)
    assert np.allclose(s.reduced_b().matrix, np.eye(2) / 2, atol=1e-12)


def test_epr_pairs_purity_two_copies():
    s = epr_pairs(2)
    v = np.zeros(16)
    for x in range(4):
        v[x * 4 + x] = 0.5
    assert abs(v @ s.matrix @ v - 1.0) < 1e-12


def test_epr_pairs_range():
    with pytest.raises(SizeLimitError):
        epr_pairs(0)
    with pytest.raises(SizeLimitError):
        epr_pairs(8)


def test_fidelity_basics():
    rho = random_density_matrix(4, RNG)
    rho_state = bipartite_from_matrix(rho, (1, 1))
    assert abs(fidelity(rho_state, rho_state) - 1.0) < 1e-10
    zero = pure_dm(np.array([1, 0, 0, 0], dtype=complex))
    assert abs(fidelity(epr_pairs(1), zero) - 0.5) < 1e-12


def test_fidelity_pure_pair_matches_inner_product():
    for _ in range(20):
        psi = random_pure_state(2, RNG)
        chi = random_pure_state(2, RNG)
        expected = abs(np.vdot(psi, chi)) ** 2
        assert abs(fidelity(pure_dm(psi), pure_dm(chi)) - expected) < 1e-10


def ginibre(d, rng, rank):
    """A rank-``rank`` density matrix from a d x rank Ginibre draw."""
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_fidelity_is_bitwise_the_reference_at_every_rank():
    # every rank 1..d of rho, rank-deficient sigma included; a state object
    # wherever d is a power of two
    rng = np.random.default_rng(2024)
    for d in range(2, 33):
        n = d.bit_length() - 1
        for rank in range(1, d + 1):
            rho = ginibre(d, rng, rank)
            sigma = ginibre(d, rng, int(rng.integers(1, d + 1)))
            pairs = [(rho, sigma), (sigma, rho), (rho, rho)]
            if d == 2 ** n:
                cut = (n - n // 2, n // 2) if n > 1 else (1,)
                pairs += [(DensityMatrix(a, cut), DensityMatrix(b, cut)) for a, b in pairs]
            for a, b in pairs:
                assert fidelity(a, b) == fidelity_reference(a, b), (d, rank)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity(np.eye(2) / 2, np.eye(4) / 4)


def test_fidelity_refuses_a_raw_sigma_negative_off_rhos_support():
    # on rho's support sigma is 1.5, so the core spectrum is PSD; sigma is not
    with pytest.raises(ValueError, match="sigma is not PSD"):
        fidelity(np.diag([1.0, 0]), np.diag([1.5, -0.5]))


def test_fidelity_holds_a_raw_sigma_to_the_psd_floor_and_keeps_the_bits_it_accepts(monkeypatch):
    rng = np.random.default_rng(3402)
    rho, u = np.eye(4) / 4, haar_unitary(4, rng)  # the core is sigma / 4: above the floor either way
    near = {scale: (u * [0.5, 0.3, 0.2, scale * linalg.PSD_FLOOR]) @ u.conj().T for scale in (0.9, 1.1)}
    with pytest.raises(ValueError, match="sigma is not PSD"):
        fidelity(rho, near[1.1])
    # just above the floor, rank-deficient, and pure sigmas are accepted
    accepted = [(rho, near[0.9]), (np.diag([1.0, 0]), np.diag([1.0, 0]))]
    accepted += [(ginibre(d, rng, d), ginibre(d, rng, rank)) for d in (2, 4, 16, 32) for rank in (1, d // 2)]
    got = [fidelity(a, b) for a, b in accepted]
    monkeypatch.setattr(states, "is_psd", lambda m: True)  # the same calls without the check
    assert got == [fidelity(a, b) for a, b in accepted]


def test_trace_distance_values():
    zero = pure_dm(np.array([1.0, 0.0]))
    one = pure_dm(np.array([0.0, 1.0]))
    plus = pure_dm(np.array([1.0, 1.0]) / math.sqrt(2))
    assert trace_distance(zero, zero) == 0.0
    assert abs(trace_distance(zero, one) - 1.0) < 1e-12
    assert abs(trace_distance(zero, plus) - 1 / math.sqrt(2)) < 1e-12
    f = fidelity(zero, plus)
    assert abs(trace_distance(zero, plus) - math.sqrt(1 - f)) < 1e-10


SPOILED = {**BAD_INPUTS, "vector": np.full(2, 0.5, dtype=complex), "empty": np.zeros((0, 0))}
SCANNED = ("nan-real", "+inf-imag", "-inf-imag", "non-square", "vector", "empty")
# schatten_norm runs linalg.as_square (finite, non-empty, square); the trace distance runs
# linalg.as_hermitian (also Hermitian) on each raw argument; fidelity's rho goes
# through psd_sqrt (as_hermitian, then the PSD floor); fidelity's sigma goes
# through as_hermitian, then linalg.is_psd; the entropy's argument goes through
# as_hermitian, then a spectrum held to the PSD floor; DensityMatrix runs
# as_hermitian, then its cut-shape, trace and PSD tests
VALIDATED = {
    "fidelity-rho": (lambda m: fidelity(m, np.eye(2) / 2), tuple(SPOILED)),
    "fidelity-sigma": (lambda m: fidelity(np.eye(2) / 2, m), tuple(SPOILED)),
    "trace_distance-rho": (lambda m: trace_distance(m, np.eye(2) / 2), SCANNED + ("non-hermitian",)),
    "trace_distance-sigma": (lambda m: trace_distance(np.eye(2) / 2, m), SCANNED + ("non-hermitian",)),
    "DensityMatrix": (lambda m: DensityMatrix(m, (1,)), tuple(SPOILED)),
    "von_neumann_entropy": (von_neumann_entropy, tuple(SPOILED)),
    "schatten_norm": (lambda m: schatten_norm(m, 2), SCANNED),
}


@pytest.mark.parametrize("check, bad", [(c, b) for c, (_, bads) in VALIDATED.items() for b in bads])
def test_each_validator_refuses_each_spoiled_input(check, bad):
    with pytest.raises(ValueError):
        VALIDATED[check][0](SPOILED[bad])


def test_fidelity_refuses_two_non_square_arguments_of_one_shape():
    with pytest.raises(ValueError):
        fidelity(BAD_INPUTS["non-square"], BAD_INPUTS["non-square"])


def test_pauli_shift():
    assert np.array_equal(pauli_shift([0], [0]), np.eye(2))
    assert np.array_equal(pauli_shift([1], [0]), np.array([[0, 1], [1, 0]]))
    assert np.array_equal(pauli_shift([1], [1]), np.array([[0, -1], [1, 0]]))
    assert np.array_equal(pauli_shift("01", "00"),
                          np.kron(np.eye(2), np.array([[0, 1], [1, 0]])))
    with pytest.raises(ValueError):
        pauli_shift([1], [0, 1])
    for bad in ([1.5], [2], "12"):
        with pytest.raises(ValueError):
            pauli_shift(bad, [0])


def test_rotated_epr():
    assert np.allclose(rotated_epr(np.eye(2), 1).matrix, epr_pairs(1).matrix)
    x = pauli_shift([1], [0])
    flipped = rotated_epr(x, 1)
    expected = pure_dm(np.array([0, 1, 1, 0]) / math.sqrt(2))
    assert np.allclose(flipped.matrix, expected, atol=1e-12)
    for m in (1, 2):
        u = haar_unitary(2 ** m, RNG)
        s = rotated_epr(u, m)
        assert np.allclose(s.reduced_a().matrix, np.eye(2 ** m) / 2 ** m, atol=1e-10)
    with pytest.raises(ValueError):
        rotated_epr(np.ones((2, 2)), 1)


def test_von_neumann_entropy():
    assert abs(von_neumann_entropy(pure_dm(random_pure_state(2, RNG)))) < 1e-10
    assert abs(von_neumann_entropy(np.eye(2) / 2) - 1.0) < 1e-12
    assert abs(von_neumann_entropy(np.diag([0.25, 0.75])) - 0.811278) < 1e-5


def test_conditional_mutual_information():
    cut = (1, 1, 1)
    rho_a = random_density_matrix(2, RNG)
    rho_b = random_density_matrix(2, RNG)
    rho_e = random_density_matrix(2, RNG)
    product = DensityMatrix(np.kron(np.kron(rho_a, rho_b), rho_e), cut)
    assert abs(conditional_mutual_information(product)) < 1e-9

    zero = np.zeros((2, 2), dtype=complex)
    zero[0, 0] = 1.0
    phi_e = DensityMatrix(np.kron(epr_pairs(1).matrix, zero), cut)
    assert abs(conditional_mutual_information(phi_e) - 2.0) < 1e-9

    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / math.sqrt(2)
    assert abs(conditional_mutual_information(DensityMatrix(pure_dm(ghz), cut)) - 1.0) < 1e-9

    with pytest.raises(ValueError):
        conditional_mutual_information(DensityMatrix(product.matrix, (2, 1)))


def test_squashed_trivial_upper():
    assert abs(squashed_trivial_upper(epr_pairs(1)) - 1.0) < 1e-9
    product = bipartite_pure(np.kron(random_pure_state(1, RNG), random_pure_state(1, RNG)), (1, 1))
    assert abs(squashed_trivial_upper(product)) < 1e-9


def test_squashed_matches_mixture_formula():
    # equal mixture of two rotated EPR states: I(A;B)/2 = m - H[x]/2
    for m in (1, 2):
        u = haar_unitary(2 ** m, RNG)
        v = haar_unitary(2 ** m, RNG)
        mix = mixture([rotated_epr(u, m), rotated_epr(v, m)], [0.5, 0.5])
        x = abs(np.trace(u.conj().T @ v)) / 2 ** m
        expected = m - 0.5 * binary_mixture_entropy(x)
        assert abs(squashed_trivial_upper(mix) - expected) < 1e-9


def test_binary_mixture_entropy():
    assert binary_mixture_entropy(0.0) == 1.0
    assert binary_mixture_entropy(1 - 1e-12) < 1e-9
    for _ in range(20):
        psi = random_pure_state(2, RNG)
        chi = random_pure_state(2, RNG)
        x = abs(np.vdot(psi, chi))
        rho = 0.5 * pure_dm(psi) + 0.5 * pure_dm(chi)
        assert abs(von_neumann_entropy(rho) - binary_mixture_entropy(x)) < 1e-9
    with pytest.raises(ValueError):
        binary_mixture_entropy(1.0)
    with pytest.raises(ValueError):
        binary_mixture_entropy(-0.1)


def test_binary_mixture_entropy_strictly_decreasing():
    grid = np.linspace(0.001, 0.999, 200)
    vals = [binary_mixture_entropy(x) for x in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_h_star():
    assert h_star(1.0) == 1.0
    assert h_star(0.0) == 0.0
    assert abs(h_star(0.5) - binary_mixture_entropy(0.5)) < 1e-12
    for i in range(1, 100):
        eta = i / 100
        assert abs(h_star(eta) - binary_mixture_entropy(1 - eta)) < 1e-12
    with pytest.raises(ValueError):
        h_star(1.5)


def test_g2():
    assert g2(0.0) == 0.0
    assert abs(g2(1.0) - 2.0) < 1e-12
    # frozen from the defining formula (1.25 log2 1.25 + 0.5)
    assert abs(g2(0.25) - 0.9024101186092030) < 1e-12
    with pytest.raises(ValueError):
        g2(-0.1)


def test_g2_refuses_nan():
    with pytest.raises(ValueError):
        g2(math.nan)


def test_mixture():
    s = epr_pairs(1)
    assert np.allclose(mixture([s], [1.0]).matrix, s.matrix)
    zero = bipartite_pure(np.array([1, 0, 0, 0], dtype=complex), (1, 1))
    three = bipartite_pure(np.array([0, 0, 0, 1], dtype=complex), (1, 1))
    half = mixture([zero, three], [0.5, 0.5])
    assert np.allclose(half.matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-12)
    for _ in range(10):
        states = [bipartite_from_matrix(random_density_matrix(4, RNG), (1, 1)) for _ in range(3)]
        w = RNG.dirichlet(np.ones(3))
        out = mixture(states, w)
        assert abs(np.trace(out.matrix) - 1.0) < 1e-10
    with pytest.raises(ValueError):
        mixture([zero, three], [0.7, 0.2])


def test_mixture_refuses_nan_weights():
    # [nan, 1.0] passes a "< 0" test and a "> tol" sum test
    s = epr_pairs(1)
    with pytest.raises(ValueError, match="probability vector"):
        mixture([s, s], [math.nan, 1.0])


def test_tensor_states_ordering():
    # Phi (x) Phi through the bipartite tensor equals epr_pairs(2)
    joint = tensor_states(epr_pairs(1), epr_pairs(1))
    assert np.allclose(joint.matrix, epr_pairs(2).matrix, atol=1e-12)
    assert joint.cut == (2, 2)


def test_tensor_states_past_the_qubit_cap_is_refused_before_the_product(monkeypatch):
    # two 8-qubit states: their 16-qubit product would hold 2^32 complex entries (64 GiB)
    big = DensityMatrix._trusted(np.eye(256, dtype=complex) / 256, (4, 4))
    assert 2 * sum(big.cut) > QUBIT_CAP

    def no_product(*args):
        raise AssertionError("the product was started")

    monkeypatch.setattr(linalg, "kron", no_product)
    monkeypatch.setattr(states, "kron", no_product)
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match=f"{QUBIT_CAP}-qubit cap"):
            tensor_states(big, big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_bipartite_maps_refuse_a_tripartite_state():
    # one cut check serves the constructor, the tensor product and the
    # mutual-information bound; mixture keeps its own message
    tri = DensityMatrix(random_density_matrix(8, np.random.default_rng(5)), (1, 1, 1))
    pair = epr_pairs(1)
    refused = "a bipartite cut has two registers"
    for call in (lambda: bipartite_from_matrix(tri.matrix, (1, 1, 1)),
                 lambda: tensor_states(tri, pair), lambda: tensor_states(pair, tri),
                 lambda: squashed_trivial_upper(tri)):
        with pytest.raises(ValueError, match=refused):
            call()
    with pytest.raises(ValueError, match="all states must share one bipartite cut"):
        mixture([tri, tri], [0.5, 0.5])


def test_conjugate_local_preserves_fidelity():
    for _ in range(10):
        rho = bipartite_from_matrix(random_density_matrix(4, RNG), (1, 1))
        sigma = bipartite_from_matrix(random_density_matrix(4, RNG), (1, 1))
        ua, ub = haar_unitary(2, RNG), haar_unitary(2, RNG)
        before = fidelity(rho, sigma)
        after = fidelity(conjugate_local(rho, ua, ub), conjugate_local(sigma, ua, ub))
        assert abs(before - after) < 1e-9


def test_conjugate_local_refuses_unitaries_not_sized_to_the_cut():
    # a 4x4 U_A on the (1, 1) cut would act across the cut, not on A alone
    for u_a, u_b in ((np.eye(4), np.eye(1)), (np.eye(1), np.eye(4)), (np.eye(2), np.eye(4))):
        with pytest.raises(ValueError, match="is not 2x2"):
            conjugate_local(epr_pairs(1), u_a, u_b)


def test_all_keys():
    assert all_keys(1) == [(0,), (1,)]
    assert all_keys(2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all_keys(0) == [()]


@pytest.mark.parametrize("kappa, fragment", [(-1, "0..16, got -1"), (1.5, "integers"), (2.0, "integers")])
def test_all_keys_refuses_a_key_length_that_is_not_a_count(kappa, fragment):
    with pytest.raises(ValueError, match=fragment):
        all_keys(kappa)


@pytest.mark.parametrize("build, fragment", [
    (lambda: DensityMatrix(np.eye(4) / 4, (1,)), "does not match cut"),
    (lambda: trace_distance(np.eye(2) / 2, np.eye(4) / 4), "one shape"),
    (lambda: mixture([epr_pairs(1)], [0.5, 0.5]), "one weight per state"),
], ids=["density-matrix-cut", "trace-distance-shapes", "mixture-weight-count"])
def test_each_state_refusal_names_its_fault(build, fragment):
    with pytest.raises(ValueError, match=fragment):
        build()


def test_state_serialization_round_trip():
    signed = np.diag([0.5, 0.25, 0.125, 0.125, 0, 0, 0, 0]).astype(complex)
    signed[0, 1], signed[1, 0] = complex(-0.0, 0.0), complex(-0.0, -0.0)
    for m in [random_density_matrix(8, RNG) for _ in range(5)] + [signed]:
        s = bipartite_from_matrix(m, (2, 1))
        packed = json.dumps(state_to_dict(s))
        back = state_from_dict(json.loads(packed))
        assert back.cut == s.cut
        assert back.matrix.tobytes() == s.matrix.tobytes()  # exact round trip, signed zeros too


def test_state_loader_refuses_non_integer_dims():
    d = state_to_dict(bipartite_from_matrix(random_density_matrix(4, RNG), (1, 1)))
    for dims in ([4.0, 4.0], 4, [4.5, 4]):
        with pytest.raises(ValueError, match="dims"):
            state_from_dict(dict(d, dims=dims))


def test_column_unitary_prepares_the_vector():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        vec = random_pure_state(n, rng)
        u = column_unitary(vec)
        assert np.allclose(u.conj().T @ u, np.eye(2 ** n), atol=1e-12)
        assert np.allclose(u[:, 0], vec, atol=1e-12)
