import json
import re
import warnings
from functools import reduce
from operator import getitem
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from compent import linalg
from compent.circuits import (
    GateBudget, bob_unitary_circuit, circuit_from_dict, circuit_to_dict, dephase_bob_circuit,
    keyed_pauli_state, teleport_dilution,
)
from compent.harness import random_pure_teleport, run_one_shot_check, run_suites
from compent.linalg import (
    PSD_FLOOR,
    SizeLimitError,
    as_count,
    eig_hermitian,
    embed_operator,
    haar_unitary,
    hermitian_gap,
    marginal,
    psd_sqrt,
    require_unitary,
    schatten_norm,
    tensor_product,
)
from compent.measures import counterexample_eta_threshold
from compent.packing import (
    UnitaryPacking, counting_ratio_log, epr_overlap, greedy_packing, net_cardinality_bounds,
    packing_from_dict, packing_to_dict, pauli_orbit, separation_check,
)
from compent.states import (
    KEY_LENGTH_CAP, DensityMatrix, all_keys, epr_pairs, random_density_matrix, rotated_epr,
    state_from_dict, state_to_dict, trace_distance,
)

from oracles import BAD_INPUTS, haar_single

RNG = np.random.default_rng(1234)

X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_hermitian(d, rng=RNG):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (m + m.conj().T) / 2


def test_tensor_product_identities():
    assert np.array_equal(tensor_product(np.eye(2), np.eye(2)), np.eye(4))
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    out = tensor_product(p0, p1)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    assert np.array_equal(out, expected)


def test_tensor_product_trace_multiplies():
    for _ in range(20):
        a = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
        b = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
        assert abs(np.trace(tensor_product(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


def test_tensor_product_associative_on_integers():
    a = np.arange(4).reshape(2, 2)
    b = np.arange(4, 8).reshape(2, 2)
    c = np.arange(8, 12).reshape(2, 2)
    left = tensor_product(tensor_product(a, b), c)
    right = tensor_product(a, tensor_product(b, c))
    assert np.array_equal(left, right)


def test_tensor_product_cap():
    big = np.eye(2 ** 8)
    with pytest.raises(SizeLimitError):
        tensor_product(big, big)


def test_tensor_product_refuses_a_non_matrix_before_the_cap():
    for a, b in (([1, 0], [0, 1]), (5, [[1]]), ([[1]], np.zeros((2, 2, 2)))):
        with pytest.raises(ValueError, match="expects matrices"):
            tensor_product(a, b)


def test_layout_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2), (1, 0))
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(8) / 8, (0, 3))
    rho = DensityMatrix(np.eye(8) / 8, (2, 1))
    assert sum(rho.cut) == 3
    assert rho.reduce((1,)).cut == (1,)
    with pytest.raises(ValueError):
        rho.reduce((2,))


def test_partial_trace_epr():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    reduced = marginal(rho, 2, [0])
    assert np.allclose(reduced, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_factorizes():
    rho = random_hermitian(2)
    sigma = random_hermitian(4)
    out = marginal(np.kron(rho, sigma), 3, [0])
    assert np.allclose(out, rho * np.trace(sigma), atol=1e-12)


def test_partial_trace_preserves_trace():
    for _ in range(10):
        rho = random_hermitian(8)
        out = marginal(rho, 3, [0, 2])
        assert abs(np.trace(out) - np.trace(rho)) < 1e-12


def test_partial_trace_full_complement_is_trace():
    for _ in range(10):
        rho = random_hermitian(8)
        out = marginal(rho, 3, [])
        assert out.shape == (1, 1)
        assert abs(out[0, 0] - np.trace(rho)) < 1e-12


def test_partial_trace_unknown_register():
    for keep in ([2], [-1], [0, 0]):
        with pytest.raises(ValueError):
            marginal(np.eye(4), 2, keep)


def test_marginal_keeps_kept_qubits_in_the_given_order():
    a, b, c = random_hermitian(2), random_hermitian(2), random_hermitian(2)
    m = np.kron(np.kron(a, b), c)
    assert np.allclose(marginal(m, 3, [2, 0]), np.kron(c, a) * np.trace(b), atol=1e-12)


def test_marginal_without_a_trace_is_a_bitwise_reordering():
    # kron(op, I) holds -0.0 entries; a reorder must carry them over bitwise
    rng = np.random.default_rng(5)
    m = np.kron(random_hermitian(4, rng), np.eye(8, dtype=complex))
    assert np.signbit(m.real[m.real == 0]).any()
    for _ in range(20):
        perm = [int(q) for q in rng.permutation(5)]
        expect = np.transpose(m.reshape((2,) * 10), perm + [5 + q for q in perm]).reshape(32, 32)
        assert marginal(m, 5, perm).tobytes() == expect.tobytes()
    assert marginal(m, 5, range(5)).tobytes() == m.tobytes()


def test_schatten_norms():
    assert abs(schatten_norm(np.eye(2), 1) - 2.0) < 1e-12
    assert abs(schatten_norm(np.diag([3.0, -4.0]), 2) - 5.0) < 1e-12
    assert abs(schatten_norm(np.diag([3.0, -4.0]), np.inf) - 4.0) < 1e-12
    with pytest.raises(ValueError):
        schatten_norm(np.eye(2), 0.5)


def test_schatten_one_matches_abs_eigenvalues():
    for _ in range(10):
        h = random_hermitian(6)
        vals, _ = eig_hermitian(h)
        assert abs(schatten_norm(h, 1) - np.sum(np.abs(vals))) < 1e-10


def test_schatten_two_is_frobenius():
    for _ in range(10):
        m = RNG.standard_normal((5, 5)) + 1j * RNG.standard_normal((5, 5))
        assert abs(schatten_norm(m, 2) - np.sqrt(np.sum(np.abs(m) ** 2))) < 1e-12


def test_eig_hermitian_basics():
    vals, _ = eig_hermitian(X)
    assert np.allclose(vals, [-1.0, 1.0], atol=1e-12)
    vals, _ = eig_hermitian(np.eye(4))
    assert np.allclose(vals, np.ones(4), atol=1e-12)
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_hermitian_reconstructs():
    for _ in range(10):
        h = random_hermitian(8)
        vals, vecs = eig_hermitian(h)
        assert schatten_norm(vecs @ np.diag(vals) @ vecs.conj().T - h, 2) <= 1e-9


def test_eigenvalues_invariant_under_conjugation():
    for _ in range(5):
        h = random_hermitian(6)
        u = haar_unitary(6, RNG)
        a, _ = eig_hermitian(h)
        b, _ = eig_hermitian(u @ h @ u.conj().T)
        assert np.allclose(a, b, atol=1e-9)


def test_psd_sqrt():
    assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=1e-12)
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)
    for _ in range(10):
        u = haar_unitary(5, RNG)
        p = u @ np.diag(RNG.uniform(0, 2, 5)) @ u.conj().T
        root = psd_sqrt(p)
        assert schatten_norm(root @ root - p, 2) <= 1e-9
    with pytest.raises(ValueError):
        psd_sqrt(np.diag([1.0, -0.5]))


def _eigensolve_inputs(d, rng):
    """Hermitian d x d inputs: C-ordered, F-ordered, a transposed view, an every-other-row
    view, and one whose off-diagonal entries are all -0.0."""
    h = random_hermitian(d, rng)
    zeros = np.full((d, d), complex(-0.0, -0.0))
    np.fill_diagonal(zeros, rng.standard_normal(d))
    return [h, np.asfortranarray(h), h.T, random_hermitian(2 * d, rng)[::2, ::2], zeros]


@pytest.mark.parametrize("d", range(1, 65))
def test_eigensolves_are_numpys_bit_for_bit(d):
    for m in _eigensolve_inputs(d, np.random.default_rng([79, d])):
        vals, vecs = linalg.eigh(m)
        want_vals, want_vecs = np.linalg.eigh(m)
        assert vals.dtype == want_vals.dtype and vals.tobytes() == want_vals.tobytes()
        assert vecs.dtype == want_vecs.dtype and vecs.tobytes() == want_vecs.tobytes()
        got, want = linalg.eigvalsh(m), np.linalg.eigvalsh(m)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_a_nan_spectrum_raises_linalg_error(monkeypatch):
    """LAPACK's failure comes back as a NaN spectrum, which numpy's wrapper raises on."""
    monkeypatch.setattr(linalg, "_umath_linalg", SimpleNamespace(
        eigh_lo=lambda m, signature: (np.full(len(m), np.nan), np.full(m.shape, np.nan + 0j)),
        eigvalsh_lo=lambda m, signature: np.full(len(m), np.nan)))
    rho = np.eye(2, dtype=complex) / 2
    for solve in (linalg.eigh, linalg.eigvalsh, psd_sqrt, lambda m: trace_distance(m, m),
                  lambda m: DensityMatrix(m, (1,))):
        with pytest.raises(np.linalg.LinAlgError):
            solve(rho)


@pytest.mark.parametrize("d", (2, 8, 32))
def test_is_psd_holds_the_least_eigenvalue_to_the_psd_floor(d):
    rng = np.random.default_rng([3401, d])
    u = haar_unitary(d, rng)
    spectrum = rng.uniform(0.1, 1.0, d)
    for least, want in ((0.9 * PSD_FLOOR, True), (1.1 * PSD_FLOOR, False), (0.0, True)):
        spectrum[-1] = least
        assert linalg.is_psd((u * spectrum) @ u.conj().T) is want, (d, least)
    assert linalg.is_psd(np.diag([1.0, 0.0] * (d // 2)).astype(complex))  # rank-deficient


def test_is_psd_reports_lapacks_nan_factor_without_a_warning():
    m = np.diag([1.5, -0.5]).astype(complex)
    with np.errstate(invalid="ignore"):  # LAPACK's failure: a factor of NaN
        assert np.isnan(linalg._umath_linalg.cholesky_lo(m, signature="D->D")).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not linalg.is_psd(m)


def test_linalg_is_the_one_eigensolve_path():
    src = Path(linalg.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name != "linalg.py":
            assert not re.search(r"\b(np|numpy)\.linalg\.eig|from numpy\.linalg import",
                                 path.read_text()), path.name


VALIDATED = {
    eig_hermitian: ("nan-real", "+inf-imag", "-inf-imag", "non-hermitian", "non-square"),
    psd_sqrt: tuple(BAD_INPUTS),
    # none of the spoiled matrices is unitary either
    require_unitary: tuple(BAD_INPUTS),
}


@pytest.mark.parametrize("check, bad", [(f, b) for f, bads in VALIDATED.items() for b in bads],
                         ids=lambda x: getattr(x, "__name__", x))
def test_each_validator_refuses_each_spoiled_input(check, bad):
    with pytest.raises(ValueError):
        check(BAD_INPUTS[bad])


def test_validators_refuse_a_vector():
    for check in VALIDATED:
        with pytest.raises(ValueError):
            check(np.full(2, 0.5))


def test_as_count():
    assert as_count(3, "n", 1, 7) == 3 and type(as_count(np.int64(3), "n", 1)) is int
    assert type(as_count(True, "n", 1, 2)) is int
    assert as_count(10 ** 30, "n", 0) == 10 ** 30  # no cap: only the floor


# Every count the public API is given goes through ``as_count``.  An entry is
# (its call on the count, floor, cap or None, the argument's name, the inputs
# it once took otherwise): those ended in a TypeError, in another class or
# message, or in no error at all.
COUNTED = {
    "epr_pairs": (epr_pairs, 1, 7, "pair count", ()),
    "rotated_epr": (lambda m: rotated_epr(np.eye(2), m), 1, 7, "pair count", ()),
    "dephase_bob_circuit": (dephase_bob_circuit, 1, 7, "pair count", ()),
    "keyed_pauli_state": (lambda m: keyed_pauli_state((0,), m), 1, 7, "pair count", ()),
    "counterexample_eta_threshold": (lambda m: counterexample_eta_threshold(m, 0.0), 1, 7,
                                     "pair count", ()),
    "counting_ratio_log": (lambda m: counting_ratio_log(GateBudget((1.0,)), 1, m, 0.5), 1, 7,
                           "pair count", ()),
    "epr_overlap": (lambda m: epr_overlap(np.eye(2), np.eye(2), m), 1, 7, "pair count",
                    (1.5, 0, 8)),
    "teleport_dilution": (lambda n: teleport_dilution([], n), 1, 7, "pair count", (1.5, 0, 8)),
    "random_pure_teleport": (lambda n: random_pure_teleport(np.random.default_rng(0), n), 1, 7,
                             "pair count", (1.5, 0, 8)),
    "all_keys": (all_keys, 0, KEY_LENGTH_CAP, "key length", (-1, KEY_LENGTH_CAP + 1)),
    "pauli_orbit": (lambda m: pauli_orbit(np.eye(2), m), 1, 2, "m", (1.5, 0, 3)),
    "greedy_packing": (lambda m: greedy_packing(m, 0.5), 1, 2, "m", (1.5, 0, 3)),
    "separation_check": (lambda m: separation_check(UnitaryPacking(m, 0.5, (np.eye(2),), 0)), 1, 2,
                         "m", (1.5, 0, 3)),
    "packing_from_dict": (lambda m: packing_from_dict({"m": m, "eta": 0.5, "seed": 0,
                                                       "members": []}), 1, 2, "m", (0, 3)),
    "max_size": (lambda n: greedy_packing(1, 0.5, max_size=n), 1, None, "max_size", (1.5,)),
    "max_candidates": (lambda n: greedy_packing(1, 0.5, max_candidates=n), 1, None,
                       "max_candidates", (1.5,)),
    "run_suites": (lambda lam: run_suites(["convexity"], [lam], 0), 1, None, "lambda", (1.5, 0)),
    "run_suites keyed": (lambda lam: run_suites(["keyed-convexity"], [lam], 0), 1, None, "lambda",
                         (1.5, 0)),
    "run_one_shot_check": (lambda lam: run_one_shot_check("convexity", lam, 0, 0), 1, None,
                           "lambda", (1.5, 0)),
    "run_one_shot_check instance": (lambda i: run_one_shot_check("convexity", 1, i, 0), 0, None,
                                    "instance", (1.5, -1)),
    "run_suites keyed kappa": (lambda k: run_suites(["keyed-convexity"], [1], 0, kappa=k), 1, 3,
                               "kappa", (1.5, 0, 4)),
    "run_suites kappa": (lambda k: run_suites(["convexity"], [1], 0, kappa=k), 1, 3, "kappa",
                         (1.5, 0, 4)),
    "net_cardinality_bounds": (lambda d: net_cardinality_bounds(d, 0.5, 1.0, 2.0), 1, None, "d",
                               (1.5, 0)),
}


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry, (_, floor, cap, _, _) in COUNTED.items()
    for bad in (1.5, floor - 1) + (() if cap is None else (cap + 1,))
])
def test_each_count_refusal_names_its_argument(entry, bad):
    call, _, cap, name, _ = COUNTED[entry]
    with pytest.raises(ValueError) as refused:
        call(bad)
    assert type(refused.value) is (ValueError if bad == 1.5 or cap is None else SizeLimitError)
    assert str(refused.value).startswith(f"{name} ") and str(bad) in str(refused.value)


# each loader with its own serialized output; a circuit's outA and outB may be left out
LOADERS = {
    "state": (lambda: state_to_dict(epr_pairs(1)), state_from_dict),
    "circuit": (lambda: circuit_to_dict(bob_unitary_circuit(X, 1)), circuit_from_dict),
    "packing": (lambda: packing_to_dict(greedy_packing(1, 0.5, seed=0, max_size=2)), packing_from_dict),
}
REQUIRED = [(loader, (key,)) for loader, (dump, _) in LOADERS.items() for key in dump()
            if key not in ("outA", "outB")]
REQUIRED += [("circuit", ("registers", "nB")), ("circuit", ("rounds", 0, "bob", 0, "wires")),
             ("packing", ("members", 0, "im"))]


@pytest.mark.parametrize("loader, path", REQUIRED, ids=[f"{n}-{'.'.join(map(str, p))}" for n, p in REQUIRED])
def test_each_loader_names_a_missing_field(loader, path):
    dump, load = LOADERS[loader]
    d = json.loads(json.dumps(dump()))
    assert load(d) is not None  # the whole output loads
    del reduce(getitem, path[:-1], d)[path[-1]]
    with pytest.raises(ValueError, match=f"^{load.__name__}: missing field '{path[-1]}'$"):
        load(d)


def test_permute_and_embed():
    swap = marginal(np.kron(X, np.eye(2)), 2, [1, 0])
    assert np.allclose(swap, np.kron(np.eye(2), X))
    embedded = embed_operator(X, (1,), 2)
    assert np.allclose(embedded, np.kron(np.eye(2), X))
    # two-qubit embed at reversed wires flips the CNOT direction
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    rev = embed_operator(cnot, (1, 0), 2)
    expect = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
    assert np.allclose(rev, expect)
    with pytest.raises(ValueError, match="does not match 2 wires"):
        embed_operator(X, (0, 1), 2)


def test_haar_unitary_is_unitary():
    for d in (2, 4):
        for _ in range(25):
            u = haar_unitary(d, RNG)
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-12


def test_haar_unitary_block_equals_single_draws():
    for d in (1, 2, 4, 16):
        for seed in range(5):
            block = haar_unitary(d, np.random.default_rng(seed), 64)
            rng = np.random.default_rng(seed)
            singles = [haar_single(d, rng) for _ in range(64)]
            assert block.shape == (64, d, d)
            assert block.tobytes() == np.stack(singles).tobytes()


# sizes around the 64-row bands of hermitian_gap: under, at, and one past one
# band, either side of 128 rows where the bands start, a band-aligned size,
# one row into a fifth band, and 16 bands
GAP_SIZES = (1, 63, 64, 65, 127, 128, 129, 256, 257, 1024)


def spoil_positions(n):
    """An entry in the first row band, one in the last and one on the diagonal."""
    return {"first": (0, n - 1), "last": (n - 1, max(n - 2, 0)), "diagonal": (n // 2, n // 2)}


def spoiled(rho, i, j, size=1e-9):
    """``rho`` plus the anti-Hermitian ``size * 1j * (E_ij + E_ji)``."""
    m = rho.copy()
    m[i, j] += 1j * size
    if i != j:
        m[j, i] += 1j * size
    return m


@pytest.mark.parametrize("n", GAP_SIZES)
def test_hermitian_gap_is_bitwise_the_full_expression(n):
    rng = np.random.default_rng([77, n])
    rho = random_density_matrix(n, rng)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    mats = [rho, raw, np.asfortranarray(raw)]
    mats += [spoiled(rho, i, j) for i, j in spoil_positions(n).values()]
    mats += [spoiled(rho, i, j, size=1e-3) for i, j in spoil_positions(n).values()]
    for m in mats:
        want = np.abs(m - m.conj().T).max()
        got = hermitian_gap(m)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", GAP_SIZES)
def test_checkers_refuse_an_anti_hermitian_spoil_in_any_band(n):
    rho = random_density_matrix(n, np.random.default_rng([78, n]))
    assert hermitian_gap(rho) < 1e-12  # the spoil alone breaks the tolerance
    for where, (i, j) in spoil_positions(n).items():
        m = spoiled(rho, i, j)
        assert hermitian_gap(m) > 1e-9, where
        with pytest.raises(ValueError, match="not Hermitian"):
            eig_hermitian(m)
        with pytest.raises(ValueError, match="not Hermitian"):
            trace_distance(m, rho)
        if n > 1 and n & (n - 1) == 0:  # a DensityMatrix needs 2**q rows
            with pytest.raises(ValueError, match="not Hermitian"):
                DensityMatrix(m, (1, n.bit_length() - 2))
