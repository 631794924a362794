import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from compent import packing
from compent.circuits import GateBudget
from compent.linalg import haar_finish, haar_gaussian, haar_unitary, matrix_to_dict
from compent.packing import (
    DELTA,
    GS_FLOOR,
    SEPARATION_TOL,
    NetBoundEstimate,
    UnitaryPacking,
    counting_ratio_log,
    epr_overlap,
    frobenius_distance,
    greedy_packing,
    net_cardinality_bounds,
    packing_from_dict,
    packing_to_dict,
    pauli_orbit,
    separation_check,
)
from compent.states import epr_vector, pauli_shift, rotated_epr

from oracles import greedy_packing_reference

RNG = np.random.default_rng(31337)

X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_frobenius_distance():
    assert frobenius_distance(np.eye(2), np.eye(2)) == 0.0
    assert abs(frobenius_distance(np.eye(2), X) - 2.0) < 1e-12
    for d in (2, 4):
        u, v = haar_unitary(d, RNG), haar_unitary(d, RNG)
        assert frobenius_distance(u, v) <= 2 * math.sqrt(d) + 1e-9
    with pytest.raises(ValueError):
        frobenius_distance(np.eye(2), np.eye(4))
    with pytest.raises(ValueError):
        frobenius_distance(np.ones((2, 2)), np.eye(2))


def test_epr_overlap_identity():
    assert abs(epr_overlap(np.eye(2), np.eye(2), 1) - 1.0) < 1e-12
    for u, v, m in ((np.eye(2), np.eye(2), 2), (np.eye(4), np.eye(2), 2), (np.eye(2), np.eye(4), 1)):
        with pytest.raises(ValueError, match=f"must be {2 ** m}x{2 ** m}"):
            epr_overlap(u, v, m)
    assert abs(epr_overlap(np.eye(2), X, 1)) < 1e-12
    for m in (1, 2):
        for _ in range(100):
            u, v = haar_unitary(2 ** m, RNG), haar_unitary(2 ** m, RNG)
            lhs = epr_overlap(u, v, m).real
            rhs = 1.0 - frobenius_distance(u, v) ** 2 / 2 ** (m + 1)
            assert abs(lhs - rhs) < 1e-9


def test_epr_overlap_matches_state_inner_product():
    for m in (1, 2):
        u, v = haar_unitary(2 ** m, RNG), haar_unitary(2 ** m, RNG)
        phi = epr_vector(m)
        d = 2 ** m
        lhs = np.vdot(np.kron(np.eye(d), u) @ phi, np.kron(np.eye(d), v) @ phi)
        assert abs(lhs - epr_overlap(u, v, m)) < 1e-12


def test_pauli_orbit():
    orbit = pauli_orbit(np.eye(2), 1)
    assert len(orbit) == 4
    expected = [np.eye(2), pauli_shift([0], [1]), pauli_shift([1], [0]), pauli_shift([1], [1])]
    seen = {tuple(np.round(o, 9).reshape(-1)) for o in orbit}
    assert seen == {tuple(np.round(e, 9).reshape(-1)) for e in expected}
    for m in (1, 2):
        v = haar_unitary(2 ** m, RNG)
        orbit = pauli_orbit(v, m)
        assert len(orbit) == 4 ** m
        assert any(np.allclose(o, v) for o in orbit)
        # generic orbits are pairwise distinct
        for i in range(len(orbit)):
            for j in range(i + 1, len(orbit)):
                assert frobenius_distance(orbit[i], orbit[j]) > 1e-9


def test_pauli_orbit_names_both_shapes_of_a_wrong_size_unitary():
    with pytest.raises(ValueError, match=r"shape \(4, 4\) at m=2, got shape \(2, 2\)"):
        pauli_orbit(np.eye(2), 2)


@pytest.mark.parametrize("m", [0, 8])
def test_pauli_orbit_refuses_m_outside_one_to_two_before_building(monkeypatch, m):
    def built(m):
        raise AssertionError(f"the Pauli shifts for m={m} were built")

    monkeypatch.setattr(packing, "_paulis", built)
    with pytest.raises(ValueError) as orbit:
        pauli_orbit(np.eye(2 ** m), m)
    with pytest.raises(ValueError) as packed:
        greedy_packing(m, 0.5)
    assert str(orbit.value) == str(packed.value) == f"m must lie in 1..2, got {m}"


def _refuse_building(monkeypatch):
    def built(*args):
        raise AssertionError(f"built something from {args!r}")

    monkeypatch.setattr(packing, "_paulis", built)
    monkeypatch.setattr(packing, "matrix_from_dict", built)


@pytest.mark.parametrize("m", [0, 3])
def test_separation_check_and_the_loader_refuse_m_outside_one_to_two_before_building(monkeypatch, m):
    p = UnitaryPacking(m, 0.3, tuple(haar_unitary(2 ** m, RNG, 2)), 0)
    d = packing_to_dict(p)
    _refuse_building(monkeypatch)
    for call, arg in ((separation_check, p), (packing_from_dict, d)):
        with pytest.raises(ValueError, match=rf"m must lie in 1\.\.2, got {m}"):
            call(arg)


def test_a_loaded_m7_packing_is_refused_before_building(monkeypatch):
    d = {"m": 7, "eta": 0.3, "seed": 0, "members": [matrix_to_dict(np.eye(128))] * 2}
    _refuse_building(monkeypatch)
    with pytest.raises(ValueError, match=r"m must lie in 1\.\.2, got 7"):
        packing_from_dict(d)


def test_orbit_overlap_lower_bound():
    # Parseval over the Pauli basis forces max_P |tr(P W)| / 2^m >= 2^-m
    for m in (1, 2):
        for _ in range(20):
            u, v = haar_unitary(2 ** m, RNG), haar_unitary(2 ** m, RNG)
            assert max(abs(epr_overlap(w, v, m)) for w in pauli_orbit(u, m)) >= 2.0 ** -m - 1e-12


def test_greedy_packing_basics():
    p = greedy_packing(1, 0.3, seed=7)
    assert len(p) >= 2
    assert separation_check(p)
    # deterministic for a fixed seed
    q = greedy_packing(1, 0.3, seed=7)
    assert all(np.array_equal(a, b) for a, b in zip(p.members, q.members))
    for m in (3, 0, -1):
        with pytest.raises(ValueError, match=rf"m must lie in 1\.\.2, got {m}"):
            greedy_packing(m, 0.5)
    with pytest.raises(ValueError):
        greedy_packing(1, 0.0)


@pytest.mark.parametrize("m, eta, max_size", [
    (1, 0.3, None), (1, 0.5, None), (2, 0.5, None),
    (2, 0.3, 200),  # crosses the 64-member block and two buffer doublings
    (1, 0.3, 2), (2, 0.5, 2),
])
def test_greedy_packing_matches_per_member_reference(m, eta, max_size):
    for seed in (0, 7):
        ref, candidates = greedy_packing_reference(m, eta, seed=seed, max_size=max_size)
        p = greedy_packing(m, eta, seed=seed, max_size=max_size)
        assert [u.tobytes() for u in p.members] == [u.tobytes() for u in ref]
        assert p.candidates == candidates
        assert p.stop == ("max_size" if max_size is not None else "max_rejections reached")


def test_block_walk_cases_match_the_reference():
    # m=1, eta=0.1, seed 0 holds each case of the walk through a 64-candidate
    # block after its first: two members accepted from one block, a candidate
    # that every earlier block's member lets through but a member accepted
    # earlier in its own block rejects, and a max_rejections stop mid-block
    m, eta, seed = 1, 0.1, 0
    ref, candidates = greedy_packing_reference(m, eta, seed=seed)
    p = greedy_packing(m, eta, seed=seed)
    assert [u.tobytes() for u in p.members] == [u.tobytes() for u in ref]
    assert p.candidates == candidates and p.stop == "max_rejections reached"
    rng = np.random.default_rng(seed)
    draws = np.concatenate([haar_unitary(2 ** m, rng, 64) for _ in range(-(-candidates // 64))])
    draws = draws[:candidates]
    index = {v.tobytes(): c for c, v in enumerate(draws)}
    accepted_at = np.array([index[u.tobytes()] for u in ref])
    orbits = np.array([pauli_orbit(u, m) for u in ref])
    # overlap[j, c]: root fidelity of member j's orbit against candidate c
    overlap = np.abs(np.einsum("jpab,cab->jpc", orbits.conj(), draws)).max(axis=1) / 2 ** m
    block_start = np.arange(candidates) // 64 * 64
    earlier_block = accepted_at[:, None] < block_start
    own_block = (accepted_at[:, None] >= block_start) & (accepted_at[:, None] < np.arange(candidates))
    passes_earlier = np.where(earlier_block, overlap, 0.0).max(axis=0) <= 1 - eta
    fails_own = np.where(own_block, overlap, 0.0).max(axis=0) > 1 - eta
    accepted_per_later_block = np.bincount(accepted_at // 64)[1:]
    assert accepted_per_later_block.max() >= 2
    assert (passes_earlier & fails_own & (block_start > 0)).any()
    assert candidates % 64 != 0


@pytest.fixture(scope="module")
def accepted_at_m2_eta05():
    """The full m=2, eta=0.5, seed 1 run, and the candidate count at which
    each of its members was accepted."""
    full = greedy_packing(2, 0.5, seed=1)
    return full, [greedy_packing(2, 0.5, seed=1, max_size=n).candidates
                  for n in range(1, len(full) + 1)]


@pytest.mark.parametrize("cap", [1, 2, 63, 64, 65, 300, 764, 765, 766])
def test_max_candidates_keeps_what_the_first_candidates_accepted(accepted_at_m2_eta05, cap):
    full, accepted_at = accepted_at_m2_eta05
    p = greedy_packing(2, 0.5, seed=1, max_candidates=cap)
    kept = sum(c <= cap for c in accepted_at)
    assert [u.tobytes() for u in p.members] == [u.tobytes() for u in full.members[:kept]]
    assert p.candidates == min(cap, full.candidates)
    assert p.stop == ("max_candidates" if cap < full.candidates else "max_rejections reached")


def test_max_candidates_must_be_positive():
    for cap in (0, -3, math.nan):
        with pytest.raises(ValueError, match="max_candidates"):
            greedy_packing(1, 0.3, max_candidates=cap)


def test_size_cap_must_be_positive():
    for cap in (0, -1, math.nan):
        with pytest.raises(ValueError, match="max_size"):
            greedy_packing(1, 0.3, max_size=cap)
    # the smallest legal cap still accepts the first candidate
    p = greedy_packing(1, 0.3, seed=7, max_size=1)
    assert len(p) == 1 and separation_check(p)
    assert p.stop == "max_size"


def test_greedy_packing_high_eta_single_member():
    # orbit overlap >= 1/2 at m=1, so nothing survives next to one member
    p = greedy_packing(1, 0.99, seed=11)
    assert len(p) == 1
    assert separation_check(p)


def test_greedy_packing_max_size():
    p = greedy_packing(1, 0.05, seed=3, max_size=2)
    assert len(p) == 2
    assert separation_check(p)


def test_packing_size_nonincreasing_in_eta():
    sizes = []
    for i in range(1, 10):
        eta = i / 10
        p = greedy_packing(1, eta, seed=7)
        assert separation_check(p)
        sizes.append(len(p))
    assert all(b <= a for a, b in zip(sizes, sizes[1:]))


def test_separation_check_rejects_duplicates():
    u = haar_unitary(2, RNG)
    p = UnitaryPacking(1, 0.3, (u, u.copy()), 0)
    assert not separation_check(p)
    singleton = UnitaryPacking(1, 0.3, (u,), 0)
    assert separation_check(singleton)


def test_separation_check_rejects_wrong_member_shape():
    p = UnitaryPacking(2, 0.3, (np.eye(4), np.eye(2)), 0)
    with pytest.raises(ValueError, match="4x4 for m=2"):
        separation_check(p)


def test_separation_check_rejects_non_unitary_members():
    # scaled-down members would make every overlap small and pass the bound
    for members in ((0.5 * np.eye(2), 0.5 * np.eye(2)), (0.5 * np.eye(2),)):
        with pytest.raises(ValueError, match="not unitary"):
            separation_check(UnitaryPacking(1, 0.3, members, 0))


@pytest.fixture(scope="module")
def packing_m2_eta03():
    return greedy_packing(2, 0.3, seed=0)


def test_separation_check_accepts_the_eta_03_packing(packing_m2_eta03):
    assert len(packing_m2_eta03) == 636
    assert separation_check(packing_m2_eta03)


@pytest.mark.parametrize("source, target", [(100, 0), (70, 130), (65, 66), (600, 635)])
def test_separation_check_finds_a_planted_shifted_copy(packing_m2_eta03, source, target):
    # a Pauli-shifted copy of a member lies in its orbit, at root fidelity 1
    members = list(packing_m2_eta03.members)
    members[target] = pauli_shift([1, 0], [0, 1]) @ members[source]
    p = UnitaryPacking(2, 0.3, tuple(members), 0)
    assert not separation_check(p)


def test_separation_matches_rotated_epr_fidelity():
    from compent.states import fidelity

    p = greedy_packing(1, 0.3, seed=5)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            root_f = math.sqrt(fidelity(rotated_epr(p.members[i], 1), rotated_epr(p.members[j], 1)))
            assert root_f <= 1 - p.eta + 1e-9


def test_haar_moment():
    rng = np.random.default_rng(42)
    vals = [abs(np.trace(haar_unitary(2, rng))) ** 2 for _ in range(1000)]
    assert abs(float(np.mean(vals)) - 1.0) <= 0.15


def test_net_cardinality_bounds():
    b = net_cardinality_bounds(2, 0.5, 1.0, 1.0)
    assert isinstance(b, NetBoundEstimate)
    assert abs(b.log2_lower - b.log2_upper) < 1e-12
    assert abs(2 ** b.log2_lower - 1024.0) < 1e-6
    tighter = net_cardinality_bounds(2, 0.25, 1.0, 1.0)
    assert tighter.log2_lower > b.log2_lower
    assert tighter.log2_upper > b.log2_upper
    two_sided = net_cardinality_bounds(2, 0.5, 0.5, 2.0)
    assert two_sided.log2_lower <= two_sided.log2_upper
    with pytest.raises(ValueError):
        net_cardinality_bounds(2, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        net_cardinality_bounds(2, 0.5, 2.0, 1.0)


def test_net_cardinality_bounds_refuses_nan():
    for args in ((2, math.nan, 1.0, 1.0), (2, 0.5, math.nan, 1.0), (2, 0.5, 1.0, math.nan)):
        with pytest.raises(ValueError):
            net_cardinality_bounds(*args)


def test_counting_ratio_log():
    poly = GateBudget((0.0, 0.0, 1.0))  # lam^2
    assert abs(counting_ratio_log(poly, 4, 3, 0.5) - (16 - 64)) < 1e-12
    vals = [counting_ratio_log(poly, 4, m, 0.5) for m in (1, 2, 3)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        counting_ratio_log(poly, 4, 1, 1.5)
    for m, fragment in ((0, "pair count"), (-1, "pair count"), (0.5, "integers")):
        with pytest.raises(ValueError, match=fragment):  # m counts EPR pairs
            counting_ratio_log(poly, 1, m, 0.5)


def test_greedy_packing_stores_m_as_a_plain_int():
    p = greedy_packing(True, 0.5, seed=0, max_size=True)
    assert type(p.m) is int and len(p) == 1
    assert json.dumps(packing_to_dict(p)).startswith('{"m": 1, ')


def test_packing_serialization_round_trip():
    p = greedy_packing(1, 0.3, seed=9)
    packed = json.dumps(packing_to_dict(p))
    back = packing_from_dict(json.loads(packed))
    assert back.m == p.m and back.eta == p.eta and back.seed == p.seed
    assert len(back) == len(p)
    for a, b in zip(p.members, back.members):
        assert np.array_equal(a, b)
    assert separation_check(back)


def test_packing_loader_refuses_non_integer_m_and_seed():
    d = packing_to_dict(greedy_packing(1, 0.3, seed=9))
    for bad in (dict(d, m=1.5), dict(d, seed=9.5), dict(d, m="1")):
        with pytest.raises(ValueError, match="m and seed"):
            packing_from_dict(bad)


def test_packing_from_dict_refuses_a_non_unitary_member():
    d = packing_to_dict(greedy_packing(1, 0.3, seed=9))
    d["members"][0] = {"re": [2.0, 0.0, 0.0, 1.0], "im": [0.0] * 4}
    with pytest.raises(ValueError, match="not unitary"):
        packing_from_dict(d)


def test_packing_from_dict_refuses_eta_outside_the_open_unit_interval():
    # every member twice: the copies are not separated at any eta in (0, 1)
    d = packing_to_dict(greedy_packing(1, 0.3, seed=9))
    d["members"] += d["members"]
    assert not separation_check(packing_from_dict(dict(d, eta=0.5)))
    for eta in (-1.0, 0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match="eta must lie in"):
            packing_from_dict(dict(d, eta=eta))


def _spy_exact_path(monkeypatch) -> list[int]:
    """The column count of every complex128 ``_orbit_max`` call: the screen's exact path."""
    columns, orbit_max = [], packing._orbit_max

    def spy(rows, cols, groups):
        if rows.dtype == np.complex128:
            columns.append(len(cols))
        return orbit_max(rows, cols, groups)

    monkeypatch.setattr(packing, "_orbit_max", spy)
    return columns


def _at_overlap(u, target):
    """u diag(e^it, e^-it, 1, 1) (m = 2), whose orbit maximum against u is
    2 + 2 cos t = ``target``, from the identity shift: every other shift P has
    |tr((P u)^dag v)| <= 4 sin(t / 2) < ``target`` for targets near 2.8."""
    t = math.acos(target / 2 - 1)
    v = u @ np.diag(np.exp(1j * np.array([t, -t, 0.0, 0.0])))
    assert abs(np.abs(packing._orbit_rows(u, 2) @ v.ravel()).max() - target) < 1e-12
    return v


def test_candidates_at_the_bound_take_the_exact_path_and_its_decision(monkeypatch, packing_m2_eta03):
    eta, k = 0.3, 16
    bound = (1 - eta) * 4
    members = packing_m2_eta03.members[:64]
    rows = packing._orbit_rows(np.array(members), 2)
    tuned = [_at_overlap(members[i], bound + offset) for i in (5, 40) for offset in (-1e-6, 1e-6)]
    cols = np.concatenate([np.array(tuned), haar_unitary(4, np.random.default_rng(2), 60)]).reshape(-1, k)
    exact = packing._orbit_max(rows, cols, 1)[0] <= bound
    assert list(exact[:4]) == [True, False, True, False]
    for groups in (1, 64):  # the packing's test, and separation_check's per-pair test
        columns = _spy_exact_path(monkeypatch)
        within = packing._within(rows.astype(np.complex64), cols.astype(np.complex64), bound, groups,
                                 lambda near: (rows, cols[near]))
        assert columns == [4]
        assert within.shape == (groups, 64)
        assert np.array_equal(within.all(axis=0), exact)
        monkeypatch.undo()


def test_the_eta_03_packing_enters_the_exact_path(monkeypatch, packing_m2_eta03):
    columns = _spy_exact_path(monkeypatch)
    p = greedy_packing(2, 0.3, seed=0)
    assert len(columns) >= 1
    assert [u.tobytes() for u in p.members] == [u.tobytes() for u in packing_m2_eta03.members]


@pytest.mark.parametrize("m", [1, 2])
def test_the_screen_stays_within_a_tenth_of_delta_of_complex128(m):
    rng = np.random.default_rng(17 + m)
    gap = 0.0
    for _ in range(20):
        rows = packing._orbit_rows(haar_unitary(2 ** m, rng, 64), m)
        cols = haar_unitary(2 ** m, rng, 64).reshape(64, -1)
        # one group per row: every overlap of the block, not only the orbit maxima
        exact = packing._orbit_max(rows, cols, len(rows))
        screened = packing._orbit_max(rows.astype(np.complex64), cols.astype(np.complex64), len(rows))
        gap = max(gap, float(np.abs(screened - exact).max()))
    assert gap < DELTA / 10


@pytest.mark.parametrize("offset, separated", [(-1e-7, True), (1e-7, False)])
def test_separation_check_decides_a_planted_member_at_its_bound(monkeypatch, offset, separated):
    eta = 0.3
    u = haar_unitary(4, np.random.default_rng(3))
    v = _at_overlap(u, (1 - eta + SEPARATION_TOL) * 4 + offset)
    columns = _spy_exact_path(monkeypatch)
    assert separation_check(UnitaryPacking(2, eta, (u, v), 0)) is separated
    assert columns == [2]


# m, eta, seeds and caps whose packings ``packing_digest`` hashes: both m, etas from many
# members to one, runs ended by each rule, and caps inside the first and later draws
DIGEST_GRID = [(m, eta, seed, caps)
               for m, etas in ((1, (0.1, 0.3, 0.6)), (2, (0.35, 0.5, 0.7)))
               for eta in etas for seed in range(8)
               for caps in ({}, {"max_size": 5}, {"max_candidates": 300}, {"max_candidates": 700})]
# sha256 of the grid's members, candidate counts and stop rules, as the one-Haar-draw-per-
# candidate packing (LAPACK's QR for every candidate, screened in 64-candidate blocks) wrote them
PACKING_DIGEST = "37cadbf45211a923c0d163cc92f88e58d78b7e4c7223b08c8b7d714442119411"


def packing_digest() -> str:
    h = hashlib.sha256()
    for m, eta, seed, caps in DIGEST_GRID:
        p = greedy_packing(m, eta, seed=seed, **caps)
        for u in p.members:
            h.update(u.tobytes())
        h.update(f"{p.candidates} {p.stop};".encode())
    return h.hexdigest()


def test_the_packings_keep_their_bytes():
    assert packing_digest() == PACKING_DIGEST


def test_the_packings_keep_their_bytes_with_blas_on_two_threads():
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(packing.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=os.pathsep.join((src, here)))
    child = "from test_packing import packing_digest; print(packing_digest())"
    done = subprocess.run([sys.executable, "-c", child], env=env, check=True, timeout=300,
                          capture_output=True, text=True)
    assert done.stdout == PACKING_DIGEST + "\n"


@pytest.mark.parametrize("d", [2, 4])
def test_haar_unitary_is_the_gaussian_draw_then_the_finish(d):
    for count in (None, 1, 64, 256):
        split = haar_finish(haar_gaussian(d, np.random.default_rng(5), count or 1))
        assert np.array_equal(haar_unitary(d, np.random.default_rng(5), count),
                              split[0] if count is None else split)
    rng = np.random.default_rng(6)
    z = haar_gaussian(d, np.random.default_rng(6), 256)
    assert np.array_equal(z, np.concatenate([haar_gaussian(d, rng, 64) for _ in range(4)]))
    q = haar_finish(z)
    for idx in ([0], [3, 17, 200], [255], list(range(1, 256, 2))):
        assert np.array_equal(haar_finish(z[idx]), q[idx])


def test_gram_schmidt_copies_stay_close_to_lapacks_q():
    z = haar_gaussian(4, np.random.default_rng(8), 256)
    q, share = packing._gram_schmidt(z)
    assert np.abs(q - haar_finish(z)).max() < 1e-11
    assert 0 < share.min() and share.max() <= 1 + 1e-12


def _greedy_on(unitaries, m, eta) -> list[int]:
    """The indices a one-at-a-time greedy packing over ``unitaries`` accepts, tested in complex128."""
    bound, accepted = (1 - eta) * 2 ** m, []
    for c, v in enumerate(unitaries):
        if all(np.abs(packing._orbit_rows(unitaries[a], m) @ v.ravel()).max() <= bound for a in accepted):
            accepted.append(c)
    return accepted


def _spy_finish(monkeypatch) -> list[np.ndarray]:
    """Every stack that ``greedy_packing`` puts on LAPACK's Q."""
    stacks = []

    def spy(z):
        stacks.append(z.copy())
        return haar_finish(z)

    monkeypatch.setattr(packing, "haar_finish", spy)
    return stacks


def _plant(monkeypatch, change):
    """Has ``greedy_packing``'s first draw of Gaussians pass through ``change``; returns that draw."""
    def planted(d, rng, count):
        z = haar_gaussian(d, rng, count)
        if count == 64:
            change(z)
        return z

    monkeypatch.setattr(packing, "haar_gaussian", planted)
    return lambda m, seed: planted(2 ** m, np.random.default_rng(seed), 64)


def test_a_nearly_dependent_draw_is_screened_on_lapacks_q(monkeypatch):
    def dependent(z):  # candidate 5's second column keeps about 1e-7 of its norm
        z[5, :, 1] = z[5, :, 0] + 1e-7 * z[5, :, 1]

    first_draw = _plant(monkeypatch, dependent)
    stacks = _spy_finish(monkeypatch)
    p = greedy_packing(2, 0.5, seed=1, max_candidates=64)
    z = first_draw(2, 1)
    assert packing._gram_schmidt(z)[1][5] < GS_FLOOR
    assert np.array_equal(stacks[0], z[[5]])  # before any product
    exact = haar_finish(z)
    assert [u.tobytes() for u in p.members] == [exact[c].tobytes() for c in _greedy_on(exact, 2, 0.5)]


@pytest.mark.parametrize("offset, accepted", [(-1e-6, True), (1e-6, False)])
def test_a_candidate_near_the_bound_is_decided_on_lapacks_q(monkeypatch, offset, accepted):
    eta = 0.3

    def near(z):  # candidate 1 sits at the bound of candidate 0's orbit, a unitary is its own Q
        z[1] = _at_overlap(haar_finish(z[:1])[0], (1 - eta) * 4 + offset)

    first_draw = _plant(monkeypatch, near)
    stacks = _spy_finish(monkeypatch)
    columns = _spy_exact_path(monkeypatch)
    p = greedy_packing(2, eta, seed=4, max_candidates=64)
    z = first_draw(2, 4)
    assert columns[0] >= 1
    assert any(len(f) == 1 and np.array_equal(f[0], z[1]) for f in stacks)
    exact = haar_finish(z)
    kept = _greedy_on(exact, 2, eta)
    assert (1 in kept) is accepted
    assert [u.tobytes() for u in p.members] == [exact[c].tobytes() for c in kept]


def test_a_zero_deadline_runs_one_draw():
    p = greedy_packing(2, 0.5, seed=1, deadline_s=0)
    capped = greedy_packing(2, 0.5, seed=1, max_candidates=64)
    assert [u.tobytes() for u in p.members] == [u.tobytes() for u in capped.members]
    assert (p.candidates, p.stop) == (64, "deadline")
    late = greedy_packing(2, 0.5, seed=1, deadline_s=1e9)
    full = greedy_packing(2, 0.5, seed=1)
    assert [u.tobytes() for u in late.members] == [u.tobytes() for u in full.members]
    assert (late.candidates, late.stop) == (full.candidates, full.stop)


def test_the_deadline_is_read_before_each_draw_after_the_first(monkeypatch):
    ticks = iter(range(100))  # one second per reading of the clock

    class Clock:
        monotonic = staticmethod(lambda: next(ticks))

    monkeypatch.setattr(packing, "time", Clock)
    # read at 0 to set the end at 2.5, then at 1 and 2 before draws 2 and 3 and at 3 before draw 4
    p = greedy_packing(2, 0.5, seed=1, deadline_s=2.5)
    capped = greedy_packing(2, 0.5, seed=1, max_candidates=64 + 128 + 256)
    assert (p.candidates, p.stop) == (capped.candidates, "deadline")
    assert [u.tobytes() for u in p.members] == [u.tobytes() for u in capped.members]


def test_a_negative_or_nan_deadline_is_refused():
    for deadline in (-1.0, -1e-9, math.nan):
        with pytest.raises(ValueError, match="deadline_s must be at least 0"):
            greedy_packing(1, 0.3, deadline_s=deadline)


def test_a_packing_keeps_each_member_once():
    """At eta = 0.05 every candidate is accepted, so the packing grows with the run. A member's
    Gaussian draw and complex64 orbit rows (2 KiB at m = 2) peak at about 4.3 KiB per member
    with the row buffer's doubling; the bound allows 6 KiB."""
    greedy_packing(2, 0.05, seed=0, max_candidates=64)  # the Pauli table and numpy's first calls
    tracemalloc.start()
    try:
        p = greedy_packing(2, 0.05, seed=0, max_candidates=4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(p) == 4000
    assert peak < 24 * 2 ** 20
