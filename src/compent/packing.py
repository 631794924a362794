"""Separated packings on the unitary group under the Frobenius norm.

A packing member U stands for the whole orbit {sigma_X(a) sigma_Z(b) U} of
Pauli-shifted copies; separation is enforced between full orbits, measured
through the root fidelity of the rotated EPR states sqrt(F(Phi_U, Phi_V)) =
|tr(U^dag V)| / 2^m.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from itertools import product

import numpy as np

from .linalg import (
    as_count, as_ints, haar_finish, haar_gaussian, matrix_from_dict, matrix_to_dict, require_unitary,
    schatten_norm,
)
from .states import _pair_count, pauli_shift, shared

_BLOCK = 64  # members per overlap product, and candidates in a packing's first draw
_DRAW = 256  # candidates per later draw and per screen product
SEPARATION_TOL = 1e-9  # slack on separation_check's root-fidelity bound
MAX_REJECTIONS = 500  # consecutive rejected candidates that end a greedy packing
# Margin of the complex64 screen. A packing's bytes do not depend on the screen, because:
# - Same stream: ``haar_gaussian`` takes 2 d^2 normals per matrix, so draws of 64, 128, then
#   256 Gaussians take the normals that 64-matrix ``haar_unitary`` stacks take.
# - Same Q: ``haar_finish`` of a sub-stack ``z[idx]`` is bitwise its part of the full
#   stack's Q, so a member finished in any batch is the one ``haar_unitary`` returns.
# - The screen's budget: on rows and columns of Frobenius norm 2^(m/2), the two casts (2u
#   each, u = 2^-24) and a gamma_16 inner product move an overlap by about 5e-6 at m = 2;
#   Gram-Schmidt copies U + dU and V + dV move it by at most 2^(m/2) (||dU||_F + ||dV||_F)
#   more, under 3e-5 while ``GS_FLOOR`` holds.
DELTA = 1e-4
# Least share ||v_c|| / ||a_c|| of a column's norm that modified Gram-Schmidt keeps after its
# projections (Bjorck, BIT 7, 1967). To first order, column c's rounding (gamma u ||a_c||,
# gamma = 16 at d = 4, u = 2^-53) and the errors e_p before it (times |r_pc| <= ||a_c||) are
# divided by ||v_c||: e_c <= (gamma u + sum e_p) / share, so e_4 <= 2 gamma u / share^3 =
# 3.6e-6 at share 1e-3 and ||dV||_F <= 2 e_4. Over 1.2 M draws at d = 4 the largest entry
# error was 1.2e-12 and about 4 in a million fell below the floor; those use LAPACK's Q.
GS_FLOOR = 1e-3


@dataclass(frozen=True, eq=False)
class UnitaryPacking:
    m: int
    eta: float
    members: tuple[np.ndarray, ...]
    seed: int
    # how the greedy construction ran; not serialized
    candidates: int = 0
    stop: str = ""

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class NetBoundEstimate:
    """Two-sided cardinality bound for an eta-net on U(d), in log2 form."""

    d: int
    eta: float
    c_lower: float
    c_upper: float
    log2_lower: float
    log2_upper: float


def frobenius_distance(u, v) -> float:
    """Schatten-2 distance between two unitaries of equal dimension."""
    u = require_unitary(u, "first argument")
    v = require_unitary(v, "second argument")
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch {u.shape} vs {v.shape}")
    return schatten_norm(u - v, 2)


def epr_overlap(u, v, m: int) -> complex:
    """<phi^(x)m| (I (x) U^dag)(I (x) V) |phi^(x)m> = tr(U^dag V) / 2^m.

    Its real part equals 1 - ||U - V||_2^2 / 2^(m+1).
    """
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    d = 2 ** _pair_count(m)
    if u.shape != (d, d) or v.shape != (d, d):
        raise ValueError(f"operands must be {d}x{d} for m={m}")
    return complex(np.trace(u.conj().T @ v) / d)


def _check_eta(eta: float) -> None:
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")


def pauli_orbit(v, m: int) -> list[np.ndarray]:
    """All 4^m 'sigma_X(a) sigma_Z(b) V' shifts of a unitary."""
    m = as_count(m, "m", 1, 2)  # packings stay at m <= 2, where orbit scans are cheap
    if np.shape(v) != (2 ** m, 2 ** m):
        raise ValueError(f"pauli_orbit needs shape {(2 ** m, 2 ** m)} at m={m}, got shape {np.shape(v)}")
    return list(_paulis(m) @ require_unitary(v))


@shared
def _paulis(m: int) -> np.ndarray:
    """The 4^m shifts sigma_X(a) sigma_Z(b) stacked in ``product`` order of (a, b)."""
    bits = list(product((0, 1), repeat=m))
    return np.stack([pauli_shift(a, b) for a in bits for b in bits])


def _orbit_rows(u: np.ndarray, m: int) -> np.ndarray:
    """Flattened conj(P U) over the orbit, 4^m rows per unitary in ``u``
    (one matrix or a stack), so that ``rows @ V.ravel()`` is tr((P U)^dag V)."""
    return (_paulis(m) @ u[..., None, :, :]).conj().reshape(-1, 4 ** m)


def _orbit_max(rows, cols, groups: int) -> np.ndarray:
    """``max |rows @ cols.T|`` over each of ``groups`` equal runs of rows, per column."""
    return np.abs(rows @ cols.T).reshape(groups, len(rows) // groups, -1).max(axis=1)


def _within(rows32, cols32, bound: float, groups: int, exact) -> np.ndarray:
    """``_orbit_max(rows, cols, groups) <= bound`` from the complex64 copies; only the
    columns with a maximum within ``DELTA`` of the bound are recomputed in complex128,
    on ``exact(near)``, the complex128 rows and those columns."""
    top = _orbit_max(rows32, cols32, groups)
    within, gap = top <= bound, np.abs(top - bound)
    if gap.min(initial=DELTA + 1) <= DELTA:
        near = np.flatnonzero((gap <= DELTA).any(axis=0))
        within[:, near] = _orbit_max(*exact(near), groups) <= bound
    return within


def _gram_schmidt(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Modified Gram-Schmidt Q of each matrix in the stack ``z``, whose R has the positive
    diagonal that ``haar_finish`` gives, and per matrix the least share of a column's norm
    that its projections kept."""
    a = z.transpose(2, 1, 0).copy()  # a[c, i] is entry i of column c across the stack
    before = (a.real ** 2 + a.imag ** 2).sum(axis=1)
    after = np.empty_like(before)
    for c, q in enumerate(a):
        after[c] = (q.real ** 2 + q.imag ** 2).sum(axis=0)
        q *= 1 / np.sqrt(after[c])
        rest = a[c + 1:]
        rest -= np.einsum("ib,rib->rb", q.conj(), rest)[:, None, :] * q
    return a.transpose(2, 1, 0), np.sqrt((after / before).min(axis=0))


def greedy_packing(
    m: int,
    eta: float,
    seed: int = 0,
    max_size: int | None = None,
    max_candidates: int | None = None,
    deadline_s: float | None = None,
) -> UnitaryPacking:
    """Randomized greedy packing of Pauli-orbit-separated unitaries.

    Haar candidates are accepted when every existing member's orbit keeps
    root-fidelity at most 1 - eta from the candidate's rotated EPR state.
    The first candidate is always accepted; ``stop`` names the rule that ended
    the run: ``MAX_REJECTIONS`` consecutive rejections, ``max_size`` members,
    ``max_candidates`` candidates or ``deadline``, when ``deadline_s`` seconds
    have passed at the start of a draw after the first. Deterministic for a
    fixed seed, and with ``deadline_s = 0`` too.

    Candidates are drawn as Gaussian matrices, ``_BLOCK`` at first and then twice
    as many up to ``_DRAW``, and screened on their ``_gram_schmidt`` copies. Each
    member is kept once, as its Gaussian draw, and its complex64 orbit rows live
    in one buffer that doubles when full. One product tests a draw's live
    candidates against ``_BLOCK`` members or against a member accepted from the
    draw, and the candidates it rejects leave the next. ``_within`` screens each
    product in complex64 and keeps its complex128 decision. LAPACK's Q
    (``haar_finish``) is built for all members in one batch at the end, for the
    columns ``_within`` recomputes and the ``_BLOCK`` members whose rows it reads
    there, and for the draws whose Gram-Schmidt kept less than ``GS_FLOOR`` of a
    column's norm.
    """
    m = as_count(m, "m", 1, 2)
    _check_eta(eta)
    size_cap = sys.maxsize if max_size is None else as_count(max_size, "max_size", 1)
    candidate_cap = (sys.maxsize if max_candidates is None
                     else as_count(max_candidates, "max_candidates", 1))
    if deadline_s is not None and not deadline_s >= 0:  # refuses NaN too
        raise ValueError(f"deadline_s must be at least 0, got {deadline_s}")
    end = math.inf if deadline_s is None else time.monotonic() + deadline_s
    rng = np.random.default_rng(seed)
    d, k = 2 ** m, 4 ** m
    bound = (1.0 - eta) * 2 ** m  # on |tr((P U)^dag V)|, exact scaling by 2^m
    rows32 = np.empty((_BLOCK * k, k), dtype=np.complex64)  # the screen's rows of every member
    gauss: list[np.ndarray] = []  # each member's Gaussian draw
    n = candidates = rejections = size = i = 0  # n members; i: the next candidate in the draw
    while rejections < MAX_REJECTIONS and n < size_cap and candidates < candidate_cap:
        if i == size:
            if size and time.monotonic() >= end:
                break
            size, i, tested = min(2 * size, _DRAW) if size else _BLOCK, 0, 0
            z = haar_gaussian(d, rng, size)
            draws, share = _gram_schmidt(z)
            if share.min() < GS_FLOOR:
                low = np.flatnonzero(share < GS_FLOOR)
                draws[low] = haar_finish(z[low])
            flat32 = draws.astype(np.complex64, order="C").reshape(size, k)
            live = np.ones(size, dtype=bool)
        for s in range(tested, n * k, _BLOCK * k):  # rows the draw has not met
            j, e = i + np.flatnonzero(live[i:]), min(s + _BLOCK * k, n * k)
            live[j] = _within(rows32[s:e], flat32[j], bound, 1, lambda near: (
                _orbit_rows(haar_finish(np.array(gauss[s // k:e // k])), m),
                haar_finish(z[j[near]]).reshape(-1, k)))[0]
        tested = n * k
        # the candidates before the next live one are rejected in one step, up to a cap
        dead = next(iter(np.flatnonzero(live[i:])), size - i)
        skip = min(dead, MAX_REJECTIONS - rejections, candidate_cap - candidates)
        candidates, rejections, i = candidates + skip, rejections + skip, i + skip
        if i == size or rejections >= MAX_REJECTIONS or candidates >= candidate_cap:
            continue
        if (n + 1) * k > len(rows32):
            rows32 = np.concatenate((rows32, np.empty_like(rows32)))
        rows32[n * k:(n + 1) * k] = _orbit_rows(draws[i], m)
        gauss.append(z[i].copy())  # a view would keep the whole draw
        candidates, i, n, rejections = candidates + 1, i + 1, n + 1, 0
    stop = ("max_rejections reached" if rejections >= MAX_REJECTIONS
            else "max_size" if n >= size_cap
            else "max_candidates" if candidates >= candidate_cap else "deadline")
    return UnitaryPacking(m, eta, tuple(haar_finish(np.array(gauss))), seed, candidates, stop)


def separation_check(p: UnitaryPacking) -> bool:
    """True iff every cross-orbit pair satisfies the fidelity separation.

    Each block of ``_BLOCK`` members is tested against each later block of
    ``_BLOCK`` members in one product screened by ``_within``, up to the first
    product with a violating pair.
    """
    m = as_count(p.m, "m", 1, 2)
    d, n = 2 ** m, len(p.members)
    members = []
    for i, u in enumerate(p.members):
        if np.shape(u) != (d, d):
            raise ValueError(f"packing members must be {d}x{d} for m={m}, got shape {np.shape(u)}")
        members.append(require_unitary(u, f"packing member {i}"))
    k = d * d
    flat = np.array(members).reshape(n, k)
    flat32 = flat.astype(np.complex64)
    bound = (1.0 - p.eta + SEPARATION_TOL) * d
    for s in range(0, n, _BLOCK):
        rows = _orbit_rows(flat[s:s + _BLOCK].reshape(-1, d, d), m)
        rows32 = rows.astype(np.complex64)
        for t in range(s, n, _BLOCK):
            # member s + i's orbit against member t + j
            cols = flat[t:t + _BLOCK]
            within = _within(rows32, flat32[t:t + _BLOCK], bound, len(rows) // k,
                             lambda near: (rows, cols[near]))
            if t == s:
                within |= np.tri(len(within), dtype=bool)  # keep the pairs j > i
            if not within.all():
                return False
    return True


def net_cardinality_bounds(d: int, eta: float, c: float, big_c: float) -> NetBoundEstimate:
    """Minimal eta-net cardinality bounds (2cd^(1/2)/eta)^(d^2) <= N <=
    (2Cd^(1/2)/eta)^(d^2), reported in log2 to avoid overflow."""
    d = as_count(d, "d", 1)
    if not (eta > 0 and c > 0 and big_c > 0):  # refuses NaN too
        raise ValueError("eta, c, C must be positive")
    if c > big_c:
        raise ValueError(f"lower constant {c} exceeds upper constant {big_c}")
    exponent = d * d
    lo = exponent * math.log2(2 * c * math.sqrt(d) / eta)
    hi = exponent * math.log2(2 * big_c * math.sqrt(d) / eta)
    return NetBoundEstimate(d, eta, c, big_c, lo, hi)


def counting_ratio_log(poly, lam: int, m: int, eta: float) -> float:
    """log2 of the efficient-circuit count over the packing size.

    Evaluates poly(lam) - 2^(2m) * log2(1/eta); a negative
    value certifies that efficient channels are outnumbered at this point.
    """
    m = _pair_count(m)
    _check_eta(eta)
    return float(poly(lam) - (2 ** (2 * m)) * math.log2(1.0 / eta))


def packing_to_dict(p: UnitaryPacking) -> dict:
    return {
        "m": p.m,
        "eta": p.eta,
        "seed": p.seed,
        "members": [matrix_to_dict(u) for u in p.members],
    }


def packing_from_dict(d: dict) -> UnitaryPacking:
    m, seed = as_ints((d["m"], d["seed"]), "m and seed")
    m = as_count(m, "m", 1, 2)
    eta = float(d["eta"])
    _check_eta(eta)
    members = tuple(require_unitary(matrix_from_dict(e, (2 ** m, 2 ** m)), "packing member")
                    for e in d["members"])
    return UnitaryPacking(m, eta, members, seed)
