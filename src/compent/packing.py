"""Separated packings on the unitary group under the Frobenius norm.

A packing member U stands for the whole orbit {sigma_X(a) sigma_Z(b) U} of
Pauli-shifted copies; separation is enforced between full orbits, measured
through the root fidelity of the rotated EPR states sqrt(F(Phi_U, Phi_V)) =
|tr(U^dag V)| / 2^m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .linalg import haar_unitary, matrix_from_dict, matrix_to_dict, require_unitary, schatten_norm
from .states import pauli_shift


@dataclass(frozen=True, eq=False)
class UnitaryPacking:
    m: int
    eta: float
    members: tuple[np.ndarray, ...]
    seed: int

    @property
    def d(self) -> int:
        return 2 ** self.m

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
    d = 2 ** m
    if u.shape != (d, d) or v.shape != (d, d):
        raise ValueError(f"operands must be {d}x{d} for m={m}")
    return complex(np.trace(u.conj().T @ v) / d)


def pauli_orbit(v, m: int) -> list[np.ndarray]:
    """All 4^m 'sigma_X(a) sigma_Z(b) V' shifts of a unitary."""
    v = require_unitary(v)
    orbit = []
    for a in product((0, 1), repeat=m):
        for b in product((0, 1), repeat=m):
            orbit.append(pauli_shift(a, b) @ v)
    return orbit


def _orbit_stack(v: np.ndarray, m: int) -> np.ndarray:
    """Stacked adjoints (P V)^dag of the full Pauli orbit of v."""
    return np.stack([p.conj().T for p in pauli_orbit(v, m)])


def max_orbit_overlap(stack: np.ndarray, candidate: np.ndarray, m: int) -> float:
    """max over the orbit of |tr((P U)^dag V)| / 2^m."""
    traces = np.einsum("kij,ji->k", stack, candidate)
    return float(np.max(np.abs(traces)) / 2 ** m)


def separated(stack: np.ndarray, candidate: np.ndarray, m: int, eta: float, tol: float = 0.0) -> bool:
    return max_orbit_overlap(stack, candidate, m) <= 1.0 - eta + tol


def greedy_packing(
    m: int,
    eta: float,
    max_rejections: int = 500,
    seed: int = 0,
    max_size: int | None = None,
) -> UnitaryPacking:
    """Randomized greedy packing of Pauli-orbit-separated unitaries.

    Haar candidates are accepted when every existing member's orbit keeps
    root-fidelity at most 1 - eta from the candidate's rotated EPR state.
    The first candidate is always accepted; construction stops after
    ``max_rejections`` consecutive rejections (or at ``max_size`` members).
    Deterministic for a fixed seed.
    """
    if m > 2:
        raise ValueError("packings are built for m <= 2 (orbit scans stay cheap)")
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    rng = np.random.default_rng(seed)
    members: list[np.ndarray] = []
    stacks: list[np.ndarray] = []
    rejections = 0
    while rejections < max_rejections:
        if max_size is not None and len(members) >= max_size:
            break
        candidate = haar_unitary(2 ** m, rng)
        if all(separated(s, candidate, m, eta) for s in stacks):
            members.append(candidate)
            stacks.append(_orbit_stack(candidate, m))
            rejections = 0
        else:
            rejections += 1
    return UnitaryPacking(m, eta, tuple(members), seed)


def separation_check(p: UnitaryPacking, tol: float = 1e-9) -> bool:
    """True iff every cross-orbit pair satisfies the fidelity separation."""
    stacks = [_orbit_stack(u, p.m) for u in p.members]
    for i in range(len(p.members)):
        for j in range(i + 1, len(p.members)):
            if not separated(stacks[i], p.members[j], p.m, p.eta, tol):
                return False
    return True


def net_cardinality_bounds(d: int, eta: float, c: float, big_c: float) -> NetBoundEstimate:
    """Minimal eta-net cardinality bounds (2cd^(1/2)/eta)^(d^2) <= N <=
    (2Cd^(1/2)/eta)^(d^2), reported in log2 to avoid overflow."""
    if d < 1 or eta <= 0 or c <= 0 or big_c <= 0:
        raise ValueError("d, eta, c, C must be positive")
    if c > big_c:
        raise ValueError(f"lower constant {c} exceeds upper constant {big_c}")
    exponent = d * d
    lo = exponent * math.log2(2 * c * math.sqrt(d) / eta)
    hi = exponent * math.log2(2 * big_c * math.sqrt(d) / eta)
    return NetBoundEstimate(d, eta, c, big_c, lo, hi)


def counting_ratio_log(poly, lam: int, m: int, eta: float, omega_constant: float = 1.0) -> float:
    """log2 of the efficient-circuit count over the packing size.

    Evaluates poly(lam) - omega_constant * 2^(2m) * log2(1/eta); a negative
    value certifies that efficient channels are outnumbered at this point.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    return float(poly(lam) - omega_constant * (2 ** (2 * m)) * math.log2(1.0 / eta))


def packing_to_dict(p: UnitaryPacking) -> dict:
    return {
        "m": p.m,
        "eta": p.eta,
        "seed": p.seed,
        "members": [matrix_to_dict(u) for u in p.members],
    }


def packing_from_dict(d: dict) -> UnitaryPacking:
    m = int(d["m"])
    members = tuple(matrix_from_dict(e, (2 ** m, 2 ** m)) for e in d["members"])
    return UnitaryPacking(m, float(d["eta"]), members, int(d["seed"]))
