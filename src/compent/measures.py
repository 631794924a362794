"""Distillation/dilution error functionals and bound certificates.

A certificate never claims an optimum: it packages a witness channel family
together with the rate and error budget it achieves, exactly the "valid
lower/upper bound" reading of the computational measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence


from .circuits import (
    EfficiencyReport,
    KeyedChannelFamily,
    LoccCircuit,
    apply,
    epr_expectation,
    is_efficient,
)
from .states import (
    BipartiteState,
    KeyedStateFamily,
    _pair_count,
    all_keys,
    epr_pairs,
    fidelity,
    g2,
    h_star,
    key_label,
    squashed_trivial_upper,
)

VERIFY_TOL = 1e-9


def _clip01(x: float) -> float:
    return min(1.0, max(0.0, x))


def p_err_distill(g: LoccCircuit, rho: BipartiteState, m: int) -> float:
    """1 - <phi^(x)m| Gamma(rho) |phi^(x)m>."""
    if (g.m_a, g.m_b) != (m, m):
        raise ValueError(f"circuit outputs ({g.m_a}, {g.m_b}), expected ({m}, {m})")
    out = apply(g, rho)
    return _clip01(1.0 - epr_expectation(out, m))


def p_err_dilute(g: LoccCircuit, rho: BipartiteState, n: int) -> float:
    """1 - F(Gamma(Phi^(x)n), rho)."""
    if (g.n_a, g.n_b) != (n, n):
        raise ValueError(f"circuit consumes ({g.n_a}, {g.n_b}), expected ({n}, {n})")
    if (g.m_a, g.m_b) != rho.cut:
        raise ValueError(f"circuit outputs ({g.m_a}, {g.m_b}), target cut is {rho.cut}")
    out = apply(g, epr_pairs(n))
    return _clip01(1.0 - fidelity(out, rho))


@dataclass(frozen=True)
class DistillationCertificate:
    """Claim: m(lam) EPR pairs are extractable from the family with error
    at most epsilon(lam), witnessed by an efficient channel family."""

    family: KeyedStateFamily
    m: Callable[[int], int]
    epsilon: Callable[[int], float]
    witness: KeyedChannelFamily
    name: str = "distillation"


@dataclass(frozen=True)
class DilutionCertificate:
    """Claim: the family is preparable from n(lam) EPR pairs with error at
    most epsilon(lam), witnessed by an efficient channel family."""

    family: KeyedStateFamily
    n: Callable[[int], int]
    epsilon: Callable[[int], float]
    witness: KeyedChannelFamily
    name: str = "dilution"


@dataclass(frozen=True)
class CertificateEntry:
    lam: int
    key: tuple[int, ...] | None
    p_err: float
    epsilon: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "key": None if self.key is None else key_label(self.key),
            "p_err": self.p_err,
            "epsilon": self.epsilon,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class CertificateReport:
    name: str
    entries: tuple[CertificateEntry, ...]
    efficiency: EfficiencyReport

    @property
    def passed(self) -> bool:
        return self.efficiency.passed and all(e.passed for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "certificate": self.name,
            "lambdas": [e.to_dict() for e in self.entries],
            "efficiency": self.efficiency.to_dict(),
            "pass": self.passed,
        }


def _verify_certificate(cert, lambdas, size, p_err) -> CertificateReport:
    """Evaluate ``p_err(witness, state, size(lam))`` for every lambda and
    every key against epsilon(lam), plus the gate budget."""
    if not lambdas:
        raise ValueError("need at least one lambda")
    entries = []
    for lam in lambdas:
        eps = float(cert.epsilon(lam))
        for key in all_keys(cert.family.kappa(lam)):
            err = p_err(cert.witness.circuit(lam, key), cert.family.state(lam, key), size(lam))
            entries.append(CertificateEntry(lam, key or None, err, eps, err <= eps + VERIFY_TOL))
    return CertificateReport(cert.name, tuple(entries), is_efficient(cert.witness, lambdas))


def verify_distillation_certificate(
    cert: DistillationCertificate, lambdas: Sequence[int]
) -> CertificateReport:
    """Check p_err <= epsilon(lam) for every lambda (and key) and that the
    witness respects its gate budget."""
    return _verify_certificate(cert, lambdas, cert.m, p_err_distill)


def verify_dilution_certificate(
    cert: DilutionCertificate, lambdas: Sequence[int]
) -> CertificateReport:
    """The dilution counterpart of ``verify_distillation_certificate``."""
    return _verify_certificate(cert, lambdas, cert.n, p_err_dilute)


def distillable_upper_via_squashed(rho: BipartiteState, eps: float) -> float:
    """Upper bound on the eps-error one-shot distillable entanglement.

    Uses the trivial-extension value in place of squashed entanglement, which
    keeps the inequality direction:
    (1/(1 - sqrt(eps))) * (I(A;B)/2 + g2(sqrt(eps))).
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    root = math.sqrt(eps)
    return (squashed_trivial_upper(rho) + g2(root)) / (1.0 - root)


ETA_GRID = tuple(i / 100 for i in range(1, 100))


def counterexample_eta_threshold(m: int, eps: float) -> float | None:
    """Smallest grid eta with H*(eta) > 2 (g2(sqrt(eps)) + m sqrt(eps)).

    Any packing separated at such an eta makes a two-state mixture whose
    squashed-type upper bound drops strictly below m; returns None when no
    grid point qualifies.
    """
    m = _pair_count(m)
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    root = math.sqrt(eps)
    rhs = 2.0 * (g2(root) + m * root)
    for eta in ETA_GRID:
        if h_star(eta) > rhs:
            return eta
    return None
