"""Density matrices, EPR resources, and entropy functionals.

All entropies are in bits (base-2 logarithms) with the convention
``0 * log 0 = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import wraps
from itertools import accumulate, product
from typing import Callable, Sequence

import numpy as np

from .linalg import (
    PSD_FLOOR,
    _loader,
    as_count,
    as_hermitian,
    as_ints,
    eigvalsh,
    haar_unitary,
    kron,
    marginal,
    matrix_from_dict,
    matrix_to_dict,
    psd_sqrt,
    read_only,
    require_unitary,
    tensor_product,
)

TRACE_TOL = 1e-9
NORM_TOL = 1e-10
# The public constructor checks the full spectrum only up to this dimension;
# above it an eigensolve costs more than the rest of a typical call, so a
# larger input is checked for finiteness, shape, Hermiticity and trace only.
PSD_CHECK_DIM = 256
SHARED_ENTRIES = 64 * 64  # per array of a kept ``shared`` result: 3 EPR pairs, not 7 (4 GiB)
KEY_LENGTH_CAP = 16  # all_keys' longest list: 2^16 key tuples, about 11 MiB


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A density matrix split into registers of ``cut[i]`` qubits each, most
    significant first: (A, B) for a bipartite state, (A, B, E) for a
    tripartite one."""

    matrix: np.ndarray
    cut: tuple[int, ...]

    def __post_init__(self):
        cut = as_ints(self.cut, "cut")
        if any(c < 1 for c in cut):
            raise ValueError(f"every register of cut {cut} must hold at least one qubit")
        object.__setattr__(self, "cut", cut)
        m = as_hermitian(self.matrix, "density matrix")
        if m.shape != (2 ** sum(cut),) * 2:
            raise ValueError(f"matrix shape {m.shape} does not match cut {cut}")
        tr = m.trace().real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} is not 1")
        if m.shape[0] <= PSD_CHECK_DIM:
            low = eigvalsh(m)[0]
            if low < PSD_FLOOR:
                raise ValueError(f"density matrix has negative eigenvalue {low}")
        object.__setattr__(self, "matrix", read_only(m))

    @classmethod
    def _trusted(cls, matrix: np.ndarray, cut: tuple[int, ...]) -> "DensityMatrix":
        """A state built from checked inputs by a map that keeps states states; no checks."""
        s = object.__new__(cls)
        matrix.flags.writeable = False
        object.__setattr__(s, "matrix", matrix)
        object.__setattr__(s, "cut", tuple(map(int, cut)))  # plain ints, as checked cuts hold
        return s

    @property
    def n_a(self) -> int:
        return self.cut[0]

    @property
    def n_b(self) -> int:
        return self.cut[1]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def reduce(self, keep: Sequence[int]) -> "DensityMatrix":
        """The state on the registers ``keep``, in that order, with the rest
        traced out."""
        if any(not 0 <= r < len(self.cut) for r in keep):
            raise ValueError(f"register indices {keep} out of range for cut {self.cut}")
        wires = _register_wires(self.cut, keep)
        return DensityMatrix._trusted(marginal(self.matrix, sum(self.cut), wires),
                                      tuple(self.cut[r] for r in keep))

    def reduced_a(self) -> "DensityMatrix":
        return self.reduce((0,))

    def reduced_b(self) -> "DensityMatrix":
        return self.reduce((1,))


# The A:B name of the one state class.
BipartiteState = DensityMatrix


def _register_wires(cut: tuple[int, ...], keep: Sequence[int]) -> list[int]:
    """The qubit positions of the registers ``keep`` of ``cut``, in that order."""
    starts = list(accumulate(cut, initial=0))
    return [q for r in keep for q in range(starts[r], starts[r + 1])]


@dataclass(frozen=True)
class KeyedStateFamily:
    """Key-indexed family; keys are bit tuples of length kappa(lam)."""

    kappa: Callable[[int], int]
    generator: Callable[[int, tuple[int, ...]], BipartiteState]

    def state(self, lam: int, key: tuple[int, ...] = ()) -> BipartiteState:
        return self.generator(lam, _check_key(key, self.kappa(lam)))


class StateFamily(KeyedStateFamily):
    """The one-shot family: the kappa = 0 keyed family, whose one key is the empty key."""

    def __init__(self, generator: Callable[[int], BipartiteState]):
        super().__init__(lambda lam: 0, lambda lam, key: generator(lam))


def _check_key(key: tuple[int, ...], kappa: int) -> tuple[int, ...]:
    """``key``, refused unless it is a bit string of length ``kappa``."""
    if len(key) != kappa or any(b not in (0, 1) for b in key):
        raise ValueError(f"key {key} is not a bit string of length {kappa}")
    return key


def all_keys(kappa: int) -> list[tuple[int, ...]]:
    """All bit tuples of length kappa, in lexicographic order."""
    kappa = as_count(kappa, "key length", 0, KEY_LENGTH_CAP)
    return list(product((0, 1), repeat=kappa))


def key_label(*keys: tuple[int, ...]) -> str:
    """The report form of one or more keys: their bits, keys split by ``|``."""
    return "|".join("".join(map(str, k)) for k in keys)


def shared(build):
    """``build`` run once per distinct arguments, told apart by type too (``1.0``
    is not ``1``): every later call returns that one object, unless an array
    of it has more than ``SHARED_ENTRIES`` entries (a circuit's gate payloads
    hold at most 16).  Every array of a result is read-only.  Unhashable
    arguments are built afresh, so ``build`` refuses them as it always did;
    its errors are never kept."""
    built: dict = {}

    @wraps(build)
    def memo(*args, **kwargs):
        key = (*((type(a), a) for a in args), *((k, type(v), v) for k, v in kwargs.items()))
        try:
            out = built.get(key)
        except TypeError:
            return build(*args, **kwargs)
        if out is None:
            out = build(*args, **kwargs)
            a = getattr(out, "matrix", out)  # a state's matrix, an array, or a circuit
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
            if getattr(a, "size", 0) <= SHARED_ENTRIES:  # a racing thread's build is dropped
                out = built.setdefault(key, out)
        return out
    return memo


def bipartite_pure(amplitudes, cut: tuple[int, int]) -> BipartiteState:
    """The pure state with the given unit-norm amplitudes."""
    return bipartite_from_matrix(_projector(np.asarray(amplitudes, dtype=complex).reshape(-1)), cut)


def _projector(v: np.ndarray) -> np.ndarray:  # |v><v|, exactly Hermitian
    if abs(np.linalg.norm(v) - 1.0) > NORM_TOL:
        raise ValueError("state vector is not normalized")
    return np.outer(v, v.conj())


def _bipartite_cut(cut: tuple[int, ...]) -> tuple[int, ...]:
    if len(cut) != 2:
        raise ValueError(f"a bipartite cut has two registers, got {cut}")
    return cut


def bipartite_from_matrix(matrix, cut: tuple[int, int]) -> BipartiteState:
    return DensityMatrix(matrix, _bipartite_cut(cut))


def epr_vector(n: int) -> np.ndarray:
    """Amplitudes of n EPR pairs, all A qubits before all B qubits."""
    d = 2 ** n
    return np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d)  # 1 / sqrt(d) at x*d + x


def _pair_count(n) -> int:
    """``n`` as a number of EPR pairs, 1 to 7; checked before anything is built."""
    return as_count(n, "pair count", 1, 7)


@shared
def epr_pairs(n: int) -> BipartiteState:
    """n EPR pairs on cut (n, n); pair i spans A-qubit i and B-qubit i."""
    n = _pair_count(n)
    return DensityMatrix._trusted(_projector(epr_vector(n)), (n, n))


def rotated_epr(u, m: int) -> BipartiteState:
    """EPR pairs with a unitary applied to Bob's half: (I (x) U) |phi^(x)m>."""
    m = _pair_count(m)
    d = 2 ** m
    u = require_unitary(u, "rotation", d)
    v = (u.T.reshape(-1)) / math.sqrt(d)  # v[x*d + y] = u[y, x] / sqrt(d)
    return DensityMatrix._trusted(_projector(v), (m, m))


def pauli_shift(a, b) -> np.ndarray:
    """Product of per-qubit X powers then Z powers, sigma_X(a) sigma_Z(b)."""
    a, b = _bits(a), _bits(b)
    if len(a) != len(b):
        raise ValueError(f"bit strings must have equal length, got {len(a)} and {len(b)}")
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    out = np.array([[1]], dtype=complex)
    for ai, bi in zip(a, b):
        factor = np.eye(2, dtype=complex)
        if ai:
            factor = x @ factor
        if bi:
            factor = factor @ z
        out = kron(out, factor)
    return out


def _bits(bits) -> tuple[int, ...]:
    bits = as_ints([int(c) for c in bits] if isinstance(bits, str) else bits, "bit string")
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"{bits} is not a bit string")
    return bits


def _mat(x, what: str) -> np.ndarray:
    return x.matrix if isinstance(x, DensityMatrix) else as_hermitian(x, what)


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity ||sqrt(rho) sqrt(sigma)||_1^2.

    Computed from the ``linalg.eigvalsh`` spectrum of sqrt(rho) sigma sqrt(rho).  Negative
    eigenvalue noise is clipped to zero, and eigenvalues below 1e-12 of the
    largest one are dropped: the square root would otherwise amplify
    O(machine epsilon) rank noise into O(1e-8) fidelity error.  ``psd_sqrt``
    is the one check of rho (finite, square, Hermitian, PSD).  A raw sigma
    goes through ``as_hermitian``, and any sigma must keep that spectrum above
    ``PSD_FLOOR`` before the clipping: on rho's support, sigma is PSD.
    """
    s = _mat(sigma, "fidelity's sigma")
    root = psd_sqrt(rho.matrix if isinstance(rho, DensityMatrix) else rho)
    if root.shape != s.shape:
        raise ValueError(f"dimension mismatch {root.shape} vs {s.shape}")
    core = root @ s @ root
    vals = eigvalsh((core + core.conj().T) / 2.0)
    if vals[0] < PSD_FLOOR:  # linalg.eigvalsh sorts them ascending
        raise ValueError(f"fidelity's sigma is not PSD: min eigenvalue {vals[0]} on rho's support")
    vals = np.maximum(vals, 0.0)
    if vals[-1] > 0.0:
        vals[vals < vals[-1] * 1e-12] = 0.0
    f = float(np.sqrt(vals).sum() ** 2)
    return min(f, 1.0) if f <= 1.0 + 1e-9 else f


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of rho - sigma; a raw array must be Hermitian."""
    r, s = _mat(rho, "trace distance's rho"), _mat(sigma, "trace distance's sigma")
    if r.shape != s.shape:
        raise ValueError(f"trace distance needs inputs of one shape: {r.shape}, {s.shape}")
    vals = eigvalsh(r - s)
    return float(0.5 * np.abs(vals).sum())


def von_neumann_entropy(rho) -> float:
    """-sum(p log2 p) over a spectrum held to ``PSD_FLOOR``, with 0 log 0 = 0."""
    vals = eigvalsh(_mat(rho, "entropy's rho"))
    if vals[0] < PSD_FLOOR:  # linalg.eigvalsh sorts them ascending
        raise ValueError(f"entropy's rho is not PSD: min eigenvalue {vals[0]}")
    vals = vals[vals > 1e-15]
    return float(-np.sum(vals * np.log2(vals)))


def conditional_mutual_information(rho: DensityMatrix) -> float:
    """I(A;B|E) = H(AE) + H(BE) - H(ABE) - H(E) for a state on cut (A, B, E)."""
    if len(rho.cut) != 3:
        raise ValueError(f"conditional mutual information needs a cut (A, B, E), got {rho.cut}")
    h_ae = von_neumann_entropy(rho.reduce((0, 2)))
    h_be = von_neumann_entropy(rho.reduce((1, 2)))
    h_abe = von_neumann_entropy(rho)
    h_e = von_neumann_entropy(rho.reduce((2,)))
    value = h_ae + h_be - h_abe - h_e
    if value < -1e-9:
        raise ValueError(f"conditional mutual information {value} is negative")
    return max(value, 0.0)


def squashed_trivial_upper(rho: BipartiteState) -> float:
    """Half the mutual information I(A;B); the trivial-extension upper bound
    on squashed entanglement."""
    _bipartite_cut(rho.cut)
    h_a = von_neumann_entropy(rho.reduced_a())
    h_b = von_neumann_entropy(rho.reduced_b())
    h_ab = von_neumann_entropy(rho)
    return 0.5 * (h_a + h_b - h_ab)


def binary_mixture_entropy(x: float) -> float:
    """Entropy of an equal mixture of two pure states with overlap magnitude x.

    Equals 1 - (1-x)/2 log2(1-x) - (1+x)/2 log2(1+x); the mixture eigenvalues
    are (1 +- x)/2.
    """
    if not 0.0 <= x < 1.0:
        raise ValueError(f"overlap magnitude must lie in [0, 1), got {x}")
    return 1.0 - 0.5 * (1.0 - x) * math.log2(1.0 - x) - 0.5 * (1.0 + x) * math.log2(1.0 + x)


def h_star(eta: float) -> float:
    """1 - eta/2 log2(eta) - (2-eta)/2 log2(2-eta); equals
    binary_mixture_entropy(1 - eta)."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    t1 = 0.0 if eta == 0.0 else eta * math.log2(eta)
    t2 = (2.0 - eta) * math.log2(2.0 - eta)
    return 1.0 - 0.5 * t1 - 0.5 * t2


def g2(delta: float) -> float:
    """(delta+1) log2(delta+1) - delta log2(delta), continuous at 0."""
    if not delta >= 0.0:  # refuses NaN too
        raise ValueError(f"delta must be nonnegative, got {delta}")
    if delta == 0.0:
        return 0.0
    return (delta + 1.0) * math.log2(delta + 1.0) - delta * math.log2(delta)


def mixture(states: Sequence[BipartiteState], p: Sequence[float]) -> BipartiteState:
    """Convex combination of bipartite states with matching cuts."""
    if len(states) != len(p) or not states:
        raise ValueError("need one weight per state")
    weights = np.asarray(p, dtype=float)
    if not (np.all(weights >= 0) and abs(weights.sum() - 1.0) <= 1e-12):  # refuses NaN too
        raise ValueError(f"weights {p} are not a probability vector")
    cut = states[0].cut
    if len(cut) != 2 or any(s.cut != cut for s in states):
        raise ValueError("all states must share one bipartite cut")
    acc = np.zeros_like(states[0].matrix)
    for w, s in zip(weights, states):
        acc = acc + w * s.matrix
    return DensityMatrix._trusted(acc, cut)


def tensor_states(s1: BipartiteState, s2: BipartiteState) -> BipartiteState:
    """Bipartite tensor product: A parts concatenate, B parts concatenate."""
    cut = _bipartite_cut(s1.cut) + _bipartite_cut(s2.cut)  # qubit order A1 B1 A2 B2
    m = marginal(tensor_product(s1.matrix, s2.matrix), sum(cut), _register_wires(cut, (0, 2, 1, 3)))
    return DensityMatrix._trusted(m, (s1.n_a + s2.n_a, s1.n_b + s2.n_b))


def conjugate_local(s: BipartiteState, u_a, u_b) -> BipartiteState:
    """Apply a local unitary U_A (x) U_B, sized to the cut, to a bipartite state."""
    n_a, n_b = _bipartite_cut(s.cut)
    u = kron(require_unitary(u_a, "U_A", 2 ** n_a), require_unitary(u_b, "U_B", 2 ** n_b))
    return DensityMatrix._trusted(u @ s.matrix @ u.conj().T, s.cut)


def random_pure_state(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random state vector on n qubits."""
    return haar_unitary(2 ** n_qubits, rng)[:, 0]


def column_unitary(vec: np.ndarray) -> np.ndarray:
    """A unitary whose first column is the unit vector ``vec``; as a gate it
    prepares ``vec`` from |0..0>."""
    m = np.eye(vec.shape[0], dtype=complex)
    m[:, 0] = vec
    q, r = np.linalg.qr(m)
    return q * (r[0, 0] / abs(r[0, 0]))


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random mixed state from the induced (Ginibre) measure."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def state_to_dict(s: BipartiteState) -> dict:
    """JSON-ready form; floats round-trip exactly through json."""
    m = s.matrix
    return {
        "dims": list(m.shape),
        "cut": list(s.cut),
        **matrix_to_dict(m),
    }


@_loader
def state_from_dict(d: dict) -> BipartiteState:
    return bipartite_from_matrix(matrix_from_dict(d, as_ints(d["dims"], "dims")), tuple(d["cut"]))
