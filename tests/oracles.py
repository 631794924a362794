"""Independent reference computations used to pin expected values.

Everything here deliberately avoids the optimized code paths it is used to
check: the circuit oracle builds explicit full-space operators round by
round, the purification oracle works with raw 4-qubit projectors, and the
packing oracle is the per-candidate, per-member greedy loop.  The fidelity
oracle is the fidelity computation with every input check done separately:
each argument scanned on its own, then rho scanned again by its eigensolve.
The gate-step oracle is the simulator's step written with ``np.kron``,
``np.tensordot`` and ``np.moveaxis``, and the ancilla, pinch and pure
partial-trace oracles are the simulator's other moves in that same form.
"""

from itertools import product

import numpy as np

from compent.circuits import CONTROLLED, PINCH, UNITARY, LoccCircuit
from compent.linalg import embed_operator
from compent.states import BipartiteState, DensityMatrix, bipartite_from_matrix

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)

PHI = np.zeros(4, dtype=complex)
PHI[0] = PHI[3] = 1 / np.sqrt(2)

# Raw 2x2 inputs spoiled one way each; trace 1 wherever the spoiling allows.
BAD_INPUTS = {
    "nan-real": np.array([[complex(np.nan, 0.0), 0.0], [0.0, 0.5]]),
    "+inf-imag": np.array([[0.5, complex(0.0, np.inf)], [complex(0.0, -np.inf), 0.5]]),
    "-inf-imag": np.array([[0.5, complex(0.0, -np.inf)], [complex(0.0, np.inf), 0.5]]),
    "non-hermitian": np.array([[0.5, 0.5], [-0.5, 0.5]], dtype=complex),
    "negative-eigenvalue": np.diag([1.0 + 1e-6, -1e-6]).astype(complex),
    "non-square": np.full((2, 3), 1.0 / 3.0, dtype=complex),
}


def kron(*ms):
    out = np.array([[1.0]], dtype=complex)
    for m in ms:
        out = np.kron(out, m)
    return out


def unitary_step_reference(t, u, axes, k=None):
    """Gate ``u`` on the tensor axes ``axes`` of an amplitude tensor ``t``, or,
    given ``k``, of a (2,)*2k density tensor (bra axis i, ket axis k+i)."""
    axes = list(axes)
    if k is not None:
        u = np.kron(u, np.conj(u))
        axes += [k + a for a in axes]
    n = len(axes)
    contracted = np.tensordot(u.reshape((2,) * (2 * n)), t, axes=(list(range(n, 2 * n)), axes))
    return np.moveaxis(contracted, range(n), axes)


def ensure_reference(t, k, f):
    """A (2,)*2k density tensor with f fresh |0> wires appended: the outer
    product with the |0..0><0..0| block, new bras moved after the old bras."""
    block = np.zeros((2,) * (2 * f), dtype=complex)
    block[(0,) * (2 * f)] = 1.0
    return np.moveaxis(np.multiply.outer(t, block), range(2 * k, 2 * k + f), range(k, k + f))


def pinch_reference(t, k, positions):
    """A copy of the (2,)*2k density tensor ``t`` dephased on the wire positions."""
    t = t.copy(order="K")  # keeps the strides of a transposed view
    for p in positions:
        view = np.moveaxis(t, (p, k + p), (0, 1))
        view[0, 1] = 0.0
        view[1, 0] = 0.0
    return t


def pure_trace_out_reference(t, axes):
    """The density tensor of amplitude tensor ``t`` with ``axes`` traced out."""
    return np.tensordot(t, np.conj(t), axes=(list(axes), list(axes)))


def permute(m, perm):
    n = len(perm)
    t = m.reshape((2,) * (2 * n))
    t = np.transpose(t, [*perm, *[n + p for p in perm]])
    return t.reshape(2 ** n, 2 ** n)


def trace_out(m, n, drop):
    drop = sorted(set(drop))
    keep = [q for q in range(n) if q not in drop]
    t = m.reshape((2,) * (2 * n))
    order = keep + drop + [n + q for q in keep] + [n + q for q in drop]
    t = np.transpose(t, order).reshape(2 ** len(keep), 2 ** len(drop), 2 ** len(keep), 2 ** len(drop))
    return np.einsum("abcb->ac", t)


def embed_controlled(u, wires, controls, n):
    c, w = len(controls), len(wires)
    dim_c, dim_w = 2 ** c, 2 ** w
    m = np.eye(dim_c * dim_w, dtype=complex)
    m[(dim_c - 1) * dim_w:, (dim_c - 1) * dim_w:] = u
    return embed_operator(m, tuple(controls) + tuple(wires), n)


def pinch_full(rho, wires, n):
    """Dephase the given wires by summing over projector sandwiches."""
    out = np.zeros_like(rho)
    for bits in range(2 ** len(wires)):
        full = np.eye(2 ** n, dtype=complex)
        for idx, w in enumerate(wires):
            bit = (bits >> (len(wires) - 1 - idx)) & 1
            p = np.zeros((2, 2), dtype=complex)
            p[bit, bit] = 1.0
            full = embed_operator(p, (w,), n) @ full
        out += full @ rho @ full
    return out


def apply_reference(circuit: LoccCircuit, state: BipartiteState) -> BipartiteState:
    """Static full-register simulation of an LOCC circuit."""
    n = circuit.total_qubits
    anc = n - circuit.n_a - circuit.n_b
    rho = np.kron(state.matrix, np.zeros((2 ** anc, 2 ** anc), dtype=complex))
    zero_index = 0  # |0..0> ancilla block
    block = rho.reshape(2 ** (circuit.n_a + circuit.n_b), 2 ** anc,
                        2 ** (circuit.n_a + circuit.n_b), 2 ** anc)
    block[:, zero_index, :, zero_index] = state.matrix
    rho = block.reshape(2 ** n, 2 ** n)
    # current qubit order: A, B, A', C, B'  -> permute to A, A', C, B, B'
    order = (
        list(range(circuit.n_a))
        + [circuit.n_a + circuit.n_b + i for i in range(circuit.t_a + circuit.q)]
        + [circuit.n_a + i for i in range(circuit.n_b)]
        + [circuit.n_a + circuit.n_b + circuit.t_a + circuit.q + i for i in range(circuit.t_b)]
    )
    rho = permute(rho, order)

    c_wires = list(circuit.c_wires)
    for rnd in circuit.rounds:
        for gates in (rnd.alice, rnd.bob):
            for g in gates:
                if g.kind == UNITARY:
                    full = embed_operator(g.matrix, g.wires, n)
                    rho = full @ rho @ full.conj().T
                elif g.kind == CONTROLLED:
                    full = embed_controlled(g.matrix, g.wires, g.controls, n)
                    rho = full @ rho @ full.conj().T
                elif g.kind == PINCH:
                    rho = pinch_full(rho, g.wires, n)
            if c_wires:
                rho = pinch_full(rho, c_wires, n)
    keep = list(circuit.out_a_global) + list(circuit.out_b_global)
    drop = [w for w in range(n) if w not in keep]
    rho = trace_out(rho, n, drop)
    # trace_out keeps ascending order; permute to the requested output order
    kept_sorted = sorted(keep)
    perm = [kept_sorted.index(w) for w in keep]
    rho = permute(rho, perm)
    return bipartite_from_matrix(rho, (circuit.m_a, circuit.m_b))


def purify_branch_oracle(pair: np.ndarray):
    """(p_success, kept pair) for one CNOT-compare purification round.

    Direct projector computation on the two-pair state; independent of the
    circuit machinery.
    """
    rho = np.kron(pair, pair)  # order a1 b1 a2 b2
    rho = permute(rho, [0, 2, 1, 3])  # a1 a2 b1 b2
    u = np.kron(CNOT, CNOT)
    rho = u @ rho @ u.conj().T
    kept = np.zeros((4, 4), dtype=complex)
    p_succ = 0.0
    for outcome in (0, 1):
        p = np.zeros((2, 2), dtype=complex)
        p[outcome, outcome] = 1.0
        proj = kron(I2, p, I2, p)
        sub = proj @ rho @ proj
        p_succ += float(np.trace(sub).real)
        kept += trace_out(sub, 4, [1, 3])
    return p_succ, kept / p_succ


def isotropic_pair(f: float) -> np.ndarray:
    phi = np.outer(PHI, PHI.conj())
    return f * phi + (1 - f) * (np.eye(4, dtype=complex) - phi) / 3.0


def bell_bookkeeping_oracle(f: float):
    """Same branch statistics from Bell-coefficient combinatorics."""
    a, rest = f, (1 - f) / 3.0
    p_succ = (a + rest) ** 2 + (2 * rest) ** 2
    fidelity = (a * a + rest * rest) / p_succ
    return p_succ, fidelity


def haar_single(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar draw: QR of a complex Gaussian matrix, phases fixed by diag(R)."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def orbit_adjoints(u: np.ndarray, m: int) -> np.ndarray:
    """(P U)^dag for the 4^m shifts P = X^a Z^b, each built by explicit krons."""
    out = []
    for a in product((0, 1), repeat=m):
        for b in product((0, 1), repeat=m):
            p = kron(*(np.linalg.matrix_power(X, ai) @ np.linalg.matrix_power(Z, bi)
                       for ai, bi in zip(a, b)))
            out.append((p @ u).conj().T)
    return np.stack(out)


def greedy_packing_reference(m: int, eta: float, max_rejections: int = 500, seed: int = 0,
                             max_size: int | None = None):
    """The greedy packing drawn one candidate at a time and tested one member
    orbit at a time, stopping at the first member that rejects it.

    Returns the members and the number of candidates drawn.
    """
    rng = np.random.default_rng(seed)
    members, stacks = [], []
    candidates = rejections = 0
    while rejections < max_rejections and (max_size is None or len(members) < max_size):
        v = haar_single(2 ** m, rng)
        candidates += 1
        if all(np.max(np.abs(np.einsum("kij,ji->k", s, v))) / 2 ** m <= 1.0 - eta for s in stacks):
            members.append(v)
            stacks.append(orbit_adjoints(v, m))
            rejections = 0
        else:
            rejections += 1
    return members, candidates


def _as_complex(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def _mat(x) -> np.ndarray:
    return x.matrix if isinstance(x, DensityMatrix) else _as_complex(x)


def _psd_sqrt(m) -> np.ndarray:
    m = _as_complex(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("eig_hermitian expects a square matrix")
    if np.max(np.abs(m - m.conj().T)) > 1e-10:
        raise ValueError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(m)
    if vals.min(initial=0.0) < -1e-10:
        raise ValueError(f"matrix is not PSD: min eigenvalue {vals.min()}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity_reference(rho, sigma) -> float:
    """Uhlmann fidelity, the same numpy calls as ``states.fidelity`` on the
    same values, so the two agree bitwise."""
    r, s = _mat(rho), _mat(sigma)
    if r.shape != s.shape:
        raise ValueError(f"dimension mismatch {r.shape} vs {s.shape}")
    root = _psd_sqrt(r)
    core = root @ s @ root
    vals = np.linalg.eigvalsh((core + core.conj().T) / 2.0)
    vals = np.clip(vals, 0.0, None)
    top = vals.max(initial=0.0)
    if top > 0.0:
        vals[vals < top * 1e-12] = 0.0
    f = float(np.sum(np.sqrt(vals)) ** 2)
    return min(f, 1.0) if f <= 1.0 + 1e-9 else f
