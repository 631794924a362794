"""Dense complex matrix kernel for matrices on qubits.

Index convention used throughout the package: qubits are numbered left to
right and qubit 0 is the most significant bit of a row/column index.  A
matrix acting on qubits ``(0, .., n-1)`` therefore has dimension ``2**n``
and the basis state ``|b_0 b_1 .. b_{n-1}>`` sits at row
``sum(b_i * 2**(n-1-i))``.
"""

from __future__ import annotations

import operator
from functools import wraps
from typing import Sequence

import numpy as np
# what np.linalg.eigh/eigvalsh call, by these names and signatures from numpy 1.24 through 2.x
from numpy.linalg import _umath_linalg

QUBIT_CAP = 14          # hard limit on dense simulation size
HERMITIAN_TOL = 1e-10   # entrywise |m - m^dag| tolerance
PSD_FLOOR = -1e-10      # eigenvalues in [PSD_FLOOR, 0) are treated as 0
UNITARY_TOL = 1e-9
HERMITIAN_BAND = 64     # rows per band of hermitian_gap


class SizeLimitError(ValueError):
    """An input lies outside a capped range: the dense-simulation qubit cap or a count's cap."""


def as_complex(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if not np.isfinite(m).all():  # a complex entry is finite iff both parts are
        raise ValueError("matrix entries must be finite")
    return m


def as_square(m, what: str) -> np.ndarray:
    """``m`` through ``as_complex``; anything but a non-empty square matrix raises ValueError."""
    m = as_complex(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise ValueError(f"{what} must be a non-empty square matrix, got shape {m.shape}")
    return m


def as_hermitian(m, what: str) -> np.ndarray:
    """``m`` through ``as_square``; a matrix not Hermitian within ``HERMITIAN_TOL`` raises ValueError."""
    m = as_square(m, what)
    if hermitian_gap(m) > HERMITIAN_TOL:
        raise ValueError(f"{what} is not Hermitian within tolerance")
    return m


def read_only(m: np.ndarray) -> np.ndarray:
    """``m`` made read-only: in place when it owns its data, else as a copy in
    its memory order, since a view's base stays writable."""
    if not m.flags.owndata:
        m = np.array(m)
    m.flags.writeable = False
    return m


def as_ints(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints; a non-integer entry raises ValueError."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} {values!r} must be integers") from None


def as_count(n, what: str, lo: int, hi: int | None = None) -> int:
    """``n`` as a plain int in ``lo..hi``, or at least ``lo`` when ``hi`` is None.  A non-integer
    raises ValueError; out of range raises SizeLimitError when capped, else ValueError."""
    (n,) = as_ints((n,), what)
    if hi is not None and not lo <= n <= hi:
        raise SizeLimitError(f"{what} must lie in {lo}..{hi}, got {n}")
    if n < lo:
        raise ValueError(f"{what} must be at least {lo}, got {n}")
    return n


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with ``a``'s indices most significant."""
    a, b = as_complex(a), as_complex(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"tensor product expects matrices, got shapes {a.shape} and {b.shape}")
    cap = 2 ** QUBIT_CAP
    if a.shape[0] * b.shape[0] > cap or a.shape[1] * b.shape[1] > cap:
        raise SizeLimitError(
            f"tensor product exceeds the {QUBIT_CAP}-qubit cap: "
            f"{a.shape} x {b.shape}"
        )
    return kron(a, b)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices as its one multiply (bitwise equal), minus its shape work."""
    (p, q), (r, s) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * s)


def marginal(m: np.ndarray, n_qubits: int, keep: Sequence[int]) -> np.ndarray:
    """The matrix on qubits ``keep``, in that order, with the rest traced out.

    ``m`` may also be given as its ``(2,) * 2n`` tensor.  With nothing traced
    out the result is an exact reordered copy, signed zeros included.
    """
    keep = list(keep)
    if len(set(keep)) != len(keep) or any(q < 0 or q >= n_qubits for q in keep):
        raise ValueError(f"qubit positions {keep} are not distinct positions of {n_qubits} qubits")
    order = keep + [q for q in range(n_qubits) if q not in keep]
    t = np.transpose(m.reshape((2,) * (2 * n_qubits)), order + [n_qubits + q for q in order])
    k, d = 2 ** len(keep), 2 ** (n_qubits - len(keep))
    if d == 1:
        return t.reshape(k, k)
    return np.einsum("abcb->ac", t.reshape(k, d, k, d))


def schatten_norm(m, p) -> float:
    """Schatten p-norm (sum of singular values to the p, to the 1/p)."""
    m = as_square(m, "schatten_norm's input")
    if not (p == np.inf or p >= 1):
        raise ValueError(f"order p must be >= 1 or inf, got {p}")
    sv = np.linalg.svd(m, compute_uv=False)
    if p == np.inf:
        return float(sv.max(initial=0.0))
    return float(np.sum(sv ** p) ** (1.0 / p))


def hermitian_gap(m: np.ndarray) -> np.floating:
    """``np.abs(m - m.conj().T).max()`` of a square matrix, bit for bit.  From
    two ``HERMITIAN_BAND`` bands up, each row band meets its column band over
    the upper triangle only, in cache: |d_ij| = |d_ji| holds exactly in floating point."""
    b = HERMITIAN_BAND
    if len(m) < 2 * b:  # short of two full bands, the plain expression is faster
        return np.abs(m - m.conj().T).max()
    return np.max([np.abs(m[i:i + b, i:] - m[i:, i:i + b].conj().T).max() for i in range(0, len(m), b)])


def eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of a complex matrix, bit for bit: ascending eigenvalues and
    eigenvector columns.  A NaN spectrum (LAPACK did not converge) raises LinAlgError."""
    vals, vecs = _umath_linalg.eigh_lo(m, signature="D->dD")
    return _converged(vals), vecs


def eigvalsh(m: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh`` of a complex matrix, bit for bit, ascending; as ``eigh``."""
    return _converged(_umath_linalg.eigvalsh_lo(m, signature="D->d"))


def _converged(vals: np.ndarray) -> np.ndarray:
    if vals[0] != vals[0]:  # LAPACK's failure fills the whole spectrum with NaN
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return vals


def eig_hermitian(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    return eigh(as_hermitian(m, "matrix"))


def psd_sqrt(m) -> np.ndarray:
    """Principal square root of a positive semidefinite matrix."""
    vals, vecs = eig_hermitian(m)
    if vals[0] < PSD_FLOOR:  # eigh sorts them ascending
        raise ValueError(f"matrix is not PSD: min eigenvalue {vals[0]}")
    vals = np.maximum(vals, 0.0)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def require_unitary(m, what: str = "matrix", dim: int | None = None) -> np.ndarray:
    m = as_square(m, what)
    if dim is not None and len(m) != dim:
        raise ValueError(f"{what} of shape {m.shape} is not {dim}x{dim}")
    # "not <=" refuses a NaN residual too
    if not (np.abs(m.conj().T @ m - np.eye(m.shape[0])).max() <= UNITARY_TOL):
        raise ValueError(f"{what} is not unitary within {UNITARY_TOL}")
    return m


def embed_operator(op: np.ndarray, wires: Sequence[int], n_qubits: int) -> np.ndarray:
    """Embed an operator on the given wires into the full ``2**n`` space."""
    wires = list(wires)
    k = len(wires)
    if op.shape != (2 ** k, 2 ** k):
        raise ValueError(f"operator shape {op.shape} does not match {k} wires")
    order = wires + [q for q in range(n_qubits) if q not in wires]  # qubit order of full
    full = kron(op, np.eye(2 ** (n_qubits - k), dtype=complex))
    return marginal(full, n_qubits, [order.index(q) for q in range(n_qubits)])


def matrix_to_dict(m: np.ndarray) -> dict:
    """Row-major real and imaginary parts; floats round-trip exactly through json."""
    return {"re": m.real.reshape(-1).tolist(), "im": m.imag.reshape(-1).tolist()}


def matrix_from_dict(d: dict, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of ``matrix_to_dict`` for a matrix of the given shape, signed zeros
    included; the result owns its data, so ``read_only`` freezes it without a copy."""
    m = np.empty(shape, dtype=complex)
    m.real, m.imag = (np.asarray(d[k], dtype=float).reshape(shape) for k in ("re", "im"))
    return m


def _loader(load):
    """``load`` with a missing field's KeyError raised as a ValueError that names the field."""
    @wraps(load)
    def checked(d):
        try:
            return load(d)
        except KeyError as exc:
            raise ValueError(f"{load.__name__}: missing field {exc.args[0]!r}") from None
    return checked


def haar_unitary(dim: int, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    With ``count`` it returns a ``(count, dim, dim)`` stack, bitwise equal to
    ``count`` single draws from the same generator.  It is
    ``haar_finish(haar_gaussian(dim, rng, count))``.
    """
    q = haar_finish(haar_gaussian(dim, rng, 1 if count is None else count))
    return q[0] if count is None else q


def haar_gaussian(dim: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` complex Gaussian ``dim x dim`` matrices: the draw behind ``haar_unitary``.

    Each matrix takes ``2 dim^2`` consecutive normals, so one stack of ``a + b``
    equals a stack of ``a`` followed by a stack of ``b``.
    """
    g = rng.standard_normal((count, 2, dim, dim))
    z = g[:, 0] + 1j * g[:, 1]
    z /= np.sqrt(2.0)
    return z


def haar_finish(z: np.ndarray) -> np.ndarray:
    """The Haar unitaries of a stack of Gaussian matrices: LAPACK's QR with R's
    diagonal phases moved into Q.  Each matrix's Q is bitwise the same inside
    any sub-stack of ``z``."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]
