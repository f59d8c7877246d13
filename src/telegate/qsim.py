"""Dense unitary value type, gate constants and the register cap.

Conventions fixed here and used by the whole package:

* Qubit 0 is the most significant bit of a computational-basis index
  (big-endian).  For two qubits, index 2 = binary ``10`` means qubit 0
  is |1> and qubit 1 is |0>.
* Gate matrices: ``H = [[1,1],[1,-1]]/sqrt(2)``, ``S = diag(1, i)``,
  ``T = diag(1, exp(i*pi/4))``, ``rz(t) = diag(exp(-it/2), exp(+it/2))``.

The register cap (:func:`max_qubits`) is read from the environment
once per process and enforced in one place, :func:`check_qubits`;
states are evolved and measured only by :mod:`telegate.executor`.

All values are immutable after construction; every operation returns a
new value, so everything here is safe to share between threads.
Entries are complex128 throughout.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np

from ._record import Record, set_field

Array = np.ndarray

_DEFAULT_MAX_QUBITS = 12
_UNITARY_ATOL = 1e-10
BRANCH_PRUNE = 1e-14  # branches below this probability are dropped as dust


@functools.lru_cache(maxsize=None)
def max_qubits() -> int:
    """Register size cap, overridable via the TELEGATE_MAX_QUBITS env var.

    Read once per process: a valid value is kept, and
    ``max_qubits.cache_clear()`` makes the next call read the variable
    again.  An invalid value is never kept, so every call raises."""
    raw = os.environ.get("TELEGATE_MAX_QUBITS")
    if raw is None:
        return _DEFAULT_MAX_QUBITS
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"TELEGATE_MAX_QUBITS must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"TELEGATE_MAX_QUBITS must be >= 1, got {cap}")
    return cap


def check_qubits(n: int, what: str, detail: str = "") -> None:
    """Refuse ``what``, which needs ``n`` qubits, if that exceeds
    :func:`max_qubits`; ``detail`` follows the qubit count in the message."""
    cap = max_qubits()
    if n > cap:
        raise ValueError(f"{what} needs {n} qubits{detail}, exceeding the {cap}-qubit cap")


def _freeze(arr: Array) -> Array:
    arr.flags.writeable = False
    return arr


class UnitaryMatrix(Record):
    """Dense complex unitary of power-of-two dimension.

    Construction rejects matrices whose deviation from U†U = I exceeds
    1e-10 entrywise, non-finite entries, and dimensions beyond the
    register cap.  Equality compares the entries exactly; unitaries are
    unhashable.

    A unitary that :func:`controlled` builds also records the read-only
    matrix of the gate it controls in the private slot ``_controls``,
    which is None for every other unitary: the verifier's choice of
    basis reads it.  It is not a field: equality and ``repr`` ignore it,
    and a copy or pickle is rebuilt through the constructor, which
    records None.  Such a unitary fills ``matrix`` on its first read,
    since the verifier never reads it over the basis {I, V}: ``dim``,
    ``n_qubits`` and ``repr`` come from the recorded gate, and the first
    read publishes the matrix only once it is filled and read-only, so
    threads that race to it each get the same entries.
    """

    __slots__ = ("matrix", "_controls")
    _fields = ("matrix",)

    def __init__(self, matrix: Array):
        m = np.asarray(matrix, dtype=np.complex128).copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"unitary must be square, got shape {m.shape}")
        dim = m.shape[0]
        if dim <= 0 or dim & (dim - 1):
            raise ValueError(f"unitary dimension must be a power of two, got {dim}")
        check_qubits(dim.bit_length() - 1, "unitary")
        if not np.isfinite(m.view(np.float64)).all():
            raise ValueError("unitary entries must be finite")
        defect = np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()
        if defect > _UNITARY_ATOL:
            raise ValueError(f"matrix is not unitary: max |U†U - I| = {defect:.3e}")
        Record.__init__(self, _freeze(m))
        set_field(self, "_controls", None)

    def __getattr__(self, name: str) -> Array:
        # Called only when the usual lookup fails: for ``matrix``, on the
        # first read of a unitary that controlled() built.
        if name != "matrix":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        m = _controlled_block(self._controls)
        set_field(self, "matrix", m)
        return m

    @property
    def dim(self) -> int:
        u = self._controls
        return self.matrix.shape[0] if u is None else 2 * len(u)

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1

    def adjoint(self) -> "UnitaryMatrix":
        return UnitaryMatrix(self.matrix.conj().T)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnitaryMatrix):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    def __repr__(self) -> str:
        return f"UnitaryMatrix(dim={self.dim})"


def _unchecked(m: Array) -> UnitaryMatrix:
    """The unitary of the complex128 array ``m``, which is frozen in place,
    built without the constructor's checks (its shape, the cap, its
    unitarity) or its copy: for matrices unitary by construction, which
    the caller hands over."""
    gate = object.__new__(UnitaryMatrix)
    Record.__init__(gate, _freeze(m))
    set_field(gate, "_controls", None)
    return gate


# Fixed single-qubit gates, exact by construction: built without reading
# the cap, so that an invalid TELEGATE_MAX_QUBITS cannot break the import.
I2 = _unchecked(np.eye(2, dtype=np.complex128))
X = _unchecked(np.array([[0, 1], [1, 0]], dtype=np.complex128))
Y = _unchecked(np.array([[0, -1j], [1j, 0]]))
Z = _unchecked(np.array([[1, 0], [0, -1]], dtype=np.complex128))
H = _unchecked((np.array([[1, 1], [1, -1]]) / math.sqrt(2)).astype(np.complex128))
S = _unchecked(np.diag([1, 1j]))
T = _unchecked(np.diag([1, np.exp(1j * math.pi / 4)]))


def identity(dim: int) -> UnitaryMatrix:
    return UnitaryMatrix(np.eye(dim))


def rx(theta: float) -> UnitaryMatrix:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return UnitaryMatrix(np.array([[c, -1j * s], [-1j * s, c]]))


def ry(theta: float) -> UnitaryMatrix:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return UnitaryMatrix(np.array([[c, -s], [s, c]]))


def rz(theta: float) -> UnitaryMatrix:
    return UnitaryMatrix(np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]))


def phase(phi: float) -> UnitaryMatrix:
    return UnitaryMatrix(np.diag([1.0, np.exp(1j * phi)]))


def kron(a: UnitaryMatrix, b: UnitaryMatrix) -> UnitaryMatrix:
    """Kronecker product; the left factor holds the more significant qubits."""
    check_qubits(a.n_qubits + b.n_qubits, "kron result")
    return UnitaryMatrix(np.kron(a.matrix, b.matrix))


def controlled(u: UnitaryMatrix) -> UnitaryMatrix:
    """Block matrix diag(I, U): apply ``u`` when the control qubit is |1>.

    The control is the first (most significant) tensor factor of the result.
    The result is not checked again: diag(I, U)†diag(I, U) - I is
    diag(0, U†U - I), so its unitarity defect is exactly that of ``u``,
    which passed the check when it was built.  The result records
    ``u.matrix`` as its ``_controls`` and fills its own matrix on first
    read (see :class:`UnitaryMatrix`).

    >>> cx = controlled(X)
    >>> cx, cx.n_qubits
    (UnitaryMatrix(dim=4), 2)
    >>> cx.matrix.real.astype(int).tolist()
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    >>> cx == UnitaryMatrix(cx.matrix), cx.matrix.flags.writeable
    (True, False)
    """
    check_qubits(u.n_qubits + 1, "controlled gate")
    gate = object.__new__(UnitaryMatrix)
    set_field(gate, "_controls", u.matrix)
    return gate


def _controlled_block(u: Array) -> Array:
    """The read-only matrix diag(I, u)."""
    d = len(u)
    block = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    block.reshape(-1)[: 2 * d * d : 2 * d + 1] = 1  # the diagonal of the I block
    block[d:, d:] = u
    return _freeze(block)


def haar_random_unitary(dim: int, rng: np.random.Generator | int | None = None) -> UnitaryMatrix:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    g = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    z = g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return UnitaryMatrix(q * (d / np.abs(d)))

