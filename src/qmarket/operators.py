"""Dense complex operator algebra on small Hilbert spaces.

Everything here works on plain numpy arrays of shape (d, d) with d <= 64.
Hermitian operators are validated and symmetrized by :func:`as_hermitian`;
the real inner-product geometry of the Hermitian space is exposed through
:func:`hs_inner` and the vectorization pair :func:`herm_to_vec` /
:func:`vec_to_herm`, under which hs_inner becomes the euclidean dot product.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InternalConsistencyError, SolverError, ValidationError

DIM_CAP = 64

HERM_TOL = 1e-12

# the largest entry of a Hermitian operator: below it, the squared Frobenius norm
# of a DIM_CAP x DIM_CAP operator, and every tolerance scaled by it, stay finite
ENTRY_CAP = 1e150

# Pauli basis of 2x2 Hermitian operators
I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def check_matrix(m):
    """Validate a square complex matrix and return it as a complex ndarray.

    Enforces: square, 1 <= dim <= 64, all entries finite.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {a.shape}")
    d = a.shape[0]
    if d < 1 or d > DIM_CAP:
        raise ValidationError(f"dimension {d} outside [1, {DIM_CAP}]")
    if not np.isfinite(a).all():
        raise ValidationError("matrix has non-finite entries")
    return a


def as_hermitian(m):
    """Validate near-Hermiticity and return the symmetrized matrix M/2 + M*/2."""
    a = check_matrix(m)
    big = np.abs(a).max()
    if big > ENTRY_CAP:
        raise ValidationError(f"matrix entry of magnitude {big:.3e} exceeds bound {ENTRY_CAP:.0e}")
    scale = max(1.0, big)
    dev = np.abs(a - a.conj().T).max()
    if dev > HERM_TOL * scale:
        raise ValidationError(
            f"matrix is not Hermitian: max deviation {dev:.3e} exceeds "
            f"{HERM_TOL * scale:.3e}"
        )
    half = 0.5 * a
    return half + half.conj().T


@dataclass(frozen=True)
class SpectralResolution:
    """Distinct eigenvalues (ascending) with their spectral projections."""

    eigenvalues: tuple
    projections: tuple

    @property
    def dim(self):
        return self.projections[0].shape[0]

    def reconstruct(self):
        out = np.zeros_like(self.projections[0])
        for x, e in zip(self.eigenvalues, self.projections):
            out += x * e
        return out


def spectral_decompose(x):
    """Spectral resolution X = sum_j x_j E_j with near-degenerate clustering.

    Eigenvalues within 1e-8 * max(1, |X|_2) of their neighbour are merged
    into a single projection (sum of the eigenprojections of the cluster).
    """
    x = as_hermitian(x)
    try:
        vals, vecs = np.linalg.eigh(x)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"eigensolver failed on matrix with norm {np.linalg.norm(x):.6e}"
        ) from exc
    cluster_tol = 1e-8 * max(1.0, -vals[0], vals[-1])  # |X|_2 from the sorted spectrum
    cuts = [0, *np.flatnonzero(np.diff(vals) > cluster_tol) + 1, len(vals)]
    eigenvalues, projections = [], []
    for i, j in zip(cuts, cuts[1:]):
        proj = vecs[:, i:j] @ vecs[:, i:j].conj().T
        eigenvalues.append(float(np.mean(vals[i:j])))
        projections.append(0.5 * (proj + proj.conj().T))
    return SpectralResolution(tuple(eigenvalues), tuple(projections))


def apply_function(x, g):
    """Operator function calculus g(X) = sum_j g(x_j) E_j."""
    res = spectral_decompose(x)
    out = np.zeros((res.dim, res.dim), dtype=complex)
    for val, proj in zip(res.eigenvalues, res.projections):
        gv = g(val)
        if not np.isfinite(gv):
            raise ValidationError(f"function returned non-finite value at eigenvalue {val}")
        out += gv * proj
    return 0.5 * (out + out.conj().T)


def kron(a, b):
    """np.kron's products over the last two axes, leading axes broadcast (Van Loan 2000)."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    *lead, m, p, n, q = out.shape
    return out.reshape(*lead, m * p, n * q)


def tensor_product(a, b):
    """Kronecker product with the global dimension cap enforced."""
    a = check_matrix(a)
    b = check_matrix(b)
    if a.shape[0] * b.shape[0] > DIM_CAP:
        raise ValidationError(
            f"tensor product dimension {a.shape[0] * b.shape[0]} exceeds cap {DIM_CAP}"
        )
    return kron(a, b)


def hs_inner(a, b):
    """Real trace pairing tr(AB) of two Hermitian operators."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    t = np.trace(a @ b)
    scale = max(1.0, np.linalg.norm(a) * np.linalg.norm(b))
    if abs(t.imag) > 1e-10 * scale:
        raise InternalConsistencyError(
            f"trace pairing has imaginary residue {t.imag:.3e}"
        )
    return float(t.real)


def min_eigenvalue(x):
    """Smallest eigenvalue; X is positive iff this is >= -tol."""
    return least_eigenvalue(as_hermitian(x))


def least_eigenvalue(x):
    """Smallest eigenvalue of an already symmetrised X (``as_hermitian``)."""
    try:
        return float(np.linalg.eigvalsh(x)[0])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"eigensolver failed on matrix with norm {np.linalg.norm(x):.6e}") from exc


# --- real vectorization of the Hermitian space ------------------------------
#
# herm_to_vec maps d x d Hermitian operators isometrically onto R^{d^2}:
# the diagonal, then sqrt(2) * real and sqrt(2) * imag of the upper triangle,
# so that dot(herm_to_vec(A), herm_to_vec(B)) == hs_inner(A, B).  Both maps
# act on the trailing axes, so a stack of operators maps to a stack of rows.

_SQRT2 = np.sqrt(2.0)


@lru_cache(maxsize=None)
def upper_indices(d):
    """Read-only (rows, cols) of the strict upper triangle of a d x d matrix."""
    iu, ju = np.triu_indices(d, k=1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


@lru_cache(maxsize=None)
def _vec_layout(d):
    """Float-view indices and weights of the gathers; 1/sqrt(2) is what complex division uses.

    herm_to_vec gathers ``pick`` from the matrix and scales by ``weight``;
    vec_to_herm gathers ``source`` from the vector into every float of the
    matrix and scales by ``factor``, which is 0 at the diagonal's imaginary
    parts ``imag_diag``.
    """
    iu, ju = upper_indices(d)
    upper, lower = 2 * (iu * d + ju), 2 * (ju * d + iu)
    pick = np.concatenate([2 * (d + 1) * np.arange(d), upper, upper + 1])
    weight = np.concatenate([np.ones(d), np.full(2 * len(iu), _SQRT2)])
    place = np.concatenate([pick, lower, lower + 1])
    source, factor = np.zeros(2 * d * d, dtype=np.intp), np.zeros(2 * d * d)
    source[place] = np.concatenate([np.arange(d * d), np.arange(d, d * d)])
    factor[place] = 1.0 / np.concatenate([weight, weight[d:] * np.repeat([1.0, -1.0], len(iu))])
    return pick, weight, source, factor, 2 * (d + 1) * np.arange(d) + 1


def herm_to_vec(x):
    x = np.ascontiguousarray(x, dtype=complex)
    d = x.shape[-1]
    pick, weight, _, _, _ = _vec_layout(d)
    return x.view(float).reshape(x.shape[:-2] + (2 * d * d,)).take(pick, axis=-1) * weight


def vec_to_herm(v, d):
    v = np.asarray(v, dtype=float)
    size = v.shape[-1] if v.ndim else v.size
    if size != d * d:
        raise ValidationError(f"vector of size {size} is not a dim-{d} Hermitian")
    _, _, source, factor, imag_diag = _vec_layout(d)
    out = v.take(source, axis=-1)  # one gather, no scatter
    out *= factor
    out[..., imag_diag] = 0.0  # +0, where factor 0 may leave -0
    return out.view(complex).reshape(v.shape[:-1] + (d, d))


def pauli_operator(x0, x1, x2, x3):
    """x0*I + x1*sx + x2*sy + x3*sz on C^2."""
    return x0 * I2 + x1 * SX + x2 * SY + x3 * SZ
