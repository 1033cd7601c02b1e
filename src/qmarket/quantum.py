"""Finite-dimensional quantum probability: states, events, expectations."""

import numpy as np

from .errors import ValidationError
from .operators import (
    I2,
    SX,
    SY,
    SZ,
    as_hermitian,
    check_matrix,
    hs_inner,
    least_eigenvalue,
)

STATE_TOL = 1e-10
FAITHFUL_EPS = 1e-9


class DensityState:
    """Positive unit-trace operator.

    Violations of positivity or normalization up to STATE_TOL are repaired
    (eigenvalue clipping + renormalization) and flagged via ``repaired``;
    larger violations are rejected.  Instances are immutable, and so is
    ``mat``: it is checked once, here, and read as checked thereafter.
    """

    __slots__ = ("mat", "repaired")

    def __init__(self, mat):
        m = as_hermitian(mat)
        tr = float(np.trace(m).real)
        lam_min = least_eigenvalue(m)
        repaired = False
        if lam_min < -STATE_TOL or abs(tr - 1.0) > STATE_TOL:
            raise ValidationError(
                f"not a state: min eigenvalue {lam_min:.3e}, trace {tr!r}"
            )
        if lam_min < 0 or abs(tr - 1.0) > 0:
            vals, vecs = np.linalg.eigh(m)
            vals = np.clip(vals, 0.0, None)
            s = vals.sum()
            if s <= 0:
                raise ValidationError("state repair failed: zero total mass")
            m2 = (vecs * (vals / s)) @ vecs.conj().T
            repaired = not np.array_equal(m2, m)
            m = 0.5 * (m2 + m2.conj().T)
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "repaired", repaired)

    def __setattr__(self, name, value):
        raise AttributeError("DensityState is immutable")

    @property
    def dim(self):
        return self.mat.shape[0]

    def min_eigenvalue(self):
        return least_eigenvalue(self.mat)

    def bloch_vector(self):
        """(x, y, z) coordinates of a qubit state rho = (I + x sx + y sy + z sz)/2."""
        if self.dim != 2:
            raise ValidationError("Bloch vector is only defined for dim 2")
        return np.array([hs_inner(self.mat, s) for s in (SX, SY, SZ)])

    @classmethod
    def maximally_mixed(cls, dim):
        return cls(np.eye(dim, dtype=complex) / dim)

    @classmethod
    def from_bloch(cls, v):
        v = np.asarray(v, dtype=float)
        return cls(0.5 * (I2 + v[0] * SX + v[1] * SY + v[2] * SZ))


def expectation(rho, x):
    """E_rho(X) = tr(rho X) of a Hermitian X."""
    mat = rho.mat if isinstance(rho, DensityState) else as_hermitian(rho)
    x = as_hermitian(x)
    if mat.shape != x.shape:
        raise ValidationError(f"dimension mismatch: {mat.shape} vs {x.shape}")
    return hs_inner(mat, x)


def event_probability(rho, e):
    """Probability tr(rho E) of the event E, clamped to [0, 1]."""
    p = expectation(rho, e)
    if p < -STATE_TOL or p > 1.0 + STATE_TOL:
        raise ValidationError(f"event probability {p!r} outside [0, 1] tolerance band")
    return min(max(p, 0.0), 1.0)


def is_faithful(rho):
    """True iff all eigenvalues of rho exceed FAITHFUL_EPS."""
    return rho.min_eigenvalue() > FAITHFUL_EPS


def pure_state(u):
    """Rank-one state |u><u| from a unit vector."""
    u = np.asarray(u, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(u) - 1.0) > STATE_TOL:
        raise ValidationError(f"vector is not normalized: ||u|| = {np.linalg.norm(u)!r}")
    return DensityState(np.outer(u, u.conj()))


def dephase(rho, basis):
    """Zero the off-diagonal entries of rho in the given orthonormal basis.

    Bridge to classical probability: expectations of operators diagonal in
    `basis` are unchanged.
    """
    mat = rho.mat if isinstance(rho, DensityState) else as_hermitian(rho)
    u = np.column_stack([np.asarray(b, dtype=complex).reshape(-1) for b in basis])
    check_matrix(u)
    if u.shape[0] != mat.shape[0]:
        raise ValidationError("basis does not span the space")
    if np.abs(u.conj().T @ u - np.eye(u.shape[1])).max() > STATE_TOL:
        raise ValidationError("basis is not orthonormal")
    diag = np.diag(np.diag(u.conj().T @ mat @ u))
    return DensityState(u @ diag @ u.conj().T)
