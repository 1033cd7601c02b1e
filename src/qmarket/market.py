"""Filtered operator algebras, markets, trading strategies, and gains.

A market is a bank account plus adapted positive asset operators over a
filtration of unital *-subalgebras.  Trading strategies are per-period
biprocesses sum_k a_k A_k* (.) A_k with coefficients from the previous
algebra; their cumulative action on asset increments is the gain process.

The claims attainable at price zero form the real span K = sum_t K_t with
K_t = span{A* dS_t A : A in A_{t-1}}.  Over a basis A_p of A_{t-1} every
element of K_t is sum_pq h_pq A_p* dS_t A_q for a Hermitian coefficient
matrix h, so K_t is the image of one linear map on Herm(n), rank-revealed
by an SVD.  For factor algebras B(C^m) (x) I_k the map is taken on the
k x k blocks of dS_t, which gives K_t = Herm(M_m) (x) W_t without forming
the pairs.  :class:`AttainableSpace` holds the period bases of K with the
h-matrix preimage of every element and is built once per discounted
market, its orthonormal basis where a projection first reads it.

A state is a martingale state iff it annihilates K, so the attainable space
is also the market's :class:`MartingaleConstraintSet`: it keeps the split of
I against K, which gives replication and tells whether the slice of
martingale states is empty.
"""

import math
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .operators import (
    _SQRT2,
    as_hermitian,
    check_matrix,
    herm_to_vec,
    min_eigenvalue,
    upper_indices,
    vec_to_herm,
)

SPAN_TOL = 1e-9
POSITIVITY_TOL = 1e-10
RANK_TOL = 1e-9


class OperatorAlgebra:
    """Unital *-subalgebra of B(C^d), given by a spanning basis.

    Two representations are supported:

    * ``tensor_factor(m, dim)`` -- the structured algebra B(C^m) (x) I_{dim/m},
      with membership tested structurally and matrix units enumerated lazily.
      ``m = 1`` gives the trivial algebra CI, ``m = dim`` the full algebra.
    * ``from_basis(mats)`` -- an explicit complex-spanning basis, validated and
      kept as an orthonormal frame (``basis``), so its scale does not matter.
    """

    def __init__(self, dim, *, factor_dim=None, frame=None):
        self.dim = int(dim)
        self._factor_dim = factor_dim
        self._frame = frame

    # -- constructors --------------------------------------------------------

    @classmethod
    def tensor_factor(cls, active_dim, dim):
        if not 1 <= active_dim <= dim or dim % active_dim != 0:
            raise ValidationError(f"factor {active_dim} must be in 1..{dim} and divide {dim}")
        return cls(dim, factor_dim=int(active_dim))

    @classmethod
    def trivial(cls, dim):
        return cls.tensor_factor(1, dim)

    @classmethod
    def full(cls, dim):
        return cls.tensor_factor(dim, dim)

    @classmethod
    def from_basis(cls, mats):
        mats = [check_matrix(m) for m in mats]
        if not mats:
            raise ValidationError("empty algebra basis")
        dim = mats[0].shape[0]
        if any(m.shape[0] != dim for m in mats):
            raise ValidationError("algebra basis has mixed dimensions")
        mats = [m / (np.abs(m).max() or 1.0) for m in mats]  # so no norm over- or underflows
        mats = np.array([m / (np.linalg.norm(m) or 1.0) for m in mats])
        u, s, _ = np.linalg.svd(mats.reshape(len(mats), -1).T, full_matrices=False)
        if len(s) < len(mats) or s[-1] <= RANK_TOL * s[0]:
            raise ValidationError("algebra basis is linearly dependent")
        alg = cls(dim, frame=u.T.reshape(-1, dim, dim))
        alg._check_explicit(mats)
        return alg

    # -- representation ------------------------------------------------------

    @property
    def is_factor(self):
        return self._factor_dim is not None

    @property
    def factor_dim(self):
        return self._factor_dim

    @cached_property
    def basis(self):
        """Complex-spanning basis: matrix units E_ab (x) I, or the orthonormal frame."""
        if self._frame is not None:
            return list(self._frame)
        m, k = self._factor_dim, self.dim // self._factor_dim
        units = np.eye(m * m, dtype=complex).reshape(-1, m, m)
        return list(np.einsum("pab,ij->paibj", units, np.eye(k)).reshape(-1, self.dim, self.dim))

    def herm_dim(self):
        """Real dimension of the Hermitian part O(A): A = O(A) + i O(A), so dim_C A."""
        return self._factor_dim ** 2 if self.is_factor else len(self._frame)

    # -- membership ----------------------------------------------------------

    def contains(self, x):
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.dim, self.dim):
            return False
        scale = max(1.0, np.linalg.norm(x))
        return self._membership_residual(x) <= SPAN_TOL * scale

    def _membership_residual(self, x):
        if self.is_factor:
            m, k = self._factor_dim, self.dim // self._factor_dim
            # X in B(C^m) (x) I_k  iff  X[a,i,b,j] = delta_ij * Y[a,b]
            t = x.reshape(m, k, m, k)
            y = np.trace(t, axis1=1, axis2=3) / k
            recon = np.einsum("ab,ij->aibj", y, np.eye(k)).reshape(self.dim, self.dim)
            return float(np.linalg.norm(x - recon))
        return float(self._residuals(x[None])[0])

    def _residuals(self, xs):
        """|x - QQ*x| for each operator x in xs, with Q the orthonormal frame."""
        flat, frame = xs.reshape(len(xs), -1), self._frame.reshape(len(self._frame), -1)
        return np.linalg.norm(flat - (flat @ frame.conj().T) @ frame, axis=1)

    def _check_explicit(self, mats):
        """I, and the adjoints and products (norms <= 1) of the unit-norm ``mats``, lie in A."""
        if not self.contains(np.eye(self.dim)):
            raise ValidationError("algebra does not contain the identity")
        bad = np.flatnonzero(self._residuals(mats.conj().transpose(0, 2, 1)) > SPAN_TOL)
        if len(bad):
            raise ValidationError(f"algebra not closed under adjoint (element {bad[0]})")
        for i, a in enumerate(mats):
            bad = np.flatnonzero(self._residuals(a @ mats) > SPAN_TOL)
            if len(bad):
                raise ValidationError(f"algebra not closed under products (elements {i}, {bad[0]})")

    def is_trivial(self):
        # an algebra holds I, so it is CI exactly when it is one-dimensional
        return self.herm_dim() == 1

    def is_subalgebra_of(self, other):
        if self.is_factor and other.is_factor:
            # B(C^a) (x) I lies in B(C^b) (x) I exactly when C^b = C^a (x) C^(b/a)
            return other._factor_dim % self._factor_dim == 0 and self.dim == other.dim
        return all(other.contains(b) for b in self.basis)


class Filtration:
    """Increasing family A_0 subset ... subset A_T with A_0 = CI."""

    def __init__(self, algebras):
        self.algebras = list(algebras)
        if not self.algebras:
            raise ValidationError("empty filtration")
        dim = self.algebras[0].dim
        if any(a.dim != dim for a in self.algebras):
            raise ValidationError("filtration algebras have mixed ambient dimensions")
        if not self.algebras[0].is_trivial():
            raise ValidationError("A_0 must be the scalars CI")
        for s in range(len(self.algebras) - 1):
            if not self.algebras[s].is_subalgebra_of(self.algebras[s + 1]):
                raise ValidationError(f"A_{s} is not contained in A_{s + 1}")

    @property
    def dim(self):
        return self.algebras[0].dim

    @property
    def horizon(self):
        return len(self.algebras) - 1

    def __getitem__(self, t):
        return self.algebras[t]


def tensor_qubit_filtration(n_periods):
    """The filtration A_n = B((C^2)^(x)n) (x) I of the N-period tensor market."""
    dim = 2 ** n_periods
    return Filtration(
        [OperatorAlgebra.tensor_factor(2 ** n, dim) for n in range(n_periods + 1)]
    )


def require_dim(mat, dim, what):
    """Reject a square operator that is not dim x dim, naming both sizes."""
    if len(mat) != dim:
        raise ValidationError(f"{what} is {len(mat)} x {len(mat)}, the market's dimension is {dim}")


class MarketModel:
    """Bank account B_0..B_T plus d adapted positive asset processes."""

    def __init__(self, filtration, bank, assets, check=True):
        self.filtration = filtration
        self.bank = [float(b) for b in bank]
        self.assets = [[as_hermitian(s) for s in proc] for proc in assets]
        T = filtration.horizon
        if len(self.bank) != T + 1:
            raise ValidationError("bank account length does not match filtration")
        if check:
            if not all(math.isfinite(b) for b in self.bank):
                raise ValidationError(f"bank account must be finite, got {self.bank}")
            if any(b <= 0 for b in self.bank):
                raise ValidationError("bank account must be strictly positive")
            for j, proc in enumerate(self.assets):
                if len(proc) != T + 1:
                    raise ValidationError(f"asset {j} has wrong process length")
                for t, s in enumerate(proc):
                    require_dim(s, filtration.dim, f"asset {j} at t={t}")
                    if min_eigenvalue(s) < -POSITIVITY_TOL:
                        raise ValidationError(f"asset {j} not positive at t={t}")
                    if not filtration[t].contains(s):
                        raise ValidationError(f"asset {j} not adapted at t={t}")
        self._discounted = None
        self._attainable = None

    @property
    def dim(self):
        return self.filtration.dim

    @property
    def horizon(self):
        return len(self.bank) - 1

    @property
    def n_assets(self):
        return len(self.assets)

    def is_discounted(self):
        return all(abs(b - 1.0) <= 1e-12 for b in self.bank)

    def increment(self, j, t):
        return self.assets[j][t] - self.assets[j][t - 1]


def discount(market):
    """Replace (B, S) by (1, S_t / B_t); the filtration is unchanged.

    A discounted market is returned as it is.  Otherwise the discounted
    market is built once and kept on ``market``, so repeated calls share
    one attainable space.
    """
    if market.is_discounted():
        return market
    if market._discounted is None:
        assets = [[s / b for s, b in zip(proc, market.bank)] for proc in market.assets]
        market._discounted = MarketModel(
            market.filtration, [1.0] * (market.horizon + 1), assets, check=False
        )
    return market._discounted


class TradingStrategy:
    """Per-period biprocess sum_k a_k A_k* (.) A_k, stored in factored form.

    ``terms`` maps (period t, asset j) to a list of (a_k, A_k) pairs with
    A_k in A_{t-1}.  The initial scalar h0 enters only the value process at
    time zero, mirroring its role in the market definition.
    """

    def __init__(self, terms=None, h0=0.0):
        self.terms = {}
        for key, pairs in (terms or {}).items():
            t, j = key
            self.terms[(int(t), int(j))] = [
                (float(a), check_matrix(mat)) for a, mat in pairs
            ]
        self.h0 = float(h0)

    def validate(self, filtration):
        for (t, _j), pairs in self.terms.items():
            if t < 1 or t > filtration.horizon:
                raise ValidationError(f"strategy period {t} outside 1..{filtration.horizon}")
            for _a, mat in pairs:
                require_dim(mat, filtration.dim, f"strategy coefficient at period {t}")
                if not filtration[t - 1].contains(mat):
                    raise ValidationError(
                        f"strategy coefficient at period {t} is not in A_{t - 1}"
                    )

    def apply_increment(self, market, t):
        """sum_j sum_k a_k A_k* (S^j_t - S^j_{t-1}) A_k for one period."""
        d = market.dim
        out = np.zeros((d, d), dtype=complex)
        for j in range(market.n_assets):
            ds = market.increment(j, t)
            for a, mat in self.terms.get((t, j), []):
                out += a * (mat.conj().T @ ds @ mat)
        return 0.5 * (out + out.conj().T)


def bimodule_apply(h_term, u):
    """(A (x) B) # U = A U B."""
    a, b = (check_matrix(m) for m in h_term)
    u = check_matrix(u)
    if not (a.shape == b.shape == u.shape):
        raise ValidationError("dimension mismatch in bimodule action")
    return a @ u @ b


def gain_process(strategy, market):
    """Cumulative gains (H # S)_t on a discounted market; (H # S)_0 = 0."""
    if not market.is_discounted():
        raise ValidationError("gain process requires a discounted market (B = 1)")
    strategy.validate(market.filtration)
    d = market.dim
    gains = [np.zeros((d, d), dtype=complex)]
    for t in range(1, market.horizon + 1):
        gains.append(gains[-1] + strategy.apply_increment(market, t))
    return gains


def value_process(beta, strategy, market):
    """Portfolio values beta_t B_t I + sum_j H^j_t # S^j_t."""
    if len(beta) != market.horizon + 1:
        raise ValidationError("beta length does not match the horizon")
    strategy.validate(market.filtration)
    d = market.dim
    eye = np.eye(d, dtype=complex)
    values = []
    for t in range(market.horizon + 1):
        v = beta[t] * market.bank[t] * eye
        for j in range(market.n_assets):
            if t == 0:
                v = v + strategy.h0 * market.assets[j][0]
            else:
                for a, mat in strategy.terms.get((t, j), []):
                    v = v + a * (mat.conj().T @ market.assets[j][t] @ mat)
        values.append(0.5 * (v + v.conj().T))
    return values


class MartingaleConstraintSet:
    """Orthonormal Hermitian G_m with tr(rho G_m) = 0 required of a martingale state.

    ``vecs`` holds the herm-vec rows of the G_m; ``rows`` (here ``vecs``), unit-norm rows
    spanning K, is all the decision reads.  Subclasses set ``dim``, ``rows`` and ``vecs``.
    ``perp`` is read-only; ``slice_step`` gives the slice's directions; ``decision`` the result.
    """

    decision = None  # set by check_no_arbitrage, once

    def __init__(self, dim, operators):
        self.dim = int(dim)
        mats = np.asarray(operators, dtype=complex).reshape(-1, self.dim, self.dim)
        self.vecs = self.rows = herm_to_vec(mats)

    def __len__(self):
        return len(self.vecs)

    rank = property(__len__)

    @cached_property
    def perp(self):
        """herm_to_vec(I) minus its projection onto K, read-only; None when I lies in K.

        Replication, the no-arbitrage decision and completeness read this one split
        (RANK_TOL relative to |I|).
        """
        eye = herm_to_vec(np.eye(self.dim, dtype=complex))
        perp = eye - (self.vecs @ eye) @ self.vecs
        if np.linalg.norm(perp) <= RANK_TOL * np.linalg.norm(eye):
            return None
        perp.flags.writeable = False
        return perp

    def slice_step(self, y):
        """P(y) = y minus its projection onto span(I, K), the slice's directions; needs a slice."""
        perp = self.perp
        y = y - (perp @ y / (perp @ perp)) * perp  # perp is orthogonal to K
        return y - (self.vecs @ y) @ self.vecs


def _pair_images(blocks):
    """herm_to_vec of sum_pq h_pq X_pq for each h in the herm-vec basis of Herm(n).

    ``blocks`` has shape (n, n, D, D) with X_qp = X_pq*, so every image is
    Hermitian.  Row g of the result is the image of vec_to_herm(e_g, n).
    """
    n = blocks.shape[0]
    diag = np.arange(n)
    iu, ju = upper_indices(n)
    upper, lower = blocks[iu, ju], blocks[ju, iu]
    images = np.concatenate(
        [blocks[diag, diag], (upper + lower) / _SQRT2, 1j * (upper - lower) / _SQRT2]
    )
    return herm_to_vec(images)


def _orthonormal_rows(mat):
    """Rank-revealing SVD: (coords, rows) with rows = coords.T @ mat orthonormal.

    Singular values up to RANK_TOL * max(1, s_max) are dropped.  Each
    singular pair's sign is fixed by its largest coordinate, so the basis
    does not depend on the sign choices of the LAPACK driver.
    """
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.count_nonzero(s > RANK_TOL * max(1.0, s[0])))
    u, s, vt = u[:, :rank], s[:rank], vt[:rank]
    signs = np.sign(u[np.abs(u).argmax(axis=0), np.arange(rank)])
    return u * (signs / s), vt * signs[:, None]


def _unvec_pair(f, m):
    """h[(a,b),(c,d)] = sum_gs f[g, s] E_g[a, c] E_s[b, d] over herm-vec units E of Herm(m)."""
    z = vec_to_herm(f, m).transpose(1, 2, 0)  # (b, d, g)
    h = vec_to_herm(z.real, m) + 1j * vec_to_herm(z.imag, m)  # (b, d, a, c)
    return h.transpose(2, 0, 3, 1).reshape(m * m, m * m)


class PeriodSpan(MartingaleConstraintSet):
    """K_t with an h-matrix preimage for each element.

    A period-t strategy is one Hermitian coefficient matrix h per asset
    over the basis A_p of A_{t-1}; its gain is sum_pq h_pq A_p* dS A_q.
    ``vecs`` is an orthonormal herm-vec basis of K_t.  Over a generic
    basis, ``_hmaps[j]`` sends coefficients over ``vecs`` to the herm-vec
    of asset j's h.

    For a factor algebra B(C^m) (x) I_k with A_p = E_ab (x) I,
    A_p* X A_q = E_bd (x) X_ac where X_ac are the k x k blocks of X.  So
    K_t = Herm(M_m) (x) W_t, with W_t the span of sum_ac g_ac X_ac over
    Hermitian g, and P (x) w has the preimage h = g (x) P.  The SVD then
    runs on the m^2 block combinations instead of the m^4 basis pairs, and
    ``_hmaps[j]`` sends coefficients over the W_t basis to asset j's g, and
    ``w`` holds that basis as k x k matrices (None over a generic basis).
    """

    def __init__(self, period, algebra, increments):
        d = algebra.dim
        self.period = period
        self.dim = d
        if algebra.is_factor:
            m = algebra.factor_dim
            self._units, self._basis = (m, d // m), None
            blocks = [x.reshape(m, d // m, m, d // m).transpose(0, 2, 1, 3) for x in increments]
        else:
            self._units, self._basis = None, np.array(algebra.basis)
            left = self._basis.conj().transpose(0, 2, 1)
            blocks = [(left @ x)[:, None] @ self._basis[None, :] for x in increments]
        hmap, rows = _orthonormal_rows(np.concatenate([_pair_images(b) for b in blocks]))
        self._hmaps = np.split(hmap, len(blocks))
        if self._basis is not None:
            self.vecs, self.rows, self.w = rows, rows, None
        else:
            m, k = self._units
            self.w = w = vec_to_herm(rows, k)
            units = vec_to_herm(np.eye(m * m), m)
            prod = np.einsum("aij,bkl->abikjl", units, w).reshape(-1, d, d)
            self.vecs = self.rows = herm_to_vec(prod)

    def terms(self, coeffs):
        """Strategy terms {(t, j): [(a, A)]} whose gain is sum_i coeffs_i K_{t,i}."""
        coeffs = np.asarray(coeffs, dtype=float)
        # per asset j, the Hermitian coefficient matrix h_j of its share of that gain
        if self._basis is not None:
            n = len(self._basis)
            hs = [vec_to_herm(hmap @ coeffs, n) for hmap in self._hmaps]
        else:
            m = self._units[0]
            grid = coeffs.reshape(m * m, -1).T  # (W_t basis, Herm(M_m) unit)
            hs = [_unvec_pair(hmap @ grid, m) for hmap in self._hmaps]
        out = {}
        for j, h in enumerate(hs):
            lam, vecs = np.linalg.eigh(h)
            keep = np.abs(lam) > 1e-14 * np.abs(lam).max(initial=0.0)
            if not keep.any():
                continue
            # h = sum_k lam_k v_k v_k*, so the gain is sum_k lam_k A_k* dS A_k
            # with A_k = sum_q conj(v_kq) A_q
            weights = vecs[:, keep].conj().T
            if self._basis is not None:
                mats = np.tensordot(weights, self._basis, axes=1)
            else:
                m, k = self._units
                mats = np.einsum(
                    "kab,ij->kaibj", weights.reshape(-1, m, m), np.eye(k)
                ).reshape(-1, self.dim, self.dim)
            out[(self.period, j)] = list(zip(lam[keep], mats))
        return out


class AttainableSpace(MartingaleConstraintSet):
    """K = sum_t K_t of a discounted market, with a strategy for each element.

    ``periods`` holds the K_t and ``rows`` their stacked bases; ``vecs``, an
    orthonormal herm-vec basis of K, is rank-revealed by one SVD of ``rows``
    when a projection or the Newton core first reads it.  A coefficient
    vector over ``vecs`` maps to coefficients over the period bases by one
    matvec, and from there to one h-matrix per period and asset.  It is the
    market's martingale constraint set too, and refers not back to the market.
    """

    def __init__(self, market):
        self.dim = d = market.dim
        self.periods = [
            PeriodSpan(
                t,
                market.filtration[t - 1],
                # a market without assets attains nothing: one zero increment
                [market.increment(j, t) for j in range(market.n_assets)]
                or [np.zeros((d, d), dtype=complex)],
            )
            for t in range(1, market.horizon + 1)
        ]
        self.rows = np.concatenate([np.zeros((0, d * d))] + [p.vecs for p in self.periods])
        self._offsets = np.cumsum([0] + [p.rank for p in self.periods])

    @cached_property
    def _orthonormal(self):
        """(coords, vecs): ``vecs`` = coords.T @ ``rows``, orthonormal (``_orthonormal_rows``)."""
        if len(self.periods) <= 1 or len(self.rows) == 0:
            return np.eye(len(self.rows)), self.rows
        return _orthonormal_rows(self.rows)

    vecs = property(lambda self: self._orthonormal[1])

    def strategy(self, coeffs):
        """A TradingStrategy whose terminal gain is sum_i coeffs_i K_i."""
        local = self._orthonormal[0] @ np.asarray(coeffs, dtype=float)
        terms = {}
        for p, lo, hi in zip(self.periods, self._offsets, self._offsets[1:]):
            terms.update(p.terms(local[lo:hi]))
        return TradingStrategy(terms)


def attainable_space(market):
    """The AttainableSpace of a discounted market, built on first use and kept on it."""
    if market._attainable is None:
        if not market.is_discounted():
            raise ValidationError("attainable space requires a discounted market")
        market._attainable = AttainableSpace(market)
    return market._attainable


def attainable_space_basis(market):
    """Orthonormal real basis of the attainable-claim space K."""
    space = attainable_space(market)
    return list(vec_to_herm(space.vecs, space.dim))
