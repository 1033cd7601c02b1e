"""Filtered operator algebras, markets, trading strategies, and gains.

A market is a bank account plus adapted positive asset operators over a
filtration of unital *-subalgebras.  A trading strategy is, per period and
asset, a biprocess sum_k a_k A_k* (.) A_k over the previous algebra, held
as one Hermitian coefficient matrix h over that algebra's basis; its
cumulative action on asset increments is the gain process.

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

import copy
import math
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import ValidationError
from .operators import (
    _SQRT2,
    ENTRY_CAP,
    as_hermitian,
    check_matrix,
    herm_to_vec,
    kron,
    least_eigenvalue,
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
        return list(kron(units, np.eye(k)))

    def herm_dim(self):
        """Real dimension of the Hermitian part O(A): A = O(A) + i O(A), so dim_C A."""
        return self._factor_dim ** 2 if self.is_factor else len(self._frame)

    # -- coordinates and the pair action -------------------------------------

    def pair_blocks(self, xs):
        """Blocks X_pq, shape (J, n, n, D, D), of a stack (J, d, d): the pair products A_p* X A_q.

        On B(C^m) (x) I_k, A_p* X A_q = E_bd (x) X_ac for A_p = E_ab (x) I, A_q = E_cd (x) I,
        so the blocks are X's k x k blocks X_ac (n = m); over a frame, the products themselves.
        """
        xs = np.asarray(xs).reshape(-1, self.dim, self.dim)
        if self.is_factor:
            m, k = self._factor_dim, self.dim // self._factor_dim
            return xs.reshape(-1, m, k, m, k).swapaxes(2, 3)
        return (self._frame.conj().transpose(0, 2, 1) @ xs[:, None])[:, :, None] @ self._frame

    def coordinates(self, xs):
        """(coords, residuals) of a stack: x = sum_p coords_p A_p + R over ``basis``, and |R|.

        On B(C^m) (x) I_k the coordinates are Y_ac = tr X_ac / k over the k x k
        blocks X_ac of X; over a frame they are the inner products <A_p, X>.
        """
        xs = np.asarray(xs, dtype=complex)
        if self.is_factor:
            m, k = self._factor_dim, self.dim // self._factor_dim
            y = np.trace(self.pair_blocks(xs), axis1=3, axis2=4) / k
            return y.reshape(-1, m * m), np.linalg.norm(xs - kron(y, np.eye(k)), axis=(1, 2))
        flat, frame = xs.reshape(-1, self.dim ** 2), self._frame.reshape(len(self._frame), -1)
        coords = flat @ frame.conj().T
        return coords, np.linalg.norm(flat - coords @ frame, axis=1)

    def pair_action(self, hs, xs):
        """sum_j sum_pq h_j[p, q] A_p* X_j A_q over ``basis`` for stacks hs (J, n, n), xs (J, d, d).

        On B(C^m) (x) I_k, A_p = E_ab (x) I and A_q = E_cd (x) I give A_p* X A_q =
        E_bd (x) X_ac, so block (b, d) of the sum is sum_jac h_j[ab, cd] X_j,ac: one product.
        """
        d = self.dim
        if self.is_factor:
            m, k = self._factor_dim, d // self._factor_dim
            h = hs.reshape(-1, m, m, m, m).transpose(2, 4, 0, 1, 3).reshape(m * m, -1)
            x = self.pair_blocks(xs).reshape(-1, k * k)
            return (h @ x).reshape(m, m, k, k).transpose(0, 2, 1, 3).reshape(d, d)
        frame, n = self._frame, len(self._frame)
        left = frame.conj().transpose(0, 2, 1) @ xs.reshape(-1, 1, d, d)  # A_p* X_j
        right = np.tensordot(hs.reshape(-1, n, n), frame, axes=1)  # sum_q h_j[p, q] A_q
        return left.transpose(2, 0, 1, 3).reshape(d, -1) @ right.reshape(-1, d)

    def gram(self, x, rho):
        """G[p, q] = tr(rho A_p* X A_q), the pair action's adjoint: tr(rho (h # X)) = sum h G."""
        d = self.dim
        if self.is_factor:
            m, k = self._factor_dim, d // self._factor_dim
            # tr(rho (E_bd (x) X_ac)) = sum_il rho[(d, l), (b, i)] X[(a, i), (c, l)]
            x = self.pair_blocks(x).reshape(m * m, k * k)
            r = rho.reshape(m, k, m, k).transpose(3, 1, 2, 0).reshape(k * k, m * m)
            return (x @ r).reshape(m, m, m, m).transpose(0, 2, 1, 3).reshape(m * m, m * m)
        frame = self._frame.reshape(len(self._frame), -1)
        return frame.conj() @ (x @ self._frame @ rho).reshape(len(frame), -1).T

    def contains(self, x):
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.dim, self.dim):
            return False
        return self.coordinates(x[None])[1][0] <= SPAN_TOL * max(1.0, np.linalg.norm(x))

    def _check_explicit(self, mats):
        """I, and the adjoints and products (norms <= 1) of the unit-norm ``mats``, lie in A."""
        if not self.contains(np.eye(self.dim)):
            raise ValidationError("algebra does not contain the identity")
        bad = np.flatnonzero(self.coordinates(mats.conj().transpose(0, 2, 1))[1] > SPAN_TOL)
        if len(bad):
            raise ValidationError(f"algebra not closed under adjoint (element {bad[0]})")
        for i, a in enumerate(mats):
            bad = np.flatnonzero(self.coordinates(a @ mats)[1] > SPAN_TOL)
            if len(bad):
                raise ValidationError(f"algebra not closed under products (elements {i}, {bad[0]})")

    def same_basis(self, other):
        """Whether ``basis`` is the same in both, so that an h over one reads over the other."""
        if self.is_factor or other.is_factor:
            return (self.dim, self._factor_dim) == (other.dim, other._factor_dim)
        return self._frame.shape == other._frame.shape and np.array_equal(self._frame, other._frame)

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

    def __init__(self, filtration, bank, assets):
        self.filtration = filtration
        self.bank = [float(b) for b in bank]
        self.assets = [[as_hermitian(s) for s in proc] for proc in assets]
        T = filtration.horizon
        if len(self.bank) != T + 1:
            raise ValidationError("bank account length does not match filtration")
        if not all(math.isfinite(b) for b in self.bank):
            raise ValidationError(f"bank account must be finite, got {self.bank}")
        if any(b <= 0 for b in self.bank):
            raise ValidationError("bank account must be strictly positive")
        for j, proc in enumerate(self.assets):
            if len(proc) != T + 1:
                raise ValidationError(f"asset {j} has wrong process length")
            for t, s in enumerate(proc):
                require_dim(s, filtration.dim, f"asset {j} at t={t}")
                if least_eigenvalue(s) < -POSITIVITY_TOL:
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
    one attainable space.  S_t is exactly Hermitian, positive and adapted,
    so S_t / B_t is too: it is taken as it is, and refused only if an entry
    exceeds ``ENTRY_CAP``, as any Hermitian operator would be.
    """
    if market.is_discounted():
        return market
    if market._discounted is None:
        with np.errstate(over="ignore"):  # refused just below
            assets = [[s / b for s, b in zip(proc, market.bank)] for proc in market.assets]
        big = np.abs(np.asarray(assets)).max(initial=0.0)
        if big > ENTRY_CAP:
            raise ValidationError(
                f"discounted asset prices S_t / B_t reach magnitude {big:.3e}, "
                f"above the bound {ENTRY_CAP:.0e}"
            )
        disc = market._discounted = copy.copy(market)
        disc.bank, disc.assets = [1.0] * len(market.bank), assets
    return market._discounted


class TradingStrategy:
    """Per-period biprocess: one Hermitian coefficient matrix h per (period t, asset j).

    ``coefficients`` maps (t, j) to h over ``OperatorAlgebra.basis`` A_p of A_{t-1};
    h acts as h # X = sum_pq h_pq A_p* X A_q.  ``algebras`` maps t to the A_{t-1} of
    the market a hedge was built on (``hold``); no other market's algebra reads those
    h's.  The paper's pairs, ``terms`` mapping (t, j) to [(a_k, A_k)] with A_k in
    A_{t-1}, are kept as given: a_k A_k* (.) A_k is h = a_k conj(c) c^T for the
    coordinates c of A_k over the basis of the market that reads the strategy
    (``fold``).  The scalar h0 enters only the value at time zero.
    """

    def __init__(self, terms=None, h0=0.0):
        self.coefficients, self.algebras = {}, {}
        self._pairs = {
            (int(t), int(j)): [(float(a), check_matrix(mat)) for a, mat in pairs]
            for (t, j), pairs in (terms or {}).items()
        }
        self.h0 = float(h0)

    def hold(self, span, coeffs):
        """Take on the h's of the gain sum_i coeffs_i K_{t,i} of ``span``, a PeriodSpan."""
        self.coefficients.update(span.coefficients(coeffs))
        self.algebras[span.period] = span.algebra

    def fold(self, market):
        """``coefficients`` over the bases of ``market``'s filtration, with the pairs folded in.

        The strategy is left as it is, so each market folds the pairs over its own bases.
        """
        for t, j in [*self._pairs, *self.coefficients]:
            if not 1 <= t <= market.horizon:
                raise ValidationError(f"strategy period {t} outside 1..{market.horizon}")
            if not 0 <= j < market.n_assets:
                raise ValidationError(f"strategy asset {j} outside 0..{market.n_assets - 1}")
        for t, _ in self.coefficients:
            alg = market.filtration[t - 1]
            if not self.algebras.get(t, alg).same_basis(alg):
                raise ValidationError(f"strategy coefficients at period {t} are over another A_{t - 1}")
        hs = dict(self.coefficients)
        for (t, j), pairs in self._pairs.items():
            for _a, mat in pairs:
                require_dim(mat, market.dim, f"strategy coefficient at period {t}")
            mats = np.array([mat for _, mat in pairs]).reshape(-1, market.dim, market.dim)
            coords, residuals = market.filtration[t - 1].coordinates(mats)
            if (residuals > SPAN_TOL * np.maximum(1.0, np.linalg.norm(mats, axis=(1, 2)))).any():
                raise ValidationError(f"strategy coefficient at period {t} is not in A_{t - 1}")
            weights = np.array([a for a, _ in pairs])
            hs[(t, j)] = hs.get((t, j), 0.0) + (coords.conj().T * weights) @ coords
        return hs


def bimodule_apply(h_term, u):
    """(A (x) B) # U = A U B."""
    a, b = (check_matrix(m) for m in h_term)
    u = check_matrix(u)
    if not (a.shape == b.shape == u.shape):
        raise ValidationError("dimension mismatch in bimodule action")
    return a @ u @ b


def _period_action(hs, market, t, xs):
    """sum_j h_j # X_j over the assets j holding a period-t h, symmetrised."""
    held = [j for j in range(market.n_assets) if (t, j) in hs]
    out = market.filtration[t - 1].pair_action(
        np.array([hs[(t, j)] for j in held]), np.array([xs[j] for j in held])
    )
    return 0.5 * (out + out.conj().T)


def gain_process(strategy, market):
    """Cumulative gains (H # S)_t on a discounted market; (H # S)_0 = 0."""
    if not market.is_discounted():
        raise ValidationError("gain process requires a discounted market (B = 1)")
    hs = strategy.fold(market)
    steps = [
        _period_action(hs, market, t, [market.increment(j, t) for j in range(market.n_assets)])
        for t in range(1, market.horizon + 1)
    ]
    return list(accumulate(steps, initial=np.zeros((market.dim, market.dim), dtype=complex)))


def value_process(beta, strategy, market):
    """Portfolio values beta_t B_t I + sum_j H^j_t # S^j_t, with H^j_0 # S^j_0 = h0 S^j_0."""
    if len(beta) != market.horizon + 1:
        raise ValidationError("beta length does not match the horizon")
    hs = strategy.fold(market)
    held = [strategy.h0 * sum(p[0] for p in market.assets)] + [
        _period_action(hs, market, t, [p[t] for p in market.assets])
        for t in range(1, market.horizon + 1)
    ]
    eye = np.eye(market.dim, dtype=complex)
    return [b * bank * eye + v for b, bank, v in zip(beta, market.bank, held)]


class MartingaleConstraintSet:
    """Hermitian G_m with tr(rho G_m) = 0 required of a martingale state.

    ``vecs`` holds an orthonormal herm-vec basis of their span K; ``rows`` (here ``vecs``),
    unit-norm rows spanning K, is all the decision reads.  Subclasses set ``dim``, ``rows``
    and ``vecs``.
    ``perp`` is read-only; ``slice_step`` gives the slice's directions; ``decision`` the result.
    """

    decision = None  # set by check_no_arbitrage, once

    def __init__(self, dim, operators):
        self.dim = int(dim)
        vecs = herm_to_vec(np.asarray(operators, dtype=complex).reshape(-1, self.dim, self.dim))
        self.vecs = self.rows = _orthonormal_rows(vecs)[1] if len(vecs) else vecs

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
    does not depend on the sign choices of LAPACK.  The scaling is done in
    place, so no second copy of u or vt is held.
    """
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.count_nonzero(s > RANK_TOL * max(1.0, s[0])))
    u, s, vt = u[:, :rank], s[:rank], vt[:rank]
    signs = np.sign(u[np.abs(u).argmax(axis=0), np.arange(rank)])
    return np.multiply(u, signs / s, out=u), np.multiply(vt, signs[:, None], out=vt)


def _unvec_pair(f, m):
    """h[(a,b),(c,d)] = sum_gs f[g, s] E_g[a, c] E_s[b, d], over herm-vec units E_g of
    Herm(n) and E_s of Herm(m); the g side's size n is read from len(f) = n^2."""
    n = math.isqrt(len(f))
    z = vec_to_herm(f, m).transpose(1, 2, 0)  # (b, d, g)
    h = vec_to_herm(z.real, n) + 1j * vec_to_herm(z.imag, n)  # (b, d, a, c)
    return h.transpose(2, 0, 3, 1).reshape(n * m, n * m)


class PeriodSpan(MartingaleConstraintSet):
    """K_t with an h-matrix preimage for each element.

    A period-t strategy is one Hermitian h per asset over the basis A_p of
    A_{t-1}; its gain is sum_pq h_pq A_p* dS A_q.  The algebra hands over the
    blocks X_pq of each dS (:meth:`OperatorAlgebra.pair_blocks`); one SVD
    rank-reveals W_t = span{sum_pq g_pq X_pq : g Hermitian}, and ``_hmaps[j]``
    sends coefficients over its basis (``w`` as matrices) to asset j's g.  On
    B(C^m) (x) I_k the blocks are dS's k x k blocks, K_t = Herm(M_m) (x) W_t
    and P (x) w has the preimage h = g (x) P; over a frame m = 1 and K_t = W_t.
    ``vecs`` is an orthonormal herm-vec basis of K_t.
    """

    def __init__(self, period, algebra, increments):
        self.period, self.dim, self.algebra = period, algebra.dim, algebra
        self._m = m = algebra.factor_dim or 1
        images = np.concatenate([_pair_images(b) for b in algebra.pair_blocks(increments)])
        hmap, self._w_rows = _orthonormal_rows(images)
        self._hmaps = hmap.reshape(len(increments), len(hmap) // len(increments), -1)
        self.vecs = self.rows = self._w_rows
        if m > 1:  # K_t = Herm(M_m) (x) W_t; for m = 1 the lift is the identity
            lift = kron(vec_to_herm(np.eye(m * m), m)[:, None], self.w)
            self.vecs = self.rows = herm_to_vec(lift.reshape(-1, self.dim, self.dim))

    w = cached_property(lambda self: vec_to_herm(self._w_rows, self.dim // self._m))

    def coefficients(self, coeffs):
        """{(t, j): h}, asset j's share of the gain sum_i coeffs_i K_{t,i}, over A_{t-1}'s basis."""
        if not self.rank:  # a span of rank 0 attains nothing
            return {}
        m = self._m
        grid = np.asarray(coeffs, dtype=float).reshape(m * m, -1).T  # (W_t basis, Herm(M_m) unit)
        return {(self.period, j): _unvec_pair(hmap @ grid, m) for j, hmap in enumerate(self._hmaps)}


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
        strategy = TradingStrategy()
        for p, lo, hi in zip(self.periods, self._offsets, self._offsets[1:]):
            strategy.hold(p, local[lo:hi])
        return strategy


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
