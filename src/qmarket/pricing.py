"""Replication, arbitrage-free price intervals, and optional decomposition.

Both rest on one super-hedge.  The sup of tr(rho A) over martingale states
is the super-hedging price min{alpha : alpha I + k - A >= 0, k in K}, and
each period of the optional decomposition super-hedges one increment of V
over K_t.  A target in span(I, K) is its own hedge: the projection that
``replicate`` makes, with no solver.  Any other target is hedged by Newton
steps on alpha - tau logdet(alpha I + k - A) over (alpha, k) for a geometric
schedule of tau (Vandenberghe & Boyd, "Semidefinite Programming", SIAM
Review 38, 1996).  Each step's dual estimate rho is a martingale state, and
alpha - tr(rho A) is the certified gap of the price; the solve stops once
that gap is below GAP_TOL, relative to max(1, |A|_2).
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .arbitrage import FAITHFUL_STATE_FOUND, NO_FAITHFUL_STATE, check_no_arbitrage
from .errors import ArbitrageError, InternalConsistencyError, SolverError, ValidationError
from .market import MartingaleConstraintSet, TradingStrategy, attainable_space
from .operators import as_hermitian, herm_to_vec, hs_inner, vec_to_herm
from .quantum import DensityState

ATTAINABLE_RESIDUAL_TOL = 1e-8
# widest interval the super-hedge oracle in the tests may report for an attainable claim
INTERVAL_WIDTH_TOL = 1e-7
CONSUMPTION_PSD_TOL = 1e-8
GAP_TOL = 1e-10  # the super-hedge stops once its certified gap is below this times the scale
TAU_STEP = 0.02  # tau schedule 1, TAU_STEP, TAU_STEP^2, ...
NEWTON_TOL = 1e-2  # squared Newton decrement at which an iterate counts as centred
NEWTON_STEPS = 500


@dataclass
class Replication:
    """A hedge alpha I + sum_i coeffs_i K_i of a target A over ``space``; H built when read.

    ``residual`` is |alpha I + (H # S)_T - A|: for a replication that part is
    orthogonal to span(I, K), for a super-hedge it is positive.
    """

    alpha: float
    coeffs: np.ndarray = field(repr=False)
    space: MartingaleConstraintSet = field(repr=False)
    residual: float
    scale: float = 1.0

    @property
    def attainable(self):
        return self.residual <= ATTAINABLE_RESIDUAL_TOL * self.scale

    @cached_property
    def strategy(self):
        return self.space.strategy(self.coeffs)


@dataclass
class PriceInterval:
    lower: float
    upper: float
    attainable: bool
    witness_states: tuple = (None, None)
    interval_open: bool = True
    replication: Optional[Replication] = field(default=None, repr=False)
    hedge: Optional[Replication] = field(default=None, repr=False)  # the upper super-hedge


@dataclass
class PriceClassification:
    interval: PriceInterval
    replication: Replication
    unique_price: Optional[float] = None


@dataclass
class OptionalDecompositionResult:
    v0: float
    strategy: TradingStrategy
    consumption: list


@dataclass
class CompletenessReport:
    complete: bool
    affine_dim: int
    observable_dim: int


def _require_discounted(market):
    if not market.is_discounted():
        raise ValidationError("pricing operations require a discounted market (B = 1)")


def _require_terminal_observable(a, market):
    a = as_hermitian(a)
    if not market.filtration[market.horizon].contains(a):
        raise ValidationError("claim is not adapted to the terminal algebra A_T")
    return a


def _split(target, space):
    """target = alpha I + coeffs @ K + R, R orthogonal to span(I, K), as a Replication.

    alpha = <perp, target> / |perp|^2 (see ``identity_split``), or 0 when I lies in K.
    """
    _, perp = space.identity_split
    vec = herm_to_vec(target)
    alpha = 0.0 if perp is None else float(perp @ vec / (perp @ perp))
    rest = vec - alpha * herm_to_vec(np.eye(space.dim, dtype=complex))
    coef = space.vecs @ rest
    residual = float(np.linalg.norm(rest - coef @ space.vecs))
    return Replication(alpha, coef, space, residual, max(1.0, float(np.linalg.norm(target))))


def replicate(a, market):
    """Replicate A = alpha I + sum_i c_i K_i by projection; alpha is the candidate price."""
    _require_discounted(market)
    return _split(_require_terminal_observable(a, market), attainable_space(market))


# --- the super-hedge ---------------------------------------------------------


def _super_hedge(target, space):
    """min alpha with alpha I + k - target >= 0 over k in the span: (hedge, witness rho).

    Newton steps on alpha - tau logdet X over x = (alpha, c), where
    X = sum_i x_i B_i - target / scale with B = (I, K_1, ...), from the
    strictly feasible alpha = lambda_max + 1, c = 0.  With X = L L* and
    M_i = L^-1 B_i L^-*, the gradient is e_0 - tau tr M and the Hessian
    tau Re<M_i, M_j>.  At the Newton step s, with S = sum_i s_i M_i, the
    dual estimate rho = tau L^-*(I - S) L^-1 has tr rho = 1 and
    tr(rho K_i) = 0, and alpha - tr(rho target) = tau (d - tr S) scale.
    """
    d = space.dim
    scale = max(1.0, float(np.linalg.norm(target, 2)))
    a = target / scale
    basis = np.concatenate([np.eye(d, dtype=complex)[None], space.operators])
    n = len(basis)
    x = np.zeros(n)
    x[0] = np.linalg.eigvalsh(a)[-1] + 1.0
    tau = 1.0
    for _ in range(NEWTON_STEPS):
        slack = np.tensordot(x, basis, axes=1) - a
        try:
            linv = np.linalg.inv(np.linalg.cholesky(slack))
        except np.linalg.LinAlgError as exc:
            raise SolverError("super-hedge iterate is not positive definite") from exc
        m = herm_to_vec(linv @ (basis.reshape(n * d, d) @ linv.conj().T).reshape(n, d, d))
        gram, traces = m @ m.T, m[:, :d].sum(axis=1)
        while True:
            grad = -tau * traces
            grad[0] += 1.0
            try:
                step = -np.linalg.solve(tau * gram, grad)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"Newton system is singular at tau={tau:.1e}") from exc
            s_mat = vec_to_herm(step @ m, d)
            mu = np.linalg.eigvalsh(s_mat)
            slope = float(grad @ step)  # -tau |S|_F^2, |S|_F the Newton decrement
            # |S|_F <= 1/2 keeps rho >= tau L^-* L^-1 / 2 > 0: stop on its gap
            if -slope <= 0.25 * tau and tau * (d - mu.sum()) <= GAP_TOL:
                rho = tau * linv.conj().T @ (np.eye(d) - s_mat) @ linv
                lam = np.linalg.eigvalsh(rho)[0]
                if lam <= 0.0:
                    raise SolverError(f"super-hedge witness is not positive definite: {lam:.3e}")
                residual = float(np.linalg.norm(slack)) * scale
                return Replication(float(x[0] * scale), x[1:] * scale, space, residual, scale), rho
            if -slope > NEWTON_TOL * tau:
                break
            tau *= TAU_STEP  # centred: follow the central path
        # backtrack on the exact change of the objective along the step, in whitened form
        t = 1.0
        while t * mu[0] <= -1.0 or t * step[0] - tau * np.log1p(t * mu).sum() > 0.25 * t * slope:
            t *= 0.5
            if t < 1e-12:
                raise SolverError(f"super-hedge line search failed at tau={tau:.1e}")
        x = x + t * step
    raise SolverError(f"super-hedge did not converge in {NEWTON_STEPS} Newton steps")


def _hedge(target, space):
    """(hedge, witness) of target; a target in span(I, K) is its own hedge, with no solve."""
    rep = _split(target, space)
    return (rep, None) if rep.attainable else _super_hedge(target, space)


def price_bounds(a, market):
    """Arbitrage-free price interval [inf, sup] of tr(rho A) over martingale states."""
    _require_discounted(market)
    a = _require_terminal_observable(a, market)
    rep = replicate(a, market)
    na = check_no_arbitrage(market)
    if na.status == NO_FAITHFUL_STATE:
        raise ArbitrageError(
            "market admits arbitrage; price bounds undefined",
            certificate=na.arbitrage_claim,
        )
    if na.status != FAITHFUL_STATE_FOUND:
        raise SolverError("no-arbitrage decision is indeterminate")

    space = attainable_space(market)
    # P(A) is the part of A outside span(I, K): |P(A)| = rep.residual
    q_norm = float(np.linalg.norm(space.slice_step(herm_to_vec(a))))
    if (q_norm <= ATTAINABLE_RESIDUAL_TOL * rep.scale) != rep.attainable:
        raise InternalConsistencyError(
            f"attainability disagreement: replication residual {rep.residual:.3e}, "
            f"part outside span(I, K) {q_norm:.3e}"
        )
    upper, rho_hi = _hedge(a, space)
    if rho_hi is None:
        # every martingale state gives A = alpha I + (H # S)_T the price alpha
        witness = na.witness_state
        price = hs_inner(witness.mat, a)
        return PriceInterval(
            price, price, attainable=True, witness_states=(witness, witness),
            interval_open=False, replication=rep, hedge=upper,
        )
    lower, rho_lo = _hedge(-a, space)
    return PriceInterval(
        -lower.alpha,
        upper.alpha,
        attainable=False,
        witness_states=(DensityState(rho_lo), DensityState(rho_hi)),
        interval_open=True,
        replication=rep,
        hedge=upper,
    )


def arbitrage_free_prices(a, market):
    """Classify the price set: singleton (attainable) or open interval."""
    interval = price_bounds(a, market)
    rep = interval.replication
    unique = None
    if interval.attainable:
        scale = max(1.0, abs(interval.upper))
        if (
            abs(rep.alpha - interval.upper) > 1e-6 * scale
            or abs(rep.alpha - interval.lower) > 1e-6 * scale
        ):
            raise InternalConsistencyError(
                f"replication price {rep.alpha!r} disagrees with bounds "
                f"({interval.lower!r}, {interval.upper!r})"
            )
        unique = rep.alpha
    return PriceClassification(interval, rep, unique_price=unique)


def is_complete(market):
    """Dimension test: span{I} + span(K) against the Hermitian part of A_T."""
    _require_discounted(market)
    space = attainable_space(market)
    affine_dim = space.rank + (space.identity_split[1] is not None)
    obs_dim = market.filtration[market.horizon].herm_dim()
    return CompletenessReport(affine_dim == obs_dim, affine_dim, obs_dim)


def supermartingale_check(values, rho, market):
    """Gram-matrix test of E_rho A* V_t A <= E_rho A* V_{t-1} A per period."""
    mat = rho.mat if isinstance(rho, DensityState) else rho
    for t in range(1, market.horizon + 1):
        dv = as_hermitian(values[t]) - as_hermitian(values[t - 1])
        basis = np.asarray(market.filtration[t - 1].basis)
        n = len(basis)
        # gram[p, q] = tr(rho A_p* dV A_q) = sum_jk conj(A_p[j, k]) (dV A_q rho)[j, k]
        gram = basis.reshape(n, -1).conj() @ (dv @ basis @ mat).reshape(n, -1).T
        gram = 0.5 * (gram + gram.conj().T)
        if np.linalg.eigvalsh(gram)[-1] > CONSUMPTION_PSD_TOL:
            return False
    return True


def optional_decomposition(values, market):
    """Constructive decomposition V = V_0 + H # S - C with C increasing.

    Per period, super-hedges the increment of V over the one-period gain
    span K_t; the hedge's gain minus the increment is the consumption
    increment.
    """
    _require_discounted(market)
    horizon = market.horizon
    if len(values) != horizon + 1:
        raise ValidationError("value process length does not match the horizon")
    vals = [as_hermitian(v) for v in values]
    for t, v in enumerate(vals):
        if not market.filtration[t].contains(v):
            raise ValidationError(f"value process not adapted at t={t}")
    d = market.dim
    v0 = float(np.trace(vals[0]).real) / d

    na = check_no_arbitrage(market)
    if na.status != FAITHFUL_STATE_FOUND:
        raise ArbitrageError("optional decomposition requires an arbitrage-free market")
    if not supermartingale_check(vals, na.witness_state, market):
        raise ValidationError(
            "value process is not a supermartingale under the risk-neutral witness"
        )

    consumption = [np.zeros((d, d), dtype=complex)]
    terms = {}
    for period in attainable_space(market).periods:
        t = period.period
        dv = vals[t] - vals[t - 1]
        hedge, _ = _hedge(dv, period)
        dc = np.tensordot(hedge.coeffs, period.operators, axes=1) - dv  # hedge gain minus dv
        lam = float(np.linalg.eigvalsh(dc)[0])
        if lam < -CONSUMPTION_PSD_TOL:
            raise SolverError(
                f"one-period super-replication infeasible at t={t}: "
                f"best minimum eigenvalue {lam:.3e}"
            )
        terms.update(period.terms(hedge.coeffs))
        consumption.append(consumption[-1] + 0.5 * (dc + dc.conj().T))
    return OptionalDecompositionResult(v0, TradingStrategy(terms), consumption)
