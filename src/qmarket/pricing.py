"""Replication, arbitrage-free price intervals, and optional decomposition.

Price bounds start from replication.  An attainable claim
A = alpha I + (H # S)_T has the price alpha under every martingale state,
so its interval collapses to that point without the interior-point pass.
Any other claim's bounds come from that pass: maximize
tr(rho A) + tau * logdet(rho) over the affine martingale slice with damped
Newton steps, driving tau down a geometric schedule; the endpoints of the
tau-path converge to the closed-set optima, which by density of the
faithful states equal the sup/inf over risk-neutral states.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg

from .arbitrage import (
    DEFAULT_MAX_ITERS,
    FAITHFUL_STATE_FOUND,
    NO_FAITHFUL_STATE,
    check_no_arbitrage,
    maximize_lambda_min,
)
from .errors import ArbitrageError, InternalConsistencyError, SolverError, ValidationError
from .market import AttainableSpace, TradingStrategy, attainable_space
from .operators import as_hermitian, herm_to_vec, hs_inner, trace_pairings, vec_to_herm
from .quantum import DensityState

ATTAINABLE_RESIDUAL_TOL = 1e-8
# widest interval the barrier oracle in the tests may report for an attainable claim
INTERVAL_WIDTH_TOL = 1e-7
CONSUMPTION_PSD_TOL = 1e-8
TAU_FLOOR = 1e-10


@dataclass
class Replication:
    """A = alpha I + (H # S)_T + R, R orthogonal to span(I, K), |R| = residual; H built when read."""

    alpha: float
    coeffs: np.ndarray = field(repr=False)
    space: AttainableSpace = field(repr=False)
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


def replicate(a, market):
    """Replicate A = alpha I + sum_i c_i K_i by projection; alpha is the candidate price.

    alpha = <perp, A> / |perp|^2 (see ``identity_split``), or 0 when I lies in K.
    """
    _require_discounted(market)
    a = _require_terminal_observable(a, market)
    space = attainable_space(market)
    _, perp = space.identity_split
    target = herm_to_vec(a)
    alpha = 0.0 if perp is None else float(perp @ target / (perp @ perp))
    rest = target - alpha * herm_to_vec(np.eye(market.dim, dtype=complex))
    coef = space.vecs @ rest
    residual = float(np.linalg.norm(rest - coef @ space.vecs))
    return Replication(alpha, coef, space, residual, max(1.0, float(np.linalg.norm(a))))


# --- log-det barrier over the martingale slice ------------------------------


def _barrier_maximize(x0, basis, objective, start_c):
    """max tr(rho(c) A) + tau logdet rho(c) along tau = 1, 0.5, ..., TAU_FLOOR: (value, rho)."""
    stack = np.asarray(basis)
    n, d = stack.shape[:2]
    q = trace_pairings(stack, objective)
    c = np.array(start_c, dtype=float)

    def assemble(cv):
        return x0 + np.tensordot(cv, stack, axes=1)

    def f_value(cv, tau):
        rho = assemble(cv)
        vals = np.linalg.eigvalsh(rho)
        if vals[0] <= 0:
            return -np.inf
        return float(q @ cv) + tau * float(np.log(vals).sum())

    tau = 1.0
    while tau >= TAU_FLOOR:
        for _ in range(60):
            # whiten by rho = L L*: with M_i = L^-1 B_i L^-*, the gradient of
            # logdet is tr M_i and its Hessian is -Re<M_i, M_j>
            try:
                chol = np.linalg.cholesky(assemble(c))
            except np.linalg.LinAlgError as exc:
                raise SolverError("barrier iterate is not positive definite") from exc
            linv = np.linalg.inv(chol)
            m = linv @ (stack.reshape(n * d, d) @ linv.conj().T).reshape(n, d, d)
            grad = q + tau * np.trace(m, axis1=1, axis2=2).real
            flat = m.reshape(n, -1).view(float)
            hess = tau * (flat @ flat.T)
            try:
                step = np.linalg.solve(hess + 1e-14 * np.eye(len(c)), grad)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"barrier Newton system is singular at tau={tau:.1e}") from exc
            decrement = float(grad @ step)
            if decrement < max(1e-10 * tau, 1e-18):
                break
            t = 1.0
            f0 = f_value(c, tau)
            while t > 1e-14 and f_value(c + t * step, tau) <= f0 - 1e-18:
                t *= 0.5
            if t <= 1e-14:
                break  # no ascent step left at this tau
            c = c + t * step
        tau *= 0.5
    rho = assemble(c)
    return float(hs_inner(rho, objective)), rho


def price_bounds(a, market, max_iters=DEFAULT_MAX_ITERS):
    """Arbitrage-free price interval [inf, sup] of tr(rho A) over martingale states."""
    _require_discounted(market)
    a = _require_terminal_observable(a, market)
    rep = replicate(a, market)
    na = check_no_arbitrage(market, max_iters=max_iters)
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
    witness = na.witness_state
    if rep.attainable:
        # every martingale state gives A = alpha I + (H # S)_T the price alpha
        price = float(hs_inner(witness.mat, a))
        return PriceInterval(
            price, price, attainable=True, witness_states=(witness, witness),
            interval_open=False, replication=rep,
        )

    # the barrier's coordinates, for this claim only: a basis of the slice directions
    d = market.dim
    eye = herm_to_vec(np.eye(d, dtype=complex))
    basis = vec_to_herm(scipy.linalg.null_space(np.vstack([eye, space.vecs])).T, d)
    x0 = space.slice_point
    # the interior witness in slice coordinates is the warm start
    start = trace_pairings(basis, witness.mat - x0)
    upper, rho_hi = _barrier_maximize(x0, basis, a, start)
    lower_neg, rho_lo = _barrier_maximize(x0, basis, -a, start)
    return PriceInterval(
        -lower_neg,
        upper,
        attainable=False,
        witness_states=(DensityState(rho_lo), DensityState(rho_hi)),
        interval_open=True,
        replication=rep,
    )


def arbitrage_free_prices(a, market, max_iters=DEFAULT_MAX_ITERS):
    """Classify the price set: singleton (attainable) or open interval."""
    interval = price_bounds(a, market, max_iters=max_iters)
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


def optional_decomposition(values, market, max_iters=DEFAULT_MAX_ITERS):
    """Constructive decomposition V = V_0 + H # S - C with C increasing.

    Per period, super-replicates the increment of V inside the one-period
    gain span by maximizing the minimum eigenvalue of the hedge slack; the
    slack itself is the consumption increment.
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

    na = check_no_arbitrage(market, max_iters=max_iters)
    if na.status != FAITHFUL_STATE_FOUND:
        raise ArbitrageError("optional decomposition requires an arbitrage-free market")
    if not supermartingale_check(vals, na.witness_state, market):
        raise ValidationError(
            "value process is not a supermartingale under the risk-neutral witness"
        )

    space = attainable_space(market)
    consumption = [np.zeros((d, d), dtype=complex)]
    terms = {}
    for period in space.periods:
        t = period.period
        dv = vals[t] - vals[t - 1]
        scale = max(1.0, float(np.linalg.norm(-dv, 2)))
        flat = period.operators.reshape(period.rank, d * d) / scale
        _, c, _ = maximize_lambda_min(
            -dv / scale, lambda cv: (cv @ flat).reshape(d, d),
            lambda w: trace_pairings(flat, w), period.rank, max_iters,
        )
        dc = np.tensordot(c, period.operators, axes=1) - dv  # hedge gain minus dv
        lam = float(np.linalg.eigvalsh(dc)[0])
        if lam < -CONSUMPTION_PSD_TOL:
            raise SolverError(
                f"one-period super-replication infeasible at t={t}: "
                f"best minimum eigenvalue {lam:.3e}"
            )
        terms.update(period.terms(c))
        consumption.append(consumption[-1] + 0.5 * (dc + dc.conj().T))
    return OptionalDecompositionResult(v0, TradingStrategy(terms), consumption)
